(* The replica side of journal shipping. A follower is a normal
   Durable_session bootstrapped from the primary's epoch snapshot; every
   shipped batch of raw oplog records is applied *through* the durable
   view, so each record is re-journaled locally before it mutates the
   document — the durable-prefix invariant of the primary's journal holds
   transitively on the replica's disk. Promotion is therefore trivial:
   the follower's journal *is* a primary journal already. *)

exception Out_of_sync of string

let out_of_sync fmt = Printf.ksprintf (fun s -> raise (Out_of_sync s)) fmt

type t = {
  f_durable : Durable_session.t;
  f_view : Core.Session.t;
  f_resolver : Journal.Resolver.t;
  mutable f_pos : Journal.position;  (** upstream position applied through *)
  mutable f_shipped : int;  (** records applied via shipping, ever *)
}

let durable f = f.f_durable
let session f = f.f_view
let position f = f.f_pos
let shipped f = f.f_shipped

let bootstrap ?io ?scheme ?fsync_every ?checkpoint_every ~base ~snapshot ~pos () =
  let inner =
    try Repro_storage.Store.load ?scheme snapshot
    with Repro_storage.Store.Corrupt msg -> out_of_sync "shipped snapshot: %s" msg
  in
  let d = Durable_session.create ?io ?fsync_every ?checkpoint_every ~base inner in
  let view = Durable_session.session d in
  {
    f_durable = d;
    f_view = view;
    f_resolver = Journal.Resolver.create view;
    f_pos = pos;
    f_shipped = 0;
  }

let apply ?progress f ~epoch ~offset data =
  if epoch <> f.f_pos.Journal.p_epoch || offset <> f.f_pos.Journal.p_offset then
    out_of_sync "batch at %s, follower at %s"
      (Journal.position_to_string { Journal.p_epoch = epoch; p_offset = offset })
      (Journal.position_to_string f.f_pos);
  let ops, valid_end, torn = Oplog.read_all data ~pos:0 in
  (match torn with
  | Some reason -> out_of_sync "shipped records torn: %s" reason
  | None -> ());
  let applied = ref 0 in
  (try
     List.iter
       (fun op ->
         (match op with
         | Oplog.Mark _ ->
           (* no tree effect for the durable view to journal: append the
              dedup watermark directly, so a promotion can rebuild the
              exactly-once window from this journal *)
           Journal.append (Durable_session.journal f.f_durable) op
         | _ -> ignore (Journal.Resolver.apply f.f_resolver op));
         incr applied;
         f.f_pos <- { f.f_pos with Journal.p_offset = f.f_pos.Journal.p_offset + String.length (Oplog.encode_record op) };
         f.f_shipped <- f.f_shipped + 1;
         match progress with Some k -> k !applied | None -> ())
       ops
   with Journal.Replay_error msg -> out_of_sync "shipped record does not replay: %s" msg);
  Journal.flush (Durable_session.journal f.f_durable);
  if f.f_pos.Journal.p_offset <> offset + valid_end then
    out_of_sync "shipped batch re-encodes to a different length (offset %d, expected %d)"
      f.f_pos.Journal.p_offset (offset + valid_end);
  !applied

let close f = Durable_session.close f.f_durable
