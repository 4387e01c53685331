open Repro_xml
open Repro_io
open Repro_journal
module P = Protocol
module Axis_inc = Repro_encoding.Axis_inc
module Migrate = Repro_migrate.Migrate
module Mig_survival = Repro_migrate.Mig_survival

type config = {
  host : string;
  port : int;
  root : string;
  max_conns : int;
  backlog : int;
  recv_timeout : float;
  send_timeout : float;
  fsync_every : int;
  checkpoint_every : int option;
  max_doc_nodes : int;
  max_frag_nodes : int;
  dedup_window : int;
  shed_waiters : int;
  peer_timeout : float;
  sock : Io.sock;
  log : string -> unit;
  replica_of : (string * int) option;
  replica_name : string;
  poll_interval : float;
  paranoid : bool;
      (** re-derive every served query answer through the scan reference
          evaluator; a divergence is answered as [Internal], never served *)
}

let default_config ~root =
  {
    host = "127.0.0.1";
    port = 0;
    root;
    max_conns = 64;
    backlog = 64;
    recv_timeout = 30.;
    send_timeout = 30.;
    fsync_every = 8;
    checkpoint_every = Some 512;
    max_doc_nodes = 50_000;
    max_frag_nodes = 4_096;
    (* last (client, seq, reply) watermarks kept per document; 0 disables
       the exactly-once dedup window entirely *)
    dedup_window = 128;
    (* refuse further mutations with Overloaded once this many connection
       threads are already blocked on a full actor queue; 0 disables *)
    shed_waiters = 4096;
    (* connect timeout for the replication manager's upstream dials *)
    peer_timeout = 2.0;
    sock = Io.real_sock;
    log = ignore;
    replica_of = None;
    replica_name = "replica";
    poll_interval = 0.02;
    paranoid = false;
  }

(* ---- plumbing ------------------------------------------------------ *)

exception Reject of P.err * string

let reject e fmt = Printf.ksprintf (fun s -> raise (Reject (e, s))) fmt

(* one-shot rendezvous between a connection thread and a document actor *)
module Mailbox = struct
  type 'a t = { mu : Mutex.t; cond : Condition.t; mutable v : 'a option }

  let create () = { mu = Mutex.create (); cond = Condition.create (); v = None }

  let put mb v =
    Mutex.lock mb.mu;
    mb.v <- Some v;
    Condition.signal mb.cond;
    Mutex.unlock mb.mu

  let take mb =
    Mutex.lock mb.mu;
    while Option.is_none mb.v do
      Condition.wait mb.cond mb.mu
    done;
    let v = Option.get mb.v in
    Mutex.unlock mb.mu;
    v
end

(* ---- the per-document actor ----------------------------------------

   One document, one owner: every mutation (and every read that walks
   the tree) is a job executed by this single thread, serialized onto
   the Durable_session. Connection threads only ever see the [published]
   snapshot — an immutable record swapped atomically after each job — so
   label-only queries and stats reads proceed concurrently with writes,
   which is the paper's whole argument for label-based protocols. *)

type published = {
  p_scheme : string;
  p_pack : Core.Scheme.packed;
  p_root : P.label;
  p_stats : P.stats_reply;
  p_qsnap : Axis_inc.snap;
      (** the incremental index at the same revision as [p_stats] — queries
          read this pair, never the live document *)
  p_qtime : float;  (** publication wall-clock, for staleness gauges *)
}

type role = Primary | Follower

type job =
  | J_update of { uj_client : string; uj_seq : int; uj_ops : Oplog.op list }
  | J_migrate of { mj_client : string; mj_seq : int; mj_specs : Migrate.spec list }
  | J_labels of int
  | J_checkpoint
  | J_subscribe
  | J_replicate of { rq_epoch : int; rq_snap : bool; rq_offset : int; rq_limit : int }
  | J_apply of { ap_epoch : int; ap_offset : int; ap_data : string }
  | J_promote

(* the dedup watermark for one identified client: its last sequence
   number and the reply it got, so a retry is answered without re-applying *)
type dedup_entry = {
  mutable de_seq : int;
  mutable de_resp : P.resp;
  mutable de_applied : int;  (** journalled op-prefix length, for the Mark *)
  mutable de_tick : int;  (** LRU clock for window eviction *)
}

(* server-wide cumulative migration blast radius, shared by all actors
   of one server and served as migrate/* gauges *)
type mig_counters = {
  mc_relabelled : int Atomic.t;
  mc_journal_bytes : int Atomic.t;
  mc_broken : int Atomic.t;
  mc_evaluated : int Atomic.t;  (** standing-query evaluations survival made *)
  mc_skipped : int Atomic.t;  (** ... and answers it kept unevaluated *)
  mc_mismatch : int Atomic.t;  (** kept answers a [paranoid] check contradicted *)
}

let mig_counters () =
  {
    mc_relabelled = Atomic.make 0;
    mc_journal_bytes = Atomic.make 0;
    mc_broken = Atomic.make 0;
    mc_evaluated = Atomic.make 0;
    mc_skipped = Atomic.make 0;
    mc_mismatch = Atomic.make 0;
  }

type actor = {
  a_doc : string;
  a_mu : Mutex.t;
  a_nonempty : Condition.t;
  a_slot : Condition.t;
  a_queue : (job * P.resp Mailbox.t) Queue.t;
  a_queue_cap : int;
  mutable a_closed : bool;  (** no new jobs; drain, checkpoint, exit *)
  mutable a_abandoned : bool;  (** simulated kill: exit without checkpointing *)
  mutable a_waiters : int;  (** submitters blocked on a full queue; under [a_mu] *)
  mutable a_thread : Thread.t;
  a_durable : Durable_session.t;
  a_view : Core.Session.t;
  a_pack : Core.Scheme.packed;
  a_inc : Axis_inc.t;
      (** fed by the document's {!Tree} observer on the actor thread;
          snapshotted into [a_pub] after every job *)
  a_qcache : Query_eval.cache;  (** wire-query answers, reused across revisions *)
  mutable a_resolver : Journal.Resolver.t;
  a_dedup : (string, dedup_entry) Hashtbl.t;
      (** client -> watermark; only the actor thread touches it *)
  mutable a_dedup_tick : int;
  a_pub : published Atomic.t;
  a_role : role Atomic.t;
  a_ship : Ship.t option;  (** [Some] iff this doc was created as a follower *)
  a_migc : mig_counters;  (** shared with every other actor of this server *)
  mutable a_mpool : Mig_survival.tracked list option;
      (** the document's standing-query pool for migration blast-radius
          accounting; built lazily on the first migrate batch; only the
          actor thread touches it *)
}

let encoded_label (view : Core.Session.t) n =
  let l_bytes, l_bits = view.Core.Session.label_encoded n in
  { P.l_bytes; l_bits }

let publish_of (view : Core.Session.t) pack durable inc =
  let st = view.Core.Session.stats () in
  let j = Durable_session.journal durable in
  {
    p_qsnap = Axis_inc.snapshot inc;
    p_qtime = Unix.gettimeofday ();
    p_scheme = view.Core.Session.scheme_name;
    p_pack = pack;
    p_root = encoded_label view (Tree.root view.Core.Session.doc);
    p_stats =
      {
        P.st_nodes = Core.Session.node_count view;
        st_total_bits = Core.Session.total_bits view;
        st_max_bits = Core.Session.max_bits view;
        st_inserts = st.Core.Stats.s_inserts;
        st_deletes = st.Core.Stats.s_deletes;
        st_relabelled = st.Core.Stats.s_relabelled;
        st_overflow = st.Core.Stats.s_overflow;
        st_epoch = Journal.epoch j;
        st_records = Journal.appended j;
        st_log_bytes = Journal.log_size j;
        st_offset = (Journal.durable_position j).Journal.p_offset;
        st_lag = [];
      };
  }

(* Validate before applying: the durable view journals each operation
   before the tree mutates, so an op the tree would reject must be turned
   away here — otherwise the journal records a mutation that never
   happened and recovery replays a lie. *)
let check_op cfg resolver (op : Oplog.op) =
  let resolve l =
    try Journal.Resolver.resolve resolver l
    with Journal.Replay_error msg -> raise (Reject (P.Unknown_label, msg))
  in
  let frag_ok f =
    let size = Tree.frag_size f in
    if size > cfg.max_frag_nodes then
      reject P.Bad_request "fragment of %d nodes exceeds the %d-node limit" size
        cfg.max_frag_nodes
  in
  match op with
  | Oplog.Insert_first (l, f) | Oplog.Insert_last (l, f) ->
    let n = resolve l in
    if n.Tree.kind <> Tree.Element then
      reject P.Bad_request "cannot insert children under an attribute node";
    frag_ok f
  | Oplog.Insert_before (l, f) | Oplog.Insert_after (l, f) ->
    let n = resolve l in
    (match n.Tree.parent with
    | None -> reject P.Bad_request "cannot insert a sibling of the root"
    | Some _ -> ());
    frag_ok f
  | Oplog.Delete l -> (
    let n = resolve l in
    match n.Tree.parent with
    | None -> reject P.Bad_request "cannot delete the root"
    | Some _ -> ())
  | Oplog.Replace_value (l, _) | Oplog.Rename (l, _) -> ignore (resolve l)
  | Oplog.Mark _ ->
    (* the dedup watermark is journal bookkeeping the server writes itself;
       a client has no business smuggling one into a batch *)
    reject P.Bad_request "reserved opcode in update batch"

let exec_update cfg a ops =
  let applied = ref 0 in
  let fresh = ref [] in
  let before = a.a_view.Core.Session.stats () in
  try
    List.iter
      (fun op ->
        check_op cfg a.a_resolver op;
        (match Journal.Resolver.apply a.a_resolver op with
        | Some n -> fresh := encoded_label a.a_view n :: !fresh
        | None -> ());
        incr applied)
      ops;
    (* A scheme that renumbered existing nodes (code overflow, neighbour
       reassignment) silently broke every label the client holds; say so,
       so caches get refreshed instead of dying on Unknown_label. *)
    let now = a.a_view.Core.Session.stats () in
    let up_relabelled =
      now.Core.Stats.s_relabelled > before.Core.Stats.s_relabelled
      || now.Core.Stats.s_overflow > before.Core.Stats.s_overflow
    in
    P.Updated
      { up_applied = !applied; up_fresh = List.rev !fresh; up_relabelled; up_dedup = false }
  with
  | Reject (e, msg) ->
    (* ops before the rejected one are applied and journaled; the reply
       names the offender so the client can account for the prefix *)
    P.Err (e, Printf.sprintf "op %d: %s" (!applied + 1) msg)
  | Journal.Replay_error msg ->
    a.a_resolver <- Journal.Resolver.create a.a_view;
    P.Err (P.Unknown_label, msg)

(* ---- the exactly-once dedup window ----------------------------------

   The legacy twin of the event-loop core's window: per document, the
   last mutation of up to [dedup_window] identified clients. Only the
   actor thread reads or writes it, so no lock. A fresh batch journals an
   {!Oplog.Mark} right after its ops so the window survives recovery and
   ships to replicas with the ops it covers; checkpoints (explicit or the
   automatic every-N kind, which shows up as an epoch change) absorb the
   log, so the live watermarks are rewritten into the fresh epoch. *)

let dedup_touch a e =
  a.a_dedup_tick <- a.a_dedup_tick + 1;
  e.de_tick <- a.a_dedup_tick

let dedup_store cfg a client e =
  if
    (not (Hashtbl.mem a.a_dedup client))
    && Hashtbl.length a.a_dedup >= cfg.dedup_window
  then begin
    (* evict the least-recently-touched client; the window is small, so a
       scan on overflow beats maintaining an order structure on every hit *)
    let victim = ref None in
    Hashtbl.iter
      (fun c e ->
        match !victim with
        | Some (_, tick) when tick <= e.de_tick -> ()
        | _ -> victim := Some (c, e.de_tick))
      a.a_dedup;
    match !victim with Some (c, _) -> Hashtbl.remove a.a_dedup c | None -> ()
  end;
  Hashtbl.replace a.a_dedup client e

let mark_of_entry client e =
  let mk_err =
    match e.de_resp with P.Err (err, msg) -> Some (P.err_code err, msg) | _ -> None
  in
  Oplog.Mark { mk_client = client; mk_seq = e.de_seq; mk_applied = e.de_applied; mk_err }

(* a cached reply goes back flagged, so clients (and the torture harness)
   can tell a dedup hit from a fresh application *)
let flag_dedup = function
  | P.Updated { up_applied; up_fresh; up_relabelled; up_dedup = _ } ->
    P.Updated { up_applied; up_fresh; up_relabelled; up_dedup = true }
  | resp -> resp

(* rewrite every live watermark into the journal's current epoch *)
let rejournal_marks a =
  let j = Durable_session.journal a.a_durable in
  Hashtbl.iter (fun client e -> Journal.append j (mark_of_entry client e)) a.a_dedup

(* After [Durable_session.recover] the ops list is gone, but the live log
   is still on disk: scan it for Marks and rebuild the window. Fresh
   labels are not recoverable from a Mark, so a rebuilt hit answers with
   [up_fresh = []] and [up_relabelled = true] — the client must reseed. *)
let dedup_rebuild cfg a ~base =
  if cfg.dedup_window > 0 then
    match Journal.inspect ~base () with
    | exception Journal.Corrupt _ -> ()
    | _, ops, _ ->
      List.iter
        (function
          | Oplog.Mark { mk_client; mk_seq; mk_applied; mk_err } ->
            let de_resp =
              match mk_err with
              | Some (code, msg) -> (
                match P.err_of_code code with
                | Some e -> P.Err (e, msg)
                | None -> P.Err (P.Internal, msg))
              | None ->
                P.Updated
                  {
                    up_applied = mk_applied;
                    up_fresh = [];
                    up_relabelled = true;
                    up_dedup = false;
                  }
            in
            (* later Marks for the same client supersede earlier ones *)
            let e = { de_seq = mk_seq; de_resp; de_applied = mk_applied; de_tick = 0 } in
            dedup_touch a e;
            dedup_store cfg a mk_client e
          | _ -> ())
        ops

(* The mutation path the actor runs — updates and migration batches share
   it: answer retries from the window, shed stale sequence numbers, and
   journal a Mark behind every fresh batch that appended anything. *)
let exec_mutation cfg metrics a ~client ~seq exec =
  let dedup = client <> "" && cfg.dedup_window > 0 in
  match (if dedup then Hashtbl.find_opt a.a_dedup client else None) with
  | Some e when seq = e.de_seq ->
    dedup_touch a e;
    Metrics.record metrics ~key:"dedup/hit" ~ok:true ~ns:0;
    flag_dedup e.de_resp
  | Some e when seq < e.de_seq ->
    P.Err
      ( P.Bad_request,
        Printf.sprintf "stale sequence %d for client %S (last %d)" seq client e.de_seq )
  | _ ->
    let j = Durable_session.journal a.a_durable in
    let appended0 = Journal.appended j and epoch0 = Journal.epoch j in
    let resp = exec () in
    if dedup then begin
      (* for an errored batch the journalled prefix is what replays, so
         that is the applied count the Mark must carry *)
      let applied =
        match resp with
        | P.Updated { up_applied; _ } -> up_applied
        | _ -> Journal.appended j - appended0
      in
      let e = { de_seq = seq; de_resp = resp; de_applied = applied; de_tick = 0 } in
      dedup_touch a e;
      dedup_store cfg a client e;
      try
        if Journal.epoch j <> epoch0 then
          (* an automatic checkpoint swallowed the log mid-batch: the old
             Marks went with it, so rewrite the whole window (the fresh
             entry included) into the new epoch *)
          rejournal_marks a
        else if Journal.appended j > appended0 then
          Journal.append j (mark_of_entry client e)
      with Io.Io_error { op; reason; _ } -> cfg.log ("journal mark: " ^ op ^ ": " ^ reason)
    end;
    resp

let exec_update_dedup cfg metrics a ~client ~seq ops =
  exec_mutation cfg metrics a ~client ~seq (fun () -> exec_update cfg a ops)

(* ---- migration batches ----------------------------------------------

   The legacy twin of the event core's migrate path: resolve and compile
   the label-addressed operators on the actor thread, against the same
   resolver updates use, so the journal records exactly the primitives
   that ran. *)

let max_migrate_specs = 64
let max_wrap_targets = 32
let mpool_queries = 16

let doc_mpool a =
  match a.a_mpool with
  | Some tracked -> tracked
  | None ->
    let doc = a.a_view.Core.Session.doc in
    let seed = Hashtbl.hash a.a_doc in
    let src = Axis_inc.source (Axis_inc.snapshot a.a_inc) in
    let tracked = Mig_survival.track src (Mig_survival.pool ~seed ~count:mpool_queries doc) in
    a.a_mpool <- Some tracked;
    tracked

(* batch bounds are checked before anything resolves or journals, so a
   refused batch is always safe to resend smaller *)
let migrate_precheck specs =
  if List.length specs > max_migrate_specs then
    Some
      (Printf.sprintf "%d operators exceed the %d-per-batch limit" (List.length specs)
         max_migrate_specs)
  else
    List.find_map
      (function
        | Migrate.S_wrap (ls, _) when List.length ls > max_wrap_targets ->
          Some
            (Printf.sprintf "wrap of %d targets exceeds the %d-target limit"
               (List.length ls) max_wrap_targets)
        | _ -> None)
      specs

let exec_migrate_checked cfg metrics a specs =
  let tracked = doc_mpool a in
  let resolve l =
    try Journal.Resolver.resolve a.a_resolver l
    with Journal.Replay_error msg -> raise (Reject (P.Unknown_label, msg))
  in
  let applier =
    {
      Migrate.ap_session = a.a_view;
      ap_run =
        (fun o ->
          check_op cfg a.a_resolver o;
          Journal.Resolver.apply a.a_resolver o);
    }
  in
  let before = a.a_view.Core.Session.stats () in
  let j = Durable_session.journal a.a_durable in
  let bytes0 = Journal.log_size j in
  let prims = ref 0 in
  let opno = ref 0 in
  let resp =
    try
      List.iter
        (fun spec ->
          incr opno;
          prims := !prims + Migrate.apply applier (Migrate.op_of_spec ~resolve spec))
        specs;
      let now = a.a_view.Core.Session.stats () in
      let up_relabelled =
        now.Core.Stats.s_relabelled > before.Core.Stats.s_relabelled
        || now.Core.Stats.s_overflow > before.Core.Stats.s_overflow
      in
      P.Updated { up_applied = !prims; up_fresh = []; up_relabelled; up_dedup = false }
    with
    | Migrate.Migrate_error msg ->
      (* operators before [opno] are applied and journaled; same prefix
         contract as a partially applied update batch *)
      P.Err (P.Bad_request, Printf.sprintf "operator %d: %s" !opno msg)
    | Reject (e, msg) -> P.Err (e, Printf.sprintf "operator %d: %s" !opno msg)
    | Journal.Replay_error msg ->
      a.a_resolver <- Journal.Resolver.create a.a_view;
      P.Err (P.Unknown_label, msg)
  in
  (* blast-radius accounting covers whatever prefix actually ran *)
  let now = a.a_view.Core.Session.stats () in
  let tally = Mig_survival.tally () in
  let s0 = Metrics.monotonic_ns () in
  let _, broken =
    Mig_survival.step ~check:cfg.paranoid ~tally
      (Axis_inc.source (Axis_inc.snapshot a.a_inc))
      tracked
  in
  Metrics.record metrics ~key:"migrate/survival" ~ok:true
    ~ns:(Int64.to_int (Int64.sub (Metrics.monotonic_ns ()) s0));
  let bump counter v =
    ignore (Atomic.fetch_and_add counter v);
    Atomic.get counter
  in
  Metrics.gauge metrics ~key:"migrate/survival_evaluated"
    ~value:(bump a.a_migc.mc_evaluated tally.Mig_survival.evaluated);
  Metrics.gauge metrics ~key:"migrate/survival_skipped"
    ~value:(bump a.a_migc.mc_skipped tally.Mig_survival.skipped);
  if cfg.paranoid then
    Metrics.gauge metrics ~key:"migrate/survival_mismatch"
      ~value:(bump a.a_migc.mc_mismatch tally.Mig_survival.mismatches);
  Metrics.gauge metrics ~key:"migrate/relabelled"
    ~value:
      (bump a.a_migc.mc_relabelled
         (now.Core.Stats.s_relabelled - before.Core.Stats.s_relabelled));
  Metrics.gauge metrics ~key:"migrate/journal_bytes"
    ~value:(bump a.a_migc.mc_journal_bytes (Journal.log_size j - bytes0));
  Metrics.gauge metrics ~key:"migrate/queries_broken" ~value:(bump a.a_migc.mc_broken broken);
  resp

let exec_migrate cfg metrics a specs =
  match migrate_precheck specs with
  | Some msg -> P.Err (P.Bad_request, msg)
  | None -> exec_migrate_checked cfg metrics a specs

let exec_migrate_dedup cfg metrics a ~client ~seq specs =
  exec_mutation cfg metrics a ~client ~seq (fun () -> exec_migrate cfg metrics a specs)

let exec_labels a limit =
  let limit = max 0 (min limit 20_000) in
  let acc = ref [] in
  let count = ref 0 in
  (try
     Tree.iter_preorder
       (fun n ->
         if !count >= limit then raise Exit;
         acc := (encoded_label a.a_view n, n.Tree.kind, n.Tree.name) :: !acc;
         incr count)
       a.a_view.Core.Session.doc
   with Exit -> ());
  P.Labels_r (List.rev !acc)

let exec_checkpoint cfg a =
  Durable_session.checkpoint a.a_durable;
  (* the checkpoint absorbed the log — and the Marks riding in it — into
     the snapshot, so rewrite the live watermarks into the fresh epoch *)
  (try rejournal_marks a
   with Io.Io_error { op; reason; _ } -> cfg.log ("rejournal marks: " ^ op ^ ": " ^ reason));
  P.Checkpointed (Journal.epoch (Durable_session.journal a.a_durable))

(* ---- replication jobs ----------------------------------------------

   Served by the same actor thread as updates and checkpoints, so a
   shipped batch can never interleave with an epoch change: within one
   job the journal's epoch and durable offset are frozen. *)

let max_ship_batch = 1 lsl 20

let exec_subscribe a =
  let j = Durable_session.journal a.a_durable in
  (* flush so the offset we hand out is entirely shippable *)
  Journal.flush j;
  let pos = Journal.durable_position j in
  P.Sub_ok
    {
      su_scheme = Journal.scheme_name j;
      su_epoch = pos.Journal.p_epoch;
      su_log_start = Journal.log_start j;
      su_offset = pos.Journal.p_offset;
      su_snap_bytes = String.length (Journal.snapshot_bytes j);
    }

let exec_replicate a ~epoch ~snap ~offset ~limit =
  let j = Durable_session.journal a.a_durable in
  let limit = max 1 (min limit max_ship_batch) in
  if epoch <> Journal.epoch j then
    P.Err
      ( P.Stale_pos,
        Printf.sprintf "epoch %d is over (current epoch %d)" epoch (Journal.epoch j) )
  else if snap then begin
    let s = Journal.snapshot_bytes j in
    let total = String.length s in
    if offset < 0 || offset > total then
      P.Err (P.Bad_request, Printf.sprintf "snapshot offset %d outside [0, %d]" offset total)
    else
      P.Shipped
        {
          sh_epoch = epoch;
          sh_offset = offset;
          sh_total = total;
          sh_data = String.sub s offset (min limit (total - offset));
        }
  end
  else begin
    Journal.flush j;
    match Journal.ship j ~from:offset ~limit with
    | data, durable_end ->
      P.Shipped { sh_epoch = epoch; sh_offset = offset; sh_total = durable_end; sh_data = data }
    | exception Journal.Corrupt msg -> P.Err (P.Stale_pos, msg)
  end

let exec_apply a ~epoch ~offset ~data =
  match a.a_ship with
  | None -> P.Err (P.Bad_request, a.a_doc ^ " is not a follower")
  | Some f -> (
    match Ship.apply f ~epoch ~offset data with
    | n -> P.Updated { up_applied = n; up_fresh = []; up_relabelled = false; up_dedup = false }
    | exception Ship.Out_of_sync msg -> P.Err (P.Stale_pos, msg))

let exec_promote a =
  Atomic.set a.a_role Primary;
  let pos =
    match a.a_ship with
    | Some f -> Ship.position f
    | None -> Journal.position (Durable_session.journal a.a_durable)
  in
  P.Promoted { pr_epoch = pos.Journal.p_epoch; pr_offset = pos.Journal.p_offset }

let actor_loop cfg metrics a =
  let rec next () =
    Mutex.lock a.a_mu;
    let rec take () =
      if a.a_abandoned then begin
        (* simulated kill: bounce whatever is queued, touch nothing *)
        Queue.iter
          (fun (_, mb) -> Mailbox.put mb (P.Err (P.Shutting_down, "server aborted")))
          a.a_queue;
        Queue.clear a.a_queue;
        Mutex.unlock a.a_mu;
        None
      end
      else if not (Queue.is_empty a.a_queue) then begin
        let job = Queue.pop a.a_queue in
        Condition.signal a.a_slot;
        Mutex.unlock a.a_mu;
        Some job
      end
      else if a.a_closed then begin
        Mutex.unlock a.a_mu;
        (* graceful exit: absorb the log into a snapshot, then close *)
        (try Durable_session.checkpoint a.a_durable with Io.Io_error _ -> ());
        (try Durable_session.close a.a_durable with Io.Io_error _ -> ());
        None
      end
      else begin
        Condition.wait a.a_nonempty a.a_mu;
        take ()
      end
    in
    match take () with
    | None -> ()
    | Some (job, mb) ->
      let resp =
        try
          match job with
          | J_update { uj_client; uj_seq; uj_ops } ->
            if Atomic.get a.a_role = Follower then
              P.Err (P.Not_primary, a.a_doc ^ " is a follower here")
            else exec_update_dedup cfg metrics a ~client:uj_client ~seq:uj_seq uj_ops
          | J_migrate { mj_client; mj_seq; mj_specs } ->
            if Atomic.get a.a_role = Follower then
              P.Err (P.Not_primary, a.a_doc ^ " is a follower here")
            else exec_migrate_dedup cfg metrics a ~client:mj_client ~seq:mj_seq mj_specs
          | J_labels limit -> exec_labels a limit
          | J_checkpoint -> exec_checkpoint cfg a
          | J_subscribe -> exec_subscribe a
          | J_replicate { rq_epoch; rq_snap; rq_offset; rq_limit } ->
            exec_replicate a ~epoch:rq_epoch ~snap:rq_snap ~offset:rq_offset ~limit:rq_limit
          | J_apply { ap_epoch; ap_offset; ap_data } ->
            exec_apply a ~epoch:ap_epoch ~offset:ap_offset ~data:ap_data
          | J_promote -> exec_promote a
        with
        | Io.Io_error { op; reason; _ } -> P.Err (P.Internal, op ^ ": " ^ reason)
        | e -> P.Err (P.Internal, Printexc.to_string e)
      in
      Atomic.set a.a_pub (publish_of a.a_view a.a_pack a.a_durable a.a_inc);
      Mailbox.put mb resp;
      next ()
  in
  next ()

(* Enqueue under the queue cap — a full queue blocks the connection
   thread, which stops reading its socket: backpressure all the way to
   the client's TCP window. Mutations stop queueing behind that wall once
   [shed_waiters] threads are already blocked: they get a typed
   [Overloaded] refusal instead, before anything validates or journals,
   so a shed request is always safe to retry. *)
let submit cfg metrics a job =
  let mb = Mailbox.create () in
  let sheddable = match job with J_update _ | J_migrate _ -> true | _ -> false in
  Mutex.lock a.a_mu;
  let rec push () =
    if a.a_closed || a.a_abandoned then begin
      Mutex.unlock a.a_mu;
      None
    end
    else if Queue.length a.a_queue >= a.a_queue_cap then
      if sheddable && cfg.shed_waiters > 0 && a.a_waiters >= cfg.shed_waiters then begin
        let waiters = a.a_waiters in
        Mutex.unlock a.a_mu;
        Metrics.record metrics ~key:"shed/update" ~ok:false ~ns:0;
        Metrics.gauge metrics ~key:"shed/waiters" ~value:waiters;
        Some
          (P.Err
             ( P.Overloaded,
               Printf.sprintf "%d submitters waiting on %s (bound %d)" waiters a.a_doc
                 cfg.shed_waiters ))
      end
      else begin
        a.a_waiters <- a.a_waiters + 1;
        Condition.wait a.a_slot a.a_mu;
        a.a_waiters <- a.a_waiters - 1;
        push ()
      end
    else begin
      Queue.push (job, mb) a.a_queue;
      Condition.signal a.a_nonempty;
      Mutex.unlock a.a_mu;
      Some (Mailbox.take mb)
    end
  in
  match push () with
  | Some resp -> resp
  | None -> P.Err (P.Shutting_down, "document actor is closing")

(* ---- the server ---------------------------------------------------- *)

type t = {
  cfg : config;
  lfd : Unix.file_descr;
  t_port : int;
  metrics : Metrics.t;
  reg_mu : Mutex.t;
  actors : (string, actor) Hashtbl.t;
  conns_mu : Mutex.t;
  conns_cond : Condition.t;
  mutable live_conns : Unix.file_descr list;
  mutable n_conns : int;
  mutable served : int;
  closing : bool Atomic.t;
  stop_r : Unix.file_descr;
  stop_w : Unix.file_descr;
  mutable accept_thread : Thread.t;
  mutable stopped : bool;
  acks_mu : Mutex.t;
  acks : (string * string, int * int) Hashtbl.t;
      (** (doc, replica) -> last acknowledged (epoch, offset) *)
  migc : mig_counters;  (** cumulative migration blast radius, all docs *)
  mutable mgr_thread : Thread.t option;  (** the replication manager, on replicas *)
}

type summary = { s_conns : int; s_docs : int }

let port t = t.t_port
let metrics t = t.metrics

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let doc_name_ok name =
  name <> ""
  && String.length name <= 128
  && String.for_all
       (fun ch ->
         (ch >= 'a' && ch <= 'z')
         || (ch >= 'A' && ch <= 'Z')
         || (ch >= '0' && ch <= '9')
         || ch = '-' || ch = '_' || ch = '.')
       name

(* ---- opening documents --------------------------------------------

   Serialized under [reg_mu]: opens are rare and involve disk IO, and a
   single winner per document name is exactly the ownership invariant the
   actor model needs. *)

(* Construct and register an actor for a live durable session. Caller
   holds [reg_mu]; the name must be unregistered. [rebuild] scans the
   recovered log for dedup Marks before the actor thread starts — the
   only moment the window can be touched without racing it. *)
let spawn_actor t name ~durable ~role ~ship ~rebuild =
  let view = Durable_session.session durable in
  let pack =
    match Repro_schemes.Registry.find view.Core.Session.scheme_name with
    | Some p -> p
    | None ->
      reject P.Internal "journal scheme %S is not registered" view.Core.Session.scheme_name
  in
  let inc = Axis_inc.create ~clock:Metrics.monotonic_ns view.Core.Session.doc in
  let a =
    {
      a_doc = name;
      a_mu = Mutex.create ();
      a_nonempty = Condition.create ();
      a_slot = Condition.create ();
      a_queue = Queue.create ();
      a_queue_cap = 128;
      a_closed = false;
      a_abandoned = false;
      a_waiters = 0;
      a_thread = Thread.self ();
      a_durable = durable;
      a_view = view;
      a_pack = pack;
      a_inc = inc;
      a_qcache = Query_eval.cache ();
      a_resolver = Journal.Resolver.create view;
      a_dedup = Hashtbl.create 16;
      a_dedup_tick = 0;
      a_pub = Atomic.make (publish_of view pack durable inc);
      a_role = Atomic.make role;
      a_ship = ship;
      a_migc = t.migc;
      a_mpool = None;
    }
  in
  if rebuild then
    dedup_rebuild t.cfg a ~base:(Filename.concat t.cfg.root (name ^ ".journal"));
  a.a_thread <- Thread.create (actor_loop t.cfg t.metrics) a;
  Hashtbl.add t.actors name a;
  a

let open_doc t name scheme nodes seed =
  Mutex.lock t.reg_mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.reg_mu)
    (fun () ->
      match Hashtbl.find_opt t.actors name with
      | Some a ->
        let pub = Atomic.get a.a_pub in
        P.Opened
          {
            ok_scheme = pub.p_scheme;
            ok_root = pub.p_root;
            ok_nodes = pub.p_stats.P.st_nodes;
            ok_fresh = false;
          }
      | None ->
        if Atomic.get t.closing then reject P.Shutting_down "server is draining";
        if not (doc_name_ok name) then
          reject P.Bad_request "document names are [A-Za-z0-9._-]{1,128}";
        let base = Filename.concat t.cfg.root (name ^ ".journal") in
        let durable, fresh =
          if Sys.file_exists base then (
            match
              Durable_session.recover ~fsync_every:t.cfg.fsync_every
                ?checkpoint_every:t.cfg.checkpoint_every ~base ()
            with
            | d, _recovery -> (d, false)
            | exception Journal.Corrupt msg -> reject P.Internal "recovery: %s" msg)
          else
            match Repro_schemes.Registry.find scheme with
            | None -> reject P.Unknown_scheme "no scheme named %S" scheme
            | Some pack ->
              let nodes = max 2 (min nodes t.cfg.max_doc_nodes) in
              let doc =
                Repro_workload.Docgen.generate ~seed
                  { Repro_workload.Docgen.default_shape with target_nodes = nodes }
              in
              let session = Core.Session.make pack doc in
              ( Durable_session.create ~fsync_every:t.cfg.fsync_every
                  ?checkpoint_every:t.cfg.checkpoint_every ~base session,
                true )
        in
        let a = spawn_actor t name ~durable ~role:Primary ~ship:None ~rebuild:(not fresh) in
        let pub = Atomic.get a.a_pub in
        P.Opened
          {
            ok_scheme = pub.p_scheme;
            ok_root = pub.p_root;
            ok_nodes = pub.p_stats.P.st_nodes;
            ok_fresh = fresh;
          })

let find_actor t doc =
  Mutex.lock t.reg_mu;
  let a = Hashtbl.find_opt t.actors doc in
  Mutex.unlock t.reg_mu;
  a

(* ---- concurrent reads ---------------------------------------------- *)

let eval_query pack (pred : P.pred) =
  let module S = (val pack : Core.Scheme.S) in
  let dec (l : P.label) =
    try S.decode_label l.P.l_bytes l.P.l_bits
    with e -> reject P.Bad_request "undecodable label: %s" (Printexc.to_string e)
  in
  let binary f a b =
    match f with
    | None -> P.Unsupported
    | Some f ->
      let a = dec a in
      P.Bool (f a (dec b))
  in
  match pred with
  | P.Order (a, b) ->
    let a = dec a in
    P.Int (compare (S.compare_order a (dec b)) 0)
  | P.Ancestor (a, b) -> binary S.is_ancestor a b
  | P.Parent (a, b) -> binary S.is_parent a b
  | P.Sibling (a, b) -> binary S.is_sibling a b
  | P.Level a -> (
    match S.level_of with None -> P.Unsupported | Some f -> P.Int (f (dec a)))

(* ---- dispatch ------------------------------------------------------ *)

let doc_of_req = function
  | P.Ping | P.Metrics | P.Docs -> None
  | P.Open { o_doc = d; _ }
  | P.Update { u_doc = d; _ }
  | P.Migrate { mg_doc = d; _ }
  | P.Query { q_doc = d; _ }
  | P.Xpath { xq_doc = d; _ }
  | P.Twig { tq_doc = d; _ }
  | P.Stats d
  | P.Labels { lb_doc = d; _ }
  | P.Checkpoint d
  | P.Subscribe { sb_doc = d; _ }
  | P.Replicate { rp_doc = d; _ }
  | P.Ack { ak_doc = d; _ }
  | P.Promote d ->
    Some d

(* Lag of one acknowledged position against the published durable offset:
   same epoch, the plain byte gap; a past epoch, the whole current log
   (the replica must re-bootstrap, so everything durable is outstanding). *)
let lag_of pub (epoch, offset) =
  let st = pub.p_stats in
  if epoch = st.P.st_epoch then max 0 (st.P.st_offset - offset) else st.P.st_offset

let doc_lags t doc pub =
  Mutex.lock t.acks_mu;
  let lags =
    Hashtbl.fold
      (fun (d, replica) pos acc -> if d = doc then (replica, lag_of pub pos) :: acc else acc)
      t.acks []
  in
  Mutex.unlock t.acks_mu;
  List.sort compare lags

let dispatch t req =
  let with_pub doc f =
    match find_actor t doc with
    | None -> P.Err (P.Unknown_doc, doc)
    | Some a -> f (Atomic.get a.a_pub)
  in
  let with_actor doc job =
    match find_actor t doc with
    | None -> P.Err (P.Unknown_doc, doc)
    | Some a -> submit t.cfg t.metrics a job
  in
  (* wire queries run on the connection thread, against the published
     snapshot+index pair — they never queue behind the actor *)
  let with_query doc query limit =
    match find_actor t doc with
    | None -> P.Err (P.Unknown_doc, doc)
    | Some a ->
      let pub = Atomic.get a.a_pub in
      Query_eval.serve t.metrics ~paranoid:t.cfg.paranoid
        ~doc_rev:(Tree.revision a.a_view.Core.Session.doc)
        ~inc:a.a_inc ~pub_time:pub.p_qtime ~snap:pub.p_qsnap ~cache:a.a_qcache query ~limit
  in
  match req with
  | P.Ping -> P.Pong P.magic
  | P.Metrics -> P.Metrics_r (Metrics.snapshot t.metrics)
  | P.Open { o_doc; o_scheme; o_nodes; o_seed } -> open_doc t o_doc o_scheme o_nodes o_seed
  | P.Query { q_doc; q_pred } ->
    with_pub q_doc (fun pub -> P.Answer (eval_query pub.p_pack q_pred))
  | P.Xpath { xq_doc; xq_src; xq_limit } ->
    with_query xq_doc (Query_eval.Q_xpath xq_src) xq_limit
  | P.Twig { tq_doc; tq_src; tq_limit } ->
    with_query tq_doc (Query_eval.Q_twig tq_src) tq_limit
  | P.Stats doc ->
    with_pub doc (fun pub -> P.Stats_r { pub.p_stats with P.st_lag = doc_lags t doc pub })
  | P.Update { u_doc; u_client; u_seq; u_ops } ->
    with_actor u_doc (J_update { uj_client = u_client; uj_seq = u_seq; uj_ops = u_ops })
  | P.Migrate { mg_doc; mg_client; mg_seq; mg_specs } ->
    with_actor mg_doc (J_migrate { mj_client = mg_client; mj_seq = mg_seq; mj_specs = mg_specs })
  | P.Labels { lb_doc; lb_limit } -> with_actor lb_doc (J_labels lb_limit)
  | P.Checkpoint doc -> with_actor doc J_checkpoint
  | P.Subscribe { sb_doc; sb_replica } -> (
    match with_actor sb_doc J_subscribe with
    | P.Sub_ok _ as reply ->
      (* a freshly (re-)subscribed replica has acknowledged nothing of the
         epoch it is about to pull — record it so lag is visible during
         bootstrap, not only after the first ack *)
      Mutex.lock t.acks_mu;
      Hashtbl.replace t.acks (sb_doc, sb_replica) (0, 0);
      Mutex.unlock t.acks_mu;
      reply
    | reply -> reply)
  | P.Replicate { rp_doc; rp_replica = _; rp_epoch; rp_snap; rp_offset; rp_limit } ->
    with_actor rp_doc
      (J_replicate { rq_epoch = rp_epoch; rq_snap = rp_snap; rq_offset = rp_offset; rq_limit = rp_limit })
  | P.Ack { ak_doc; ak_replica; ak_epoch; ak_offset } -> (
    match find_actor t ak_doc with
    | None -> P.Err (P.Unknown_doc, ak_doc)
    | Some a ->
      Mutex.lock t.acks_mu;
      Hashtbl.replace t.acks (ak_doc, ak_replica) (ak_epoch, ak_offset);
      Mutex.unlock t.acks_mu;
      let lag = lag_of (Atomic.get a.a_pub) (ak_epoch, ak_offset) in
      Metrics.record t.metrics ~key:(Printf.sprintf "repl/%s/lag" ak_doc) ~ok:true ~ns:lag;
      P.Acked { ac_lag = lag })
  | P.Promote doc -> with_actor doc J_promote
  | P.Docs ->
    Mutex.lock t.reg_mu;
    let docs =
      Hashtbl.fold
        (fun name a acc ->
          ((name, (Atomic.get a.a_pub).p_scheme, Atomic.get a.a_role = Primary)) :: acc)
        t.actors []
    in
    Mutex.unlock t.reg_mu;
    P.Docs_r (List.sort compare docs)

(* ---- the replication manager ---------------------------------------

   Runs on a replica server ([config.replica_of]). A pull loop: list the
   upstream's documents, bootstrap a follower actor for each new one
   (snapshot chunks, then {!Ship.bootstrap}), then pump durable log
   records and acknowledge each locally-durable batch. Stale positions
   (the upstream checkpointed into a new epoch) tear the follower down
   and re-bootstrap from the fresh checkpoint — catch-up always starts
   from the latest epoch snapshot plus log offset, never mid-epoch. *)

exception Mgr_drop of string  (** transport trouble: drop the connection, retry *)

exception Mgr_resync  (** stale position: re-bootstrap this document *)

let mgr_chunk = 1 lsl 18

let mgr_request c req =
  match Server_client.request c req with
  | Ok (P.Err (P.Stale_pos, _)) -> raise Mgr_resync
  | Ok resp -> resp
  | Error reason -> raise (Mgr_drop reason)

(* Tear a follower actor down without checkpointing: the local journal
   stays as-is on disk (it may be promoted later); the replacement will
   overwrite it when it re-bootstraps. *)
let remove_follower t a =
  Mutex.lock t.reg_mu;
  Hashtbl.remove t.actors a.a_doc;
  Mutex.unlock t.reg_mu;
  Mutex.lock a.a_mu;
  a.a_closed <- true;
  a.a_abandoned <- true;
  Condition.broadcast a.a_nonempty;
  Condition.broadcast a.a_slot;
  Mutex.unlock a.a_mu;
  Thread.join a.a_thread;
  Axis_inc.detach a.a_inc;
  try Durable_session.close a.a_durable with Io.Io_error _ -> ()

let bootstrap_follower t c doc =
  match mgr_request c (P.Subscribe { sb_doc = doc; sb_replica = t.cfg.replica_name }) with
  | P.Sub_ok { su_scheme = _; su_epoch; su_log_start; su_offset = _; su_snap_bytes } -> (
    let buf = Buffer.create (max 64 su_snap_bytes) in
    let rec pull () =
      if Buffer.length buf < su_snap_bytes then (
        match
          mgr_request c
            (P.Replicate
               {
                 rp_doc = doc;
                 rp_replica = t.cfg.replica_name;
                 rp_epoch = su_epoch;
                 rp_snap = true;
                 rp_offset = Buffer.length buf;
                 rp_limit = mgr_chunk;
               })
        with
        | P.Shipped { sh_epoch = _; sh_offset; sh_total; sh_data } ->
          if sh_offset <> Buffer.length buf || sh_total <> su_snap_bytes || sh_data = "" then
            raise Mgr_resync;
          Buffer.add_string buf sh_data;
          pull ()
        | _ -> raise (Mgr_drop "unexpected reply to a snapshot fetch"))
    in
    pull ();
    let base = Filename.concat t.cfg.root (doc ^ ".journal") in
    let pos = { Journal.p_epoch = su_epoch; p_offset = su_log_start } in
    match
      Ship.bootstrap ~fsync_every:t.cfg.fsync_every ?checkpoint_every:t.cfg.checkpoint_every
        ~base ~snapshot:(Buffer.contents buf) ~pos ()
    with
    | f ->
      Mutex.lock t.reg_mu;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.reg_mu)
        (fun () ->
          if Hashtbl.mem t.actors doc then raise Mgr_resync;
          t.cfg.log (Printf.sprintf "replication: following %s from %d:%d" doc su_epoch su_log_start);
          spawn_actor t doc ~durable:(Ship.durable f) ~role:Follower ~ship:(Some f)
            ~rebuild:false)
    | exception Ship.Out_of_sync msg -> raise (Mgr_drop ("bootstrap " ^ doc ^ ": " ^ msg)))
  | P.Err (P.Shutting_down, _) -> raise (Mgr_drop "upstream is draining")
  | _ -> raise (Mgr_drop "unexpected reply to subscribe")

(* Acknowledge [pos] upstream unless it is exactly what we last acked for
   this document. The dedup matters beyond chatter: after an upstream
   checkpoint the primary's ack table holds our position in the *old*
   epoch (reported as full lag), and the new epoch's log may stay empty —
   the caught-up ack below is what brings the published lag back to 0. *)
let ack_position t c acked doc (pos : Journal.position) =
  if Hashtbl.find_opt acked doc <> Some pos then
    match
      mgr_request c
        (P.Ack
           {
             ak_doc = doc;
             ak_replica = t.cfg.replica_name;
             ak_epoch = pos.Journal.p_epoch;
             ak_offset = pos.Journal.p_offset;
           })
    with
    | P.Acked _ -> Hashtbl.replace acked doc pos
    | _ -> ()

let pump_follower t c acked a =
  match a.a_ship with
  | None -> ()
  | Some f ->
    let rec go budget =
      if budget > 0 && Atomic.get a.a_role = Follower && not (Atomic.get t.closing) then begin
        let pos = Ship.position f in
        match
          mgr_request c
            (P.Replicate
               {
                 rp_doc = a.a_doc;
                 rp_replica = t.cfg.replica_name;
                 rp_epoch = pos.Journal.p_epoch;
                 rp_snap = false;
                 rp_offset = pos.Journal.p_offset;
                 rp_limit = mgr_chunk;
               })
        with
        | P.Shipped { sh_data = ""; _ } -> ack_position t c acked a.a_doc pos
        | P.Shipped { sh_epoch; sh_offset; sh_total = _; sh_data } -> (
          match
            submit t.cfg t.metrics a
              (J_apply { ap_epoch = sh_epoch; ap_offset = sh_offset; ap_data = sh_data })
          with
          | P.Updated _ ->
            ack_position t c acked a.a_doc (Ship.position f);
            go (budget - 1)
          | P.Err (P.Stale_pos, _) -> raise Mgr_resync
          | P.Err (P.Shutting_down, _) -> ()
          | resp ->
            raise
              (Mgr_drop
                 (Printf.sprintf "apply on %s failed: %s" a.a_doc
                    (match resp with P.Err (e, m) -> P.err_name e ^ " " ^ m | _ -> "unexpected reply"))))
        | P.Err (P.Unknown_doc, _) -> ()  (* upstream dropped it; next Docs pass decides *)
        | _ -> raise (Mgr_drop "unexpected reply to replicate")
      end
    in
    go 64

let manager_loop t (host, port) =
  let conn = ref None in
  let acked = Hashtbl.create 16 in
  let drop () =
    (match !conn with Some c -> (try Server_client.close c with _ -> ()) | None -> ());
    conn := None
  in
  let tick () =
    let c =
      match !conn with
      | Some c -> Some c
      | None -> (
        match Server_client.connect ~timeout:t.cfg.peer_timeout ~host ~port () with
        | c ->
          conn := Some c;
          Some c
        | exception Io.Io_error _ -> None)
    in
    match c with
    | None -> ()
    | Some c -> (
      try
        match mgr_request c P.Docs with
        | P.Docs_r docs ->
          List.iter
            (fun (doc, _scheme, primary) ->
              if primary && not (Atomic.get t.closing) then begin
                match find_actor t doc with
                | Some a when Option.is_some a.a_ship -> (
                  try pump_follower t c acked a
                  with Mgr_resync ->
                    t.cfg.log ("replication: re-bootstrapping " ^ doc);
                    Hashtbl.remove acked doc;
                    remove_follower t a)
                | Some _ -> ()  (* a local primary shadows the name; leave it alone *)
                | None -> (
                  Hashtbl.remove acked doc;
                  match bootstrap_follower t c doc with
                  | a -> (
                    try pump_follower t c acked a
                    with Mgr_resync -> remove_follower t a)
                  | exception Mgr_resync -> ())
              end)
            docs
        | _ -> raise (Mgr_drop "unexpected reply to docs")
      with Mgr_drop reason ->
        t.cfg.log ("replication: " ^ reason);
        drop ())
  in
  let rec sleep dt =
    if dt > 0. && not (Atomic.get t.closing) then begin
      Thread.delay (min dt 0.05);
      sleep (dt -. 0.05)
    end
  in
  while not (Atomic.get t.closing) do
    tick ();
    sleep t.cfg.poll_interval
  done;
  drop ()

(* ---- connections --------------------------------------------------- *)

let ns_since t0 =
  let dt = Unix.gettimeofday () -. t0 in
  if dt <= 0. then 0 else int_of_float (dt *. 1e9)

let handle_conn t fd =
  (try
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.cfg.recv_timeout;
     Unix.setsockopt_float fd Unix.SO_SNDTIMEO t.cfg.send_timeout
   with Unix.Unix_error _ -> ());
  let reader = Wire.reader t.cfg.sock fd in
  let send resp =
    match Wire.send_frame t.cfg.sock fd (P.encode_resp resp) with
    | () -> true
    | exception Io.Io_error { reason; _ } ->
      t.cfg.log ("conn send: " ^ reason);
      false
  in
  let record ?doc cls ~ok ~ns =
    Metrics.record t.metrics ~key:("req/" ^ cls) ~ok ~ns;
    match doc with
    | Some d -> Metrics.record t.metrics ~key:(Printf.sprintf "doc/%s/%s" d cls) ~ok ~ns
    | None -> ()
  in
  let rec loop () =
    if not (Atomic.get t.closing) then
      match Wire.recv_frame reader with
      | Wire.Eof -> ()
      | Wire.Io_fail reason -> t.cfg.log ("conn recv: " ^ reason)
      | Wire.Bad reason ->
        (* a torn frame means the stream is out of sync: answer once so
           the client learns why, then hang up *)
        record "bad-frame" ~ok:false ~ns:0;
        ignore (send (P.Err (P.Bad_frame, reason)))
      | Wire.Frame payload -> (
        let t0 = Unix.gettimeofday () in
        match P.decode_req payload with
        | Error reason ->
          (* frame boundary held, only the payload is bad — the stream is
             still in sync, so reply and keep going *)
          record "bad-frame" ~ok:false ~ns:(ns_since t0);
          if send (P.Err (P.Bad_frame, reason)) then loop ()
        | Ok req ->
          let resp =
            try dispatch t req with
            | Reject (e, msg) -> P.Err (e, msg)
            | Io.Io_error { op; reason; _ } -> P.Err (P.Internal, op ^ ": " ^ reason)
            | e -> P.Err (P.Internal, Printexc.to_string e)
          in
          let ok = match resp with P.Err _ -> false | _ -> true in
          record ?doc:(doc_of_req req) (P.req_class req) ~ok ~ns:(ns_since t0);
          if send resp then loop ())
  in
  (try loop () with e -> t.cfg.log ("conn: " ^ Printexc.to_string e));
  try t.cfg.sock.Io.s_close fd with Io.Io_error _ -> ()

(* ---- accept loop, lifecycle ---------------------------------------- *)

let conn_acquire t =
  Mutex.lock t.conns_mu;
  let rec wait () =
    if Atomic.get t.closing then begin
      Mutex.unlock t.conns_mu;
      false
    end
    else if t.n_conns >= t.cfg.max_conns then begin
      Condition.wait t.conns_cond t.conns_mu;
      wait ()
    end
    else begin
      t.n_conns <- t.n_conns + 1;
      Mutex.unlock t.conns_mu;
      true
    end
  in
  wait ()

let conn_register t fd =
  Mutex.lock t.conns_mu;
  t.live_conns <- fd :: t.live_conns;
  t.served <- t.served + 1;
  Mutex.unlock t.conns_mu

let conn_finish ?fd t =
  Mutex.lock t.conns_mu;
  (match fd with
  | Some fd -> t.live_conns <- List.filter (fun f -> f <> fd) t.live_conns
  | None -> ());
  t.n_conns <- t.n_conns - 1;
  Condition.broadcast t.conns_cond;
  Mutex.unlock t.conns_mu

let accept_loop t =
  let rec loop () =
    if not (Atomic.get t.closing) then
      match Unix.select [ t.lfd; t.stop_r ] [] [] 1.0 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | ready, _, _ ->
        if List.mem t.stop_r ready || Atomic.get t.closing then ()
        else begin
          (if List.mem t.lfd ready then
             if conn_acquire t then (
               match t.cfg.sock.Io.s_accept t.lfd with
               | fd, _ ->
                 conn_register t fd;
                 ignore
                   (Thread.create
                      (fun () ->
                        (try handle_conn t fd with _ -> ());
                        conn_finish ~fd t)
                      ())
               | exception Io.Io_error { reason; _ } ->
                 conn_finish t;
                 if not (Atomic.get t.closing) then t.cfg.log ("accept: " ^ reason)));
          loop ()
        end
  in
  loop ()

let start cfg =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  mkdir_p cfg.root;
  let lfd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lfd Unix.SO_REUSEADDR true;
  Unix.bind lfd (Unix.ADDR_INET (Unix.inet_addr_of_string cfg.host, cfg.port));
  Unix.listen lfd cfg.backlog;
  let t_port =
    match Unix.getsockname lfd with Unix.ADDR_INET (_, p) -> p | _ -> cfg.port
  in
  let stop_r, stop_w = Unix.pipe ~cloexec:true () in
  let t =
    {
      cfg;
      lfd;
      t_port;
      metrics = Metrics.create ();
      reg_mu = Mutex.create ();
      actors = Hashtbl.create 16;
      conns_mu = Mutex.create ();
      conns_cond = Condition.create ();
      live_conns = [];
      n_conns = 0;
      served = 0;
      closing = Atomic.make false;
      stop_r;
      stop_w;
      accept_thread = Thread.self ();
      stopped = false;
      acks_mu = Mutex.create ();
      acks = Hashtbl.create 8;
      migc = mig_counters ();
      mgr_thread = None;
    }
  in
  t.accept_thread <- Thread.create accept_loop t;
  (match cfg.replica_of with
  | Some upstream -> t.mgr_thread <- Some (Thread.create (manager_loop t) upstream)
  | None -> ());
  t

(* Flip the server into draining; safe from a signal handler. *)
let trigger t =
  if not (Atomic.exchange t.closing true) then begin
    (try ignore (Unix.write t.stop_w (Bytes.of_string "x") 0 1)
     with Unix.Unix_error _ -> ());
    (* wake an accept thread parked on the connection-slot condition *)
    Mutex.lock t.conns_mu;
    Condition.broadcast t.conns_cond;
    Mutex.unlock t.conns_mu
  end

let install_sigint t =
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> trigger t))

let wait t =
  (* the trigger byte stays in the pipe (select does not consume), so
     this works whether the trigger fired before or after the call; the
     SIGINT that fires the trigger also interrupts this very select *)
  let rec go () =
    match Unix.select [ t.stop_r ] [] [] (-1.) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      if not (Atomic.get t.closing) then go ()
    | _ -> ()
  in
  go ()

let drain_conns ~how t =
  Thread.join t.accept_thread;
  (try Unix.close t.lfd with Unix.Unix_error _ -> ());
  Mutex.lock t.conns_mu;
  List.iter
    (fun fd -> try Unix.shutdown fd how with Unix.Unix_error _ -> ())
    t.live_conns;
  while t.n_conns > 0 do
    Condition.wait t.conns_cond t.conns_mu
  done;
  Mutex.unlock t.conns_mu

let close_actors ~abandon t =
  Hashtbl.iter
    (fun _ a ->
      Mutex.lock a.a_mu;
      a.a_closed <- true;
      if abandon then a.a_abandoned <- true;
      Condition.broadcast a.a_nonempty;
      Condition.broadcast a.a_slot;
      Mutex.unlock a.a_mu)
    t.actors;
  Hashtbl.iter (fun _ a -> Thread.join a.a_thread) t.actors

let join_manager t =
  match t.mgr_thread with
  | None -> ()
  | Some th ->
    t.mgr_thread <- None;
    Thread.join th

let stop t =
  trigger t;
  if t.stopped then { s_conns = t.served; s_docs = Hashtbl.length t.actors }
  else begin
    join_manager t;
    (* in-flight requests finish and get their replies: shutting down the
       receive side turns each connection's next read into a clean EOF *)
    drain_conns ~how:Unix.SHUTDOWN_RECEIVE t;
    close_actors ~abandon:false t;
    t.stopped <- true;
    { s_conns = t.served; s_docs = Hashtbl.length t.actors }
  end

let abort t =
  trigger t;
  if not t.stopped then begin
    join_manager t;
    drain_conns ~how:Unix.SHUTDOWN_ALL t;
    close_actors ~abandon:true t;
    t.stopped <- true
  end
