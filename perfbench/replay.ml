(* The traced replay: the same seeded generator, one thread, no server.
   Each request passes through the layers' public functions in the order
   the server calls them, with a span around every call:

     Protocol.encode_req, Wire.frame/unframe, Protocol.decode_req;
     mutations: Journal.Resolver.resolve per target, then per primitive
       Journal.append (write-ahead, as the durable session does) and
       Journal.Resolver.apply with Axis_inc attached; Journal.flush once;
     queries: Query_eval.serve on an Axis_inc snapshot;
     migrations: Migrate.op_of_spec + Migrate.apply, Mig_survival.step;
     Protocol.encode_resp, Wire.frame/unframe, Protocol.decode_resp.

   Checkpoints follow the server's policy: explicit requests below
   [checkpoint_min_records] fresh records are no-ops, and every
   [checkpoint_every] records the log is absorbed off the request path. *)

module P = Repro_server.Protocol
module Wire = Repro_server.Wire
module Query_eval = Repro_server.Query_eval
module Journal = Repro_journal.Journal
module Oplog = Repro_journal.Oplog
module Axis_inc = Repro_encoding.Axis_inc
module Xpath = Repro_encoding.Xpath
module Twig = Repro_encoding.Twig
module Migrate = Repro_migrate.Migrate
module Mig_survival = Repro_migrate.Mig_survival
module Tree = Repro_xml.Tree
open Stat

exception Replay_failed of string

let checkpoint_every, checkpoint_min_records =
  let c = Repro_server.Server.default_config ~root:"" in
  ( Option.value c.Repro_server.Server.checkpoint_every ~default:max_int,
    c.Repro_server.Server.checkpoint_min_records )

type doc = {
  name : string;
  pack : Core.Scheme.packed;
  session : Core.Session.t;
  journal : Journal.t;
  inc : Axis_inc.t;
  resolver : Journal.Resolver.t;
  mutable records : int;  (** since the last checkpoint *)
  mutable mpool : Mig_survival.tracked list option;
}

type counters = {
  mutable requests : int;
  mutable wire_bytes : int;
  mutable prims : int;
  mutable relabelled : int;
  mutable record_bytes : int;
  mutable rows_total : int;
  mutable rows_sent : int;
  mutable queries : int;
  mutable migrations : int;
  mutable mig_prims : int;
  mutable mig_relabelled : int;
  mutable update_reqs : int;
  mutable update_ns : int;
  mutable read_reqs : int;
  mutable read_ns : int;
}

type t = {
  tr : Trace.t;
  docs : (string, doc) Hashtbl.t;
  metrics : Repro_server.Metrics.t;
  k : counters;
}

let clock () = Monotonic_clock.now ()

let label_of (session : Core.Session.t) n =
  let l_bytes, l_bits = session.Core.Session.label_encoded n in
  { P.l_bytes; l_bits }

(* Build the round's copy of every corpus document into [docs]. *)
let set_up tr docs (w : Gen.workload) ~dir ~round =
  Array.iter
    (fun (ds : Gen.doc_spec) ->
      let name = Gen.doc_name w ds ~round in
      let pack =
        match Repro_schemes.Registry.find ds.Gen.ds_scheme with
        | Some p -> p
        | None -> raise (Replay_failed ("unknown scheme " ^ ds.Gen.ds_scheme))
      in
      let tree =
        Trace.span tr "setup.docgen" (fun () ->
            Repro_workload.Docgen.generate ~seed:ds.Gen.ds_seed
              { Repro_workload.Docgen.default_shape with target_nodes = ds.Gen.ds_nodes })
      in
      let session = Trace.span tr "setup.label" (fun () -> Core.Session.make pack tree) in
      let journal =
        Trace.span tr "setup.journal_create" (fun () ->
            Journal.create ~fsync_every:max_int
              ~base:(Filename.concat dir (name ^ ".journal"))
              session)
      in
      let inc = Trace.span tr "setup.axis_inc_build" (fun () -> Axis_inc.create ~clock tree) in
      Hashtbl.replace docs name
        {
          name;
          pack;
          session;
          journal;
          inc;
          resolver = Journal.Resolver.create session;
          records = 0;
          mpool = None;
        })
    w.Gen.w_docs

let doc_of t name =
  match Hashtbl.find_opt t.docs name with
  | Some d -> d
  | None -> raise (Replay_failed ("unknown document " ^ name))

let resolve t d l =
  Trace.span t.tr "resolver.resolve" (fun () -> Journal.Resolver.resolve d.resolver l)

(* One primitive, write-ahead: the record is journalled before the tree
   mutates, and the index follows the tree through its observer. *)
let apply_prim t d op =
  Trace.probe t.tr "oplog.encode" (fun () ->
      t.k.record_bytes <- t.k.record_bytes + String.length (Oplog.encode_record op));
  Trace.span t.tr "journal.append" (fun () -> Journal.append d.journal op);
  d.records <- d.records + 1;
  let before = (d.session.Core.Session.stats ()).Core.Stats.s_relabelled in
  let fresh =
    Trace.span t.tr "session.apply" (fun () ->
        let axis_ns () = Int64.to_int (Axis_inc.stats d.inc).Axis_inc.ns in
        let a0 = axis_ns () in
        let fresh = Journal.Resolver.apply d.resolver op in
        Trace.attribute t.tr "axis_inc.maint" (axis_ns () - a0);
        fresh)
  in
  let relabelled = (d.session.Core.Session.stats ()).Core.Stats.s_relabelled - before in
  t.k.prims <- t.k.prims + 1;
  t.k.relabelled <- t.k.relabelled + relabelled;
  (fresh, relabelled)

let target = function
  | Oplog.Insert_first (l, _) | Insert_last (l, _) | Insert_before (l, _) | Insert_after (l, _)
  | Delete l | Replace_value (l, _) | Rename (l, _) -> Some l
  | Mark _ -> None

let relabel_flag d before =
  let now = d.session.Core.Session.stats () in
  now.Core.Stats.s_relabelled > before.Core.Stats.s_relabelled
  || now.Core.Stats.s_overflow > before.Core.Stats.s_overflow

let exec_update t d ops =
  let before = d.session.Core.Session.stats () in
  let fresh =
    List.filter_map
      (fun op ->
        Option.iter (fun l -> ignore (resolve t d l)) (target op);
        Option.map (label_of d.session) (fst (apply_prim t d op)))
      ops
  in
  Trace.span t.tr "journal.flush" (fun () -> Journal.flush d.journal);
  P.Updated
    {
      up_applied = List.length ops;
      up_fresh = fresh;
      up_relabelled = relabel_flag d before;
      up_dedup = false;
    }

let exec_migrate t d specs =
  let before = d.session.Core.Session.stats () in
  let tracked =
    match d.mpool with
    | Some tr -> tr
    | None ->
      let src = Axis_inc.source (Axis_inc.snapshot d.inc) in
      let tr =
        Mig_survival.track src
          (Mig_survival.pool ~seed:(Hashtbl.hash d.name) ~count:16 d.session.Core.Session.doc)
      in
      d.mpool <- Some tr;
      tr
  in
  let applier =
    {
      Migrate.ap_session = d.session;
      ap_run =
        (fun op ->
          Option.iter (fun l -> ignore (resolve t d l)) (target op);
          t.k.mig_prims <- t.k.mig_prims + 1;
          let fresh, relabelled = apply_prim t d op in
          t.k.mig_relabelled <- t.k.mig_relabelled + relabelled;
          fresh);
    }
  in
  let prims =
    Trace.span t.tr "migrate.apply" (fun () ->
        List.fold_left
          (fun acc spec -> acc + Migrate.apply applier (Migrate.op_of_spec ~resolve:(resolve t d) spec))
          0 specs)
  in
  ignore
    (Trace.span t.tr "migrate.survival" (fun () ->
         Mig_survival.step (Axis_inc.source (Axis_inc.snapshot d.inc)) tracked));
  Trace.span t.tr "journal.flush" (fun () -> Journal.flush d.journal);
  t.k.migrations <- t.k.migrations + 1;
  P.Updated
    { up_applied = prims; up_fresh = []; up_relabelled = relabel_flag d before; up_dedup = false }

(* The label-only predicate, answered from the scheme alone. *)
let exec_pred d (pred : P.pred) =
  let module S = (val d.pack : Core.Scheme.S) in
  let dec (l : P.label) = S.decode_label l.P.l_bytes l.P.l_bits in
  let binary f a b = match f with None -> P.Unsupported | Some f -> P.Bool (f (dec a) (dec b)) in
  match pred with
  | P.Order (a, b) -> P.Int (compare (S.compare_order (dec a) (dec b)) 0)
  | P.Ancestor (a, b) -> binary S.is_ancestor a b
  | P.Parent (a, b) -> binary S.is_parent a b
  | P.Sibling (a, b) -> binary S.is_sibling a b
  | P.Level a -> ( match S.level_of with None -> P.Unsupported | Some f -> P.Int (f (dec a)))

let exec_stats d =
  let s = d.session in
  let st = s.Core.Session.stats () in
  let j = d.journal in
  P.Stats_r
    {
      P.st_nodes = Core.Session.node_count s;
      st_total_bits = Core.Session.total_bits s;
      st_max_bits = Core.Session.max_bits s;
      st_inserts = st.Core.Stats.s_inserts;
      st_deletes = st.Core.Stats.s_deletes;
      st_relabelled = st.Core.Stats.s_relabelled;
      st_overflow = st.Core.Stats.s_overflow;
      st_epoch = Journal.epoch j;
      st_records = Journal.appended j;
      st_log_bytes = Journal.log_size j;
      st_offset = (Journal.durable_position j).Journal.p_offset;
      st_lag = [];
    }

let exec_labels d limit =
  let acc = ref [] and count = ref 0 in
  (try
     Tree.iter_preorder
       (fun n ->
         if !count >= limit then raise Exit;
         acc := (label_of d.session n, n.Tree.kind, n.Tree.name) :: !acc;
         incr count)
       d.session.Core.Session.doc
   with Exit -> ());
  P.Labels_r (List.rev !acc)

let checkpoint t d =
  Trace.span t.tr "journal.checkpoint" (fun () -> Journal.checkpoint d.journal d.session);
  d.records <- 0

let exec_query t d q ~limit =
  let snap = Axis_inc.snapshot d.inc in
  let src = Axis_inc.source snap in
  (* parse and evaluate once more from outside, to price them alone *)
  (match q with
  | Query_eval.Q_xpath s ->
    let ast = Trace.probe t.tr "query.parse" (fun () -> Xpath.parse s) in
    ignore (Trace.probe t.tr "query.eval" (fun () -> Xpath.eval_src_ast src ast))
  | Query_eval.Q_twig s ->
    let tw = Trace.probe t.tr "query.parse" (fun () -> Twig.parse s) in
    ignore (Trace.probe t.tr "query.eval" (fun () -> Twig.matches_src src tw)));
  let resp =
    Trace.span t.tr "query.serve" (fun () ->
        Query_eval.serve t.metrics ~paranoid:false ~doc_rev:(Tree.revision d.session.Core.Session.doc)
          ~inc:d.inc ~pub_time:0. ~snap q ~limit)
  in
  (match resp with
  | P.Query_r { qy_total; qy_rows; _ } ->
    t.k.queries <- t.k.queries + 1;
    t.k.rows_total <- t.k.rows_total + qy_total;
    t.k.rows_sent <- t.k.rows_sent + List.length qy_rows
  | _ -> ());
  resp

let exec t (req : P.req) =
  match req with
  | P.Update { u_doc; u_ops; _ } -> exec_update t (doc_of t u_doc) u_ops
  | P.Migrate { mg_doc; mg_specs; _ } -> exec_migrate t (doc_of t mg_doc) mg_specs
  | P.Query { q_doc; q_pred } ->
    let d = doc_of t q_doc in
    P.Answer (Trace.span t.tr "session.pred" (fun () -> exec_pred d q_pred))
  | P.Stats doc ->
    let d = doc_of t doc in
    Trace.span t.tr "session.stats" (fun () -> exec_stats d)
  | P.Labels { lb_doc; lb_limit } ->
    let d = doc_of t lb_doc in
    Trace.span t.tr "session.labels" (fun () -> exec_labels d lb_limit)
  | P.Checkpoint doc ->
    let d = doc_of t doc in
    if d.records >= checkpoint_min_records then checkpoint t d;
    P.Checkpointed (Journal.epoch d.journal)
  | P.Xpath { xq_doc; xq_src; xq_limit } ->
    exec_query t (doc_of t xq_doc) (Query_eval.Q_xpath xq_src) ~limit:xq_limit
  | P.Twig { tq_doc; tq_src; tq_limit } ->
    exec_query t (doc_of t tq_doc) (Query_eval.Q_twig tq_src) ~limit:tq_limit
  | _ -> raise (Replay_failed ("unexpected request " ^ P.req_class req))

let unframe t framed =
  Trace.span t.tr "wire.unframe" (fun () ->
      match Wire.unframe framed 0 with
      | `Frame (payload, _) -> payload
      | `End | `Bad _ -> raise (Replay_failed "frame did not round-trip"))

let request t (req : P.req) cls =
  Trace.begin_request t.tr;
  let frame encode =
    Trace.span t.tr "wire.frame" (fun () -> Wire.frame (encode ()))
  in
  let framed =
    frame (fun () -> Trace.span t.tr "protocol.encode_req" (fun () -> P.encode_req req))
  in
  let req' =
    match Trace.span t.tr "protocol.decode_req" (fun () -> P.decode_req (unframe t framed)) with
    | Ok r -> r
    | Error e -> raise (Replay_failed ("request did not decode: " ^ e))
  in
  let resp = exec t req' in
  let rframed =
    frame (fun () -> Trace.span t.tr "protocol.encode_resp" (fun () -> P.encode_resp resp))
  in
  let resp' =
    match Trace.span t.tr "protocol.decode_resp" (fun () -> P.decode_resp (unframe t rframed)) with
    | Ok r -> r
    | Error e -> raise (Replay_failed ("reply did not decode: " ^ e))
  in
  let ns = Trace.end_request t.tr in
  t.k.requests <- t.k.requests + 1;
  t.k.wire_bytes <- t.k.wire_bytes + String.length framed + String.length rframed;
  (match Gen.group_of_class cls with
  | Gen.Update ->
    t.k.update_reqs <- t.k.update_reqs + 1;
    t.k.update_ns <- t.k.update_ns + ns
  | Gen.Read ->
    t.k.read_reqs <- t.k.read_reqs + 1;
    t.k.read_ns <- t.k.read_ns + ns
  | Gen.Other -> ());
  (* the server's flusher absorbs a long log off the request path *)
  Hashtbl.iter (fun _ d -> if d.records >= checkpoint_every then checkpoint t d) t.docs;
  resp'

let new_counters () =
  {
    requests = 0; wire_bytes = 0; prims = 0; relabelled = 0; record_bytes = 0; rows_total = 0;
    rows_sent = 0; queries = 0; migrations = 0; mig_prims = 0; mig_relabelled = 0;
    update_reqs = 0; update_ns = 0; read_reqs = 0; read_ns = 0;
  }

(* A replay advances one round at a time, so that a traced and an
   untraced replay of the same requests can take turns: the clients'
   generators take turns on the one thread until each has taken the
   round's steps, exactly as in the measured run. *)
type runner = {
  t : t;
  w : Gen.workload;
  seed : int;
  dir : string;
  mutable round : int;
  mutable gens : Gen.t array;
  mutable target : int array;  (** each generator's steps at the round's end *)
  mutable turn : int;
}

let gens_of r =
  if r.round = 0 || r.w.Gen.w_fresh_docs then set_up r.t.tr r.t.docs r.w ~dir:r.dir ~round:r.round;
  Array.init r.w.Gen.w_clients (fun i ->
      let ds = r.w.Gen.w_docs.(r.w.Gen.w_doc_of_client i) in
      let d = doc_of r.t (Gen.doc_name r.w ds ~round:r.round) in
      Gen.create r.w ~seed:r.seed ~client:i ~round:r.round
        ~root:(label_of d.session (Tree.root d.session.Core.Session.doc)))

let next_targets r = r.target <- Array.map (fun g -> Gen.steps g + r.w.Gen.w_round_steps) r.gens

let start (w : Gen.workload) ~seed ~dir ~traced =
  Unix.mkdir dir 0o755;
  let tr = Trace.create ~enabled:traced ~keep:2000 in
  let t = { tr; docs = Hashtbl.create 4; metrics = Repro_server.Metrics.create (); k = new_counters () } in
  let r = { t; w; seed; dir; round = 0; gens = [||]; target = [||]; turn = 0 } in
  r.gens <- gens_of r;
  next_targets r;
  r

(* Replay one round; its wall time. The next round's set-up (fresh
   documents, on workloads that have them) is done before returning,
   outside the time. *)
let round r =
  let busy i = Gen.steps r.gens.(i) < r.target.(i) || Gen.owes r.gens.(i) in
  let clients = Array.length r.gens in
  let t0 = now_ns () in
  while List.exists busy (List.init clients Fun.id) do
    while not (busy (r.turn mod clients)) do
      r.turn <- r.turn + 1
    done;
    let g = r.gens.(r.turn mod clients) in
    r.turn <- r.turn + 1;
    let req, cls, expect = Gen.next g in
    match request r.t req cls with
    | P.Err (e, msg) -> raise (Replay_failed (Printf.sprintf "%s: %s %s" cls (P.err_name e) msg))
    | P.Query_error { qe_msg; _ } -> raise (Replay_failed (cls ^ ": " ^ qe_msg))
    | resp -> Gen.observe g expect resp
  done;
  let ns = now_ns () - t0 in
  r.round <- r.round + 1;
  if r.w.Gen.w_fresh_docs then r.gens <- gens_of r;
  next_targets r;
  ns

(* The graceful stop checkpoints every document. *)
let finish r = Hashtbl.iter (fun _ d -> checkpoint r.t d) r.t.docs

let close r =
  Hashtbl.iter
    (fun _ d ->
      Journal.close d.journal;
      Axis_inc.detach d.inc)
    r.t.docs
