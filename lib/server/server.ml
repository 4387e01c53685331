open Repro_xml
open Repro_io
open Repro_journal
module P = Protocol
module Pool = Repro_parallel.Pool
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
  checkpoint_min_records : int;
  max_doc_nodes : int;
  max_frag_nodes : int;
  commit_interval_us : int;
  commit_max : int;
  loop_domains : int;
  dedup_window : int;
  shed_parked : int;
  shed_conn_bytes : int;
  peer_timeout : float;
  io : Io.t;
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
    (* 0 = the journal never self-fsyncs: durability comes entirely from
       the group-commit flusher. Positive values restore per-journal
       batch fsync (1 = every append, the strict mode the abort tests
       rely on). *)
    fsync_every = 0;
    checkpoint_every = Some 4096;
    checkpoint_min_records = 1024;
    max_doc_nodes = 50_000;
    max_frag_nodes = 4_096;
    commit_interval_us = 0;
    commit_max = 64;
    loop_domains = 1;
    (* exactly-once window: remember the last reply of up to this many
       identified clients per document; 0 disables dedup entirely *)
    dedup_window = 128;
    (* overload shedding: refuse new mutations with Overloaded once this
       many replies are parked server-wide / this many reply bytes are
       owed to one connection; 0 disables the bound *)
    shed_parked = 4096;
    shed_conn_bytes = 1 lsl 20;
    (* connect/request timeout for talking to the replication upstream *)
    peer_timeout = 2.0;
    io = Io.real;
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

let ns_since t0 =
  let dt = Unix.gettimeofday () -. t0 in
  if dt <= 0. then 0 else int_of_float (dt *. 1e9)

(* ---- connections ---------------------------------------------------

   A connection is owned by one event-loop domain for reading; writes can
   come from that loop (reads, direct acks), from the flusher (parked
   replies), from whichever thread runs a deferred mutation, or from a
   query worker, serialized by [c_send_mu]. A connection that reaches
   EOF while some decoded frame's reply is still owed ([c_sent] short of
   [c_next]) is marked draining, and the send that writes the last owed
   slot closes it — a reply, once owed, is always sent before the
   socket dies.

   Replies leave in request order. Each decoded frame takes the next
   reply slot; a reply ready before its turn (an inline read behind a
   parked ack, a worker's answer behind a deferred mutation) is held
   under [c_send_mu] and written once every earlier slot has been. *)

type conn = {
  c_fd : Unix.file_descr;
  c_dec : Wire.Decoder.t;
  c_send_mu : Mutex.t;
  mutable c_alive : bool;  (** send side usable; under [c_send_mu] *)
  mutable c_inflight : int;
      (** encoded bytes of parked (non-checkpoint) replies owed to this
          connection — the shed bound's input; under [f_mu] *)
  mutable c_draining : bool;
      (** retired with replies owed, close after the last; under [c_send_mu] *)
  mutable c_closed : bool;  (** fd closed; under [c_send_mu] *)
  mutable c_last : float;  (** loop-private: last activity, for idle drop *)
  mutable c_next : int;
      (** the next decoded frame's reply slot: loop-private, and frozen
          once the loop retires the connection *)
  mutable c_sent : int;  (** the next slot to write; under [c_send_mu] *)
  c_held : (int, P.resp) Hashtbl.t;  (** replies ahead of their turn; under [c_send_mu] *)
}

(* ---- published snapshots ------------------------------------------- *)

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

type parked = {
  pk_conn : conn;
  pk_slot : int;
  pk_resp : P.resp;
  pk_pos : Journal.position;
  pk_bytes : int;  (** encoded reply size, for the per-connection shed bound *)
}

(* One identified client's last mutation against one document: enough to
   answer a retry without re-applying, and to re-journal the watermark
   when a checkpoint swallows the log that carried it. *)
type dedup_entry = {
  mutable de_seq : int;
  mutable de_resp : P.resp;
  mutable de_applied : int;  (** ops the original batch applied (for the Mark) *)
  mutable de_pos : Journal.position;  (** durability gate for the cached reply *)
  mutable de_tick : int;  (** LRU clock for window eviction *)
}

(* ---- documents ------------------------------------------------------

   One document, one lock — but nobody queues behind it. The event loop
   takes [d_mu] with [try_lock]; on contention the job closure is pushed
   onto [d_deferred] and executed by whoever holds the lock when it
   releases (a combining lock). Loops therefore never block on a
   document; the only blocking acquirers are the flusher (checkpoints)
   and the replication manager, each on its own thread. *)

type doc = {
  d_name : string;
  d_mu : Mutex.t;
  d_q_mu : Mutex.t;  (** guards [d_deferred] only *)
  d_deferred : (unit -> unit) Queue.t;
  d_durable : Durable_session.t;
  d_view : Core.Session.t;
  d_pack : Core.Scheme.packed;
  d_inc : Axis_inc.t;
      (** fed by the document's {!Tree} observer under [d_mu]; snapshotted
          into [d_pub] on every publish *)
  d_qcache : Query_eval.cache;  (** wire-query answers, reused across revisions *)
  mutable d_resolver : Journal.Resolver.t;
  d_pub : published Atomic.t;
  d_role : role Atomic.t;
  d_ship : Ship.t option;  (** [Some] iff this doc was created as a follower *)
  mutable d_records : int;
      (** records journaled since the last checkpoint; under [d_mu] *)
  d_dedup : (string, dedup_entry) Hashtbl.t;  (** client -> watermark; under [d_mu] *)
  mutable d_dedup_tick : int;  (** under [d_mu] *)
  mutable d_mpool : Repro_migrate.Mig_survival.tracked list option;
      (** the document's standing-query pool for migration blast-radius
          accounting; built lazily on the first migrate batch; under
          [d_mu] *)
  mutable d_closed : bool;  (** under [d_mu] *)
  (* flusher-owned state, under [f_mu] *)
  d_parked : parked Queue.t;
  mutable d_ckpt_waiters : (conn * int) list;  (** with each request's reply slot *)
  mutable d_enrolled : bool;
}

let journal_of d = Durable_session.journal d.d_durable

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

let publish d = Atomic.set d.d_pub (publish_of d.d_view d.d_pack d.d_durable d.d_inc)

(* ---- the combining lock -------------------------------------------- *)

let rec drain_and_release d =
  (* caller holds [d_mu] *)
  match Mutex.protect d.d_q_mu (fun () -> Queue.take_opt d.d_deferred) with
  | Some job ->
    (try job () with _ -> ());
    drain_and_release d
  | None ->
    Mutex.unlock d.d_mu;
    (* A producer may have enqueued between the empty check and the
       unlock, while its own try_lock failed against us. Whoever wins
       this re-acquire drains it; if both lose, the current holder will. *)
    if
      (not (Mutex.protect d.d_q_mu (fun () -> Queue.is_empty d.d_deferred)))
      && Mutex.try_lock d.d_mu
    then drain_and_release d

(* Run [job] under the document lock without ever blocking: on contention
   it is deferred to the lock holder. [job] must do its own replying. *)
let run_or_defer d job =
  if Mutex.try_lock d.d_mu then begin
    (try job () with _ -> ());
    drain_and_release d
  end
  else begin
    Mutex.protect d.d_q_mu (fun () -> Queue.push job d.d_deferred);
    if Mutex.try_lock d.d_mu then drain_and_release d
  end

(* Blocking variant for the flusher and the replication manager — threads
   that may wait. *)
let run_sync d job =
  Mutex.lock d.d_mu;
  let out = try Ok (job ()) with e -> Error e in
  drain_and_release d;
  match out with Ok v -> v | Error e -> raise e

(* ---- validation and execution --------------------------------------

   Validate before applying: the durable view journals each operation
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

let exec_update cfg d ops =
  let applied = ref 0 in
  let fresh = ref [] in
  let before = d.d_view.Core.Session.stats () in
  try
    List.iter
      (fun op ->
        check_op cfg d.d_resolver op;
        (match Journal.Resolver.apply d.d_resolver op with
        | Some n -> fresh := encoded_label d.d_view n :: !fresh
        | None -> ());
        incr applied)
      ops;
    (* A scheme that renumbered existing nodes (code overflow, neighbour
       reassignment) silently broke every label the client holds; say so,
       so caches get refreshed instead of dying on Unknown_label. *)
    let now = d.d_view.Core.Session.stats () in
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
    d.d_resolver <- Journal.Resolver.create d.d_view;
    P.Err (P.Unknown_label, msg)

let exec_labels d limit =
  let limit = max 0 (min limit 20_000) in
  let acc = ref [] in
  let count = ref 0 in
  (try
     Tree.iter_preorder
       (fun n ->
         if !count >= limit then raise Exit;
         acc := (encoded_label d.d_view n, n.Tree.kind, n.Tree.name) :: !acc;
         incr count)
       d.d_view.Core.Session.doc
   with Exit -> ());
  P.Labels_r (List.rev !acc)

(* ---- replication jobs ----------------------------------------------

   Run under the document lock like updates and checkpoints, so a shipped
   batch can never interleave with an epoch change: within one job the
   journal's epoch and durable offset are frozen. *)

let max_ship_batch = 1 lsl 20

let exec_subscribe d =
  let j = journal_of d in
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

let exec_replicate d ~epoch ~snap ~offset ~limit =
  let j = journal_of d in
  let limit = max 1 (min limit max_ship_batch) in
  if epoch <> Journal.epoch j then
    P.Err
      ( P.Stale_pos,
        Printf.sprintf "epoch %d is over (current epoch %d)" epoch (Journal.epoch j) )
  else if snap then begin
    let s = Journal.snapshot_bytes j in
    let total = String.length s in
    if offset < 0 || offset > total then
      P.Err
        (P.Bad_request, Printf.sprintf "snapshot offset %d outside [0, %d]" offset total)
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
      P.Shipped
        { sh_epoch = epoch; sh_offset = offset; sh_total = durable_end; sh_data = data }
    | exception Journal.Corrupt msg -> P.Err (P.Stale_pos, msg)
  end

let exec_apply d ~epoch ~offset ~data =
  match d.d_ship with
  | None -> P.Err (P.Bad_request, d.d_name ^ " is not a follower")
  | Some f -> (
    match Ship.apply f ~epoch ~offset data with
    | n -> P.Updated { up_applied = n; up_fresh = []; up_relabelled = false; up_dedup = false }
    | exception Ship.Out_of_sync msg -> P.Err (P.Stale_pos, msg))

(* ---- the server ---------------------------------------------------- *)

type loop_state = {
  l_idx : int;
  l_wake_r : Unix.file_descr;
  l_wake_w : Unix.file_descr;
  l_mu : Mutex.t;
  mutable l_incoming : conn list;
      (** connections to (re-)arm: fresh from accept, or handed back by a
          query worker; under [l_mu] *)
  mutable l_inflight : int;  (** this loop's connections on a query worker; under [l_mu] *)
}

(* One Xpath/Twig request handed from a loop to a query worker. *)
type query_job = {
  qj_conn : conn;
  qj_slot : int;
  qj_loop : loop_state;  (** where the connection goes back to *)
  qj_req : P.req;
  qj_t0 : float;  (** wall clock at frame decode: [req/<class>] spans the wait *)
  qj_queued : int64;  (** {!Metrics.monotonic_ns} at hand-off, for [query/wait] *)
}

let wake_loop ls =
  try ignore (Unix.write ls.l_wake_w (Bytes.of_string "x") 0 1)
  with Unix.Unix_error _ -> ()

(* ring size for the flush-cycle instruments *)
let ring_size = 512

type t = {
  cfg : config;
  lfd : Unix.file_descr;
  t_port : int;
  metrics : Metrics.t;
  reg_mu : Mutex.t;
  docs : (string, doc) Hashtbl.t;
  conns_mu : Mutex.t;
  conns_cond : Condition.t;
  mutable live_conns : conn list;
  mutable n_conns : int;
  mutable served : int;
  closing : bool Atomic.t;
  stop_r : Unix.file_descr;
  stop_w : Unix.file_descr;
  mutable accept_thread : Thread.t;
  mutable loops : loop_state array;
  mutable loop_handle : Pool.Loops.t option;
  mutable stopped : bool;
  acks_mu : Mutex.t;
  acks : (string * string, int * int) Hashtbl.t;
      (** (doc, replica) -> last acknowledged (epoch, offset) *)
  (* cumulative migration blast radius, served as migrate/* gauges *)
  mg_relabelled : int Atomic.t;
  mg_journal_bytes : int Atomic.t;
  mg_broken : int Atomic.t;
  mg_evaluated : int Atomic.t;  (** standing-query evaluations survival made *)
  mg_skipped : int Atomic.t;  (** ... and answers it kept unevaluated *)
  mg_mismatch : int Atomic.t;  (** kept answers a [paranoid] check contradicted *)
  mutable mgr_thread : Thread.t option;  (** the replication manager, on replicas *)
  (* ---- query workers, under [q_mu] ---- *)
  q_mu : Mutex.t;
  q_cond : Condition.t;
  q_jobs : query_job Queue.t;
  mutable q_stop : bool;
  mutable q_workers : Pool.Loops.t option;  (** [None] until the first cache miss *)
  (* ---- flusher state, under [f_mu] ---- *)
  f_mu : Mutex.t;
  mutable f_pending : int;  (** parked replies not yet released *)
  mutable f_first : float;  (** arrival of the oldest parked reply *)
  mutable f_dirty : doc list;  (** docs with parked replies or due checkpoints *)
  mutable f_stop : bool;
  mutable f_sleeping : bool;
  f_wake_r : Unix.file_descr;
  f_wake_w : Unix.file_descr;
  mutable flusher_thread : Thread.t option;
  (* flush-cycle instruments, flusher-private *)
  ring_batch : int array;
  ring_flush_us : int array;
  mutable ring_n : int;
}

type summary = { s_conns : int; s_docs : int }

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

(* journal-level fsync batching: 0 means "the flusher owns durability",
   which the journal spells [max_int] (never self-fsync) *)
let journal_fsync_every cfg = if cfg.fsync_every <= 0 then max_int else cfg.fsync_every

(* ---- connection accounting ------------------------------------------ *)

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

let conn_register t conn =
  Mutex.lock t.conns_mu;
  t.live_conns <- conn :: t.live_conns;
  t.served <- t.served + 1;
  Mutex.unlock t.conns_mu

let conn_finish t conn =
  Mutex.lock t.conns_mu;
  t.live_conns <- List.filter (fun c -> c != conn) t.live_conns;
  t.n_conns <- t.n_conns - 1;
  Condition.broadcast t.conns_cond;
  Mutex.unlock t.conns_mu

(* ---- sending -------------------------------------------------------- *)

(* Close [conn] once, killing the send side first: a job deferred through
   the combining lock can still hold this [conn] record, and once the fd
   is recycled by [accept] a late [send_resp] through it would write the
   dead connection's reply into an unrelated one. The accept slot is
   released only here. *)
let close_conn t conn =
  let first =
    Mutex.protect conn.c_send_mu (fun () ->
        let first = not conn.c_closed in
        conn.c_closed <- true;
        conn.c_alive <- false;
        first)
  in
  if first then begin
    (try t.cfg.sock.Io.s_close conn.c_fd with Io.Io_error _ -> ());
    conn_finish t conn
  end

(* Send the reply for [slot], or hold it until every earlier slot's reply
   has gone. A slot's first reply is the one that counts. The send that
   writes a draining connection's last owed slot closes it. *)
let send_resp t conn slot resp =
  let write resp =
    if conn.c_alive then
      match Wire.send_frame t.cfg.sock conn.c_fd (P.encode_resp resp) with
      | () -> ()
      | exception Io.Io_error { reason; _ } ->
        conn.c_alive <- false;
        t.cfg.log ("conn send: " ^ reason)
  in
  let rec drain () =
    match Hashtbl.find_opt conn.c_held conn.c_sent with
    | Some resp ->
      Hashtbl.remove conn.c_held conn.c_sent;
      write resp;
      conn.c_sent <- conn.c_sent + 1;
      drain ()
    | None -> ()
  in
  let last =
    Mutex.protect conn.c_send_mu (fun () ->
        if slot < conn.c_sent || Hashtbl.mem conn.c_held slot then false
        else if slot > conn.c_sent then begin
          Hashtbl.replace conn.c_held slot resp;
          false
        end
        else begin
          write resp;
          conn.c_sent <- slot + 1;
          drain ();
          conn.c_draining && conn.c_sent = conn.c_next
        end)
  in
  if last then close_conn t conn

let record t ?doc cls ~ok ~ns =
  Metrics.record t.metrics ~key:("req/" ^ cls) ~ok ~ns;
  match doc with
  | Some d -> Metrics.record t.metrics ~key:(Printf.sprintf "doc/%s/%s" d cls) ~ok ~ns
  | None -> ()

(* record the request's metrics and send its reply *)
let respond t conn slot ?doc cls t0 resp =
  let ok = match resp with P.Err _ -> false | _ -> true in
  record t ?doc cls ~ok ~ns:(ns_since t0);
  send_resp t conn slot resp

(* Called by the loop once it reads nothing more from [conn]: close now
   if every decoded frame has its reply out, else leave the close to the
   send of the last owed slot — a parked ack, a deferred mutation's reply
   or anything held behind them. *)
let retire t conn =
  let owed =
    Mutex.protect conn.c_send_mu (fun () ->
        conn.c_draining <- conn.c_sent < conn.c_next;
        conn.c_draining)
  in
  if not owed then close_conn t conn

(* ---- flusher signalling ---------------------------------------------- *)

let wake_flusher t =
  (* caller holds [f_mu] *)
  if t.f_sleeping then
    try ignore (Unix.write t.f_wake_w (Bytes.of_string "x") 0 1)
    with Unix.Unix_error _ -> ()

let enroll t d =
  (* caller holds [f_mu] *)
  if not d.d_enrolled then begin
    d.d_enrolled <- true;
    t.f_dirty <- d :: t.f_dirty
  end

(* Park a reply behind the durable watermark. Caller holds [d_mu]; the
   position defaults to the journal's current end, i.e. just past this
   request's own appends — a dedup retry parks at the original batch's
   stored position instead. *)
let park ?pos t d conn slot resp =
  let pos = match pos with Some p -> p | None -> Journal.position (journal_of d) in
  let bytes = String.length (P.encode_resp resp) in
  Mutex.lock t.f_mu;
  Queue.push
    { pk_conn = conn; pk_slot = slot; pk_resp = resp; pk_pos = pos; pk_bytes = bytes }
    d.d_parked;
  conn.c_inflight <- conn.c_inflight + bytes;
  if t.f_pending = 0 then t.f_first <- Unix.gettimeofday ();
  t.f_pending <- t.f_pending + 1;
  enroll t d;
  wake_flusher t;
  Mutex.unlock t.f_mu

let park_ckpt t d conn slot =
  Mutex.lock t.f_mu;
  d.d_ckpt_waiters <- (conn, slot) :: d.d_ckpt_waiters;
  enroll t d;
  wake_flusher t;
  Mutex.unlock t.f_mu


(* ---- the exactly-once dedup window ----------------------------------

   Per document, the last mutation of up to [dedup_window] identified
   clients, all under [d_mu]. A fresh batch journals an {!Oplog.Mark}
   right after its ops — same epoch, same flush cycle — so the window
   survives recovery (rebuilt from the live log) and ships to replicas
   with the ops it covers. Checkpoints absorb the log, so
   [rejournal_marks] rewrites the live watermarks into the fresh epoch. *)

let dedup_touch d e =
  d.d_dedup_tick <- d.d_dedup_tick + 1;
  e.de_tick <- d.d_dedup_tick

let dedup_store cfg d client e =
  if
    (not (Hashtbl.mem d.d_dedup client))
    && Hashtbl.length d.d_dedup >= cfg.dedup_window
  then begin
    (* evict the least-recently-touched client; the window is small, so a
       scan on overflow beats maintaining an order structure on every hit *)
    let victim = ref None in
    Hashtbl.iter
      (fun c e ->
        match !victim with
        | Some (_, tick) when tick <= e.de_tick -> ()
        | _ -> victim := Some (c, e.de_tick))
      d.d_dedup;
    match !victim with Some (c, _) -> Hashtbl.remove d.d_dedup c | None -> ()
  end;
  Hashtbl.replace d.d_dedup client e

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

(* After [Durable_session.recover] the ops list is gone, but the live log
   is still on disk: scan it for Marks and rebuild the window. Fresh
   labels are not recoverable from a Mark, so a rebuilt hit answers with
   [up_fresh = []] and [up_relabelled = true] — the client must reseed. *)
let dedup_rebuild cfg d ~base =
  if cfg.dedup_window > 0 then
    match Journal.inspect ~io:cfg.io ~base () with
    | exception Journal.Corrupt _ -> ()
    | _, ops, _ ->
      let pos = Journal.durable_position (journal_of d) in
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
            let e =
              { de_seq = mk_seq; de_resp; de_applied = mk_applied; de_pos = pos; de_tick = 0 }
            in
            dedup_touch d e;
            dedup_store cfg d mk_client e
          | _ -> ())
        ops

(* A follower's window starts empty and shipping fills none, but its
   journal holds every Mark it was shipped: a Follower -> Primary
   transition rebuilds the window from it, so a client's resend to the
   new primary is answered, not applied twice. Promoting a primary again
   keeps its live window. Runs under [d_mu]. *)
let exec_promote cfg d =
  if Atomic.get d.d_role = Follower then
    dedup_rebuild cfg d ~base:(Filename.concat cfg.root (d.d_name ^ ".journal"));
  Atomic.set d.d_role Primary;
  let pos =
    match d.d_ship with
    | Some f -> Ship.position f
    | None -> Journal.position (journal_of d)
  in
  P.Promoted { pr_epoch = pos.Journal.p_epoch; pr_offset = pos.Journal.p_offset }

(* After a checkpoint swallowed the log, rewrite every live watermark into
   the fresh epoch so a crash-and-recover still knows them. Caller holds
   [d_mu]. *)
let rejournal_marks d =
  let j = journal_of d in
  Hashtbl.iter
    (fun client e ->
      Journal.append j (mark_of_entry client e);
      e.de_pos <- Journal.position j)
    d.d_dedup

(* ---- opening documents --------------------------------------------

   Serialized under [reg_mu]: opens are rare and involve disk IO, and a
   single registrant per document name is the ownership invariant. *)

let register_doc t name ~durable ~role ~ship =
  let view = Durable_session.session durable in
  let pack =
    match Repro_schemes.Registry.find view.Core.Session.scheme_name with
    | Some p -> p
    | None ->
      reject P.Internal "journal scheme %S is not registered"
        view.Core.Session.scheme_name
  in
  let inc = Axis_inc.create ~clock:Metrics.monotonic_ns view.Core.Session.doc in
  let d =
    {
      d_name = name;
      d_mu = Mutex.create ();
      d_q_mu = Mutex.create ();
      d_deferred = Queue.create ();
      d_durable = durable;
      d_view = view;
      d_pack = pack;
      d_inc = inc;
      d_qcache = Query_eval.cache ();
      d_resolver = Journal.Resolver.create view;
      d_pub = Atomic.make (publish_of view pack durable inc);
      d_role = Atomic.make role;
      d_ship = ship;
      d_records = 0;
      d_dedup = Hashtbl.create 16;
      d_dedup_tick = 0;
      d_mpool = None;
      d_closed = false;
      d_parked = Queue.create ();
      d_ckpt_waiters = [];
      d_enrolled = false;
    }
  in
  Hashtbl.add t.docs name d;
  d

let open_doc t name scheme nodes seed =
  Mutex.lock t.reg_mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.reg_mu)
    (fun () ->
      match Hashtbl.find_opt t.docs name with
      | Some d ->
        let pub = Atomic.get d.d_pub in
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
          if t.cfg.io.Io.file_exists base then (
            match
              Durable_session.recover ~io:t.cfg.io
                ~fsync_every:(journal_fsync_every t.cfg) ~base ()
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
              ( Durable_session.create ~io:t.cfg.io
                  ~fsync_every:(journal_fsync_every t.cfg) ~base session,
                true )
        in
        let d = register_doc t name ~durable ~role:Primary ~ship:None in
        if not fresh then dedup_rebuild t.cfg d ~base;
        let pub = Atomic.get d.d_pub in
        P.Opened
          {
            ok_scheme = pub.p_scheme;
            ok_root = pub.p_root;
            ok_nodes = pub.p_stats.P.st_nodes;
            ok_fresh = fresh;
          })

let find_doc t doc =
  Mutex.lock t.reg_mu;
  let d = Hashtbl.find_opt t.docs doc in
  Mutex.unlock t.reg_mu;
  d

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

(* Wire queries never enter the document's write path: they are answered
   against whatever snapshot+index pair the writer last published, read
   once per answer, taking no lock — a cache hit on the loop
   ([probe_wire_query]), a miss on a query worker (see "query workers"
   below). *)
let serve_wire_query t doc query limit =
  match find_doc t doc with
  | None -> P.Err (P.Unknown_doc, doc)
  | Some d ->
    let pub = Atomic.get d.d_pub in
    Query_eval.serve t.metrics ~paranoid:t.cfg.paranoid
      ~doc_rev:(Tree.revision d.d_view.Core.Session.doc)
      ~inc:d.d_inc ~pub_time:pub.p_qtime ~snap:pub.p_qsnap ~cache:d.d_qcache query ~limit

(* The cached answer to a wire query, if its document's cache holds one
   at the published snapshot. *)
let probe_wire_query t doc query limit =
  Option.bind (find_doc t doc) (fun d ->
      let pub = Atomic.get d.d_pub in
      Query_eval.probe t.metrics ~paranoid:t.cfg.paranoid
        ~doc_rev:(Tree.revision d.d_view.Core.Session.doc)
        ~inc:d.d_inc ~pub_time:pub.p_qtime ~snap:pub.p_qsnap d.d_qcache query ~limit)

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
      (fun (d, replica) pos acc ->
        if d = doc then (replica, lag_of pub pos) :: acc else acc)
      t.acks []
  in
  Mutex.unlock t.acks_mu;
  List.sort compare lags

(* is an auto-checkpoint due? (racy read is fine — re-checked under the
   doc lock before acting) *)
let auto_ckpt_due t d =
  match t.cfg.checkpoint_every with Some k -> d.d_records >= k | None -> false

(* ---- overload shedding ----------------------------------------------

   A typed refusal beats an unbounded queue: when the flusher is drowning
   in parked replies (server-wide) or one connection has too many reply
   bytes owed (per-connection), new mutations bounce with [Overloaded]
   before validating or journaling anything — the client backs off and
   retries. *)

let shed_reason t conn =
  if t.cfg.shed_parked <= 0 && t.cfg.shed_conn_bytes <= 0 then None
  else
    Mutex.protect t.f_mu (fun () ->
        if t.cfg.shed_parked > 0 && t.f_pending >= t.cfg.shed_parked then
          Some (Printf.sprintf "%d replies parked (bound %d)" t.f_pending t.cfg.shed_parked)
        else if t.cfg.shed_conn_bytes > 0 && conn.c_inflight >= t.cfg.shed_conn_bytes then
          Some
            (Printf.sprintf "%d reply bytes in flight on this connection (bound %d)"
               conn.c_inflight t.cfg.shed_conn_bytes)
        else None)

let shed t conn slot d ~cls t0 =
  match shed_reason t conn with
  | None -> false
  | Some why ->
    Metrics.record t.metrics ~key:"shed/update" ~ok:false ~ns:0;
    Metrics.gauge t.metrics ~key:"shed/parked"
      ~value:(Mutex.protect t.f_mu (fun () -> t.f_pending));
    Metrics.gauge t.metrics ~key:"shed/conn_bytes"
      ~value:(Mutex.protect t.f_mu (fun () -> conn.c_inflight));
    respond t conn slot ~doc:d.d_name cls t0 (P.Err (P.Overloaded, why));
    true

(* The mutation path — updates and migration batches share it verbatim:
   validate + apply + journal-append under the doc lock, then either
   acknowledge immediately (the batch is already inside the durable
   prefix; its reply slot keeps it behind the connection's earlier
   replies) or park the reply for the flusher. Error replies to partially applied batches are parked too:
   they confirm a journaled prefix. [exec] runs the batch and returns the
   reply; [nreq] is the batch length, the fallback applied count when
   [exec] errors out. *)
let job_mutation t conn slot d ~cls ~client ~seq ~nreq exec t0 =
  if d.d_closed then
    respond t conn slot ~doc:d.d_name cls t0 (P.Err (P.Shutting_down, "document is closing"))
  else if Atomic.get d.d_role = Follower then
    respond t conn slot ~doc:d.d_name cls t0
      (P.Err (P.Not_primary, d.d_name ^ " is a follower here"))
  else begin
    let j = journal_of d in
    let dedup = client <> "" && t.cfg.dedup_window > 0 in
    let prior = if dedup then Hashtbl.find_opt d.d_dedup client else None in
    match prior with
    | Some e when dedup && seq = e.de_seq ->
      (* a retry of an applied batch: answer from the window, gated on the
         original's durability like any other ack *)
      dedup_touch d e;
      Metrics.record t.metrics ~key:"dedup/hit" ~ok:true ~ns:0;
      let resp = flag_dedup e.de_resp in
      let ok = match resp with P.Err _ -> false | _ -> true in
      record t ~doc:d.d_name cls ~ok ~ns:(ns_since t0);
      if Journal.covers ~durable:(Journal.durable_position j) e.de_pos then
        send_resp t conn slot resp
      else park ~pos:e.de_pos t d conn slot resp
    | Some e when dedup && seq < e.de_seq ->
      respond t conn slot ~doc:d.d_name cls t0
        (P.Err
           ( P.Bad_request,
             Printf.sprintf "stale sequence %d for client %S (last %d)" seq client
               e.de_seq ))
    | _ when shed t conn slot d ~cls t0 -> ()
    | _ ->
      let appended0 = Journal.appended j in
      let resp =
        try exec () with
        | Io.Io_error { op; reason; _ } -> P.Err (P.Internal, op ^ ": " ^ reason)
        | e -> P.Err (P.Internal, Printexc.to_string e)
      in
      let applied =
        match resp with P.Updated { up_applied; _ } -> up_applied | _ -> nreq
      in
      let delta0 = Journal.appended j - appended0 in
      (if dedup then begin
         let e =
           {
             de_seq = seq;
             de_resp = resp;
             de_applied = (match resp with P.Err _ -> delta0 | _ -> applied);
             de_pos = Journal.position j;
             de_tick = 0;
           }
         in
         dedup_touch d e;
         (* the Mark rides the same flush cycle as the batch it covers; a
            batch that journaled nothing needs no Mark — re-running it on
            retry is either impossible (it will fail the same validation)
            or a no-op *)
         if delta0 > 0 then begin
           Journal.append j (mark_of_entry client e);
           e.de_pos <- Journal.position j
         end;
         dedup_store t.cfg d client e
       end);
      let delta = Journal.appended j - appended0 in
      d.d_records <- d.d_records + delta;
      publish d;
      let ok = match resp with P.Err _ -> false | _ -> true in
      record t ~doc:d.d_name cls ~ok ~ns:(ns_since t0);
      (if delta = 0 then send_resp t conn slot resp
       else begin
         (* a durable batch behind a parked reply of the same connection
            is held by its reply slot, not parked *)
         if Journal.covers ~durable:(Journal.durable_position j) (Journal.position j) then
           send_resp t conn slot resp
         else park t d conn slot resp
       end);
      if auto_ckpt_due t d then
        Mutex.protect t.f_mu (fun () ->
            enroll t d;
            wake_flusher t)
  end

let job_update t conn slot d ~client ~seq ops t0 =
  job_mutation t conn slot d ~cls:"update" ~client ~seq ~nreq:(List.length ops)
    (fun () -> exec_update t.cfg d ops)
    t0

(* ---- migration batches ----------------------------------------------

   A migrate request is label-addressed operator descriptors; resolution
   and compilation both happen here, under the document lock, against the
   same resolver the update path uses — so the journal records exactly
   the primitives that ran, and recovery/replication replay them without
   knowing migrations exist. *)

let max_migrate_specs = 64
let max_wrap_targets = 32
let mpool_queries = 16

(* The document's standing-query pool, built lazily from the names the
   document had when migrations started — which is the point: the pool
   represents queries written against the old schema. *)
let doc_mpool d =
  match d.d_mpool with
  | Some tracked -> tracked
  | None ->
    let doc = d.d_view.Core.Session.doc in
    let seed = Hashtbl.hash d.d_name in
    let src = Axis_inc.source (Axis_inc.snapshot d.d_inc) in
    let tracked = Mig_survival.track src (Mig_survival.pool ~seed ~count:mpool_queries doc) in
    d.d_mpool <- Some tracked;
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

let exec_migrate_checked t d specs =
  let tracked = doc_mpool d in
  let resolve l =
    try Journal.Resolver.resolve d.d_resolver l
    with Journal.Replay_error msg -> raise (Reject (P.Unknown_label, msg))
  in
  let applier =
    {
      Migrate.ap_session = d.d_view;
      ap_run =
        (fun o ->
          check_op t.cfg d.d_resolver o;
          Journal.Resolver.apply d.d_resolver o);
    }
  in
  let before = d.d_view.Core.Session.stats () in
  let j = journal_of d in
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
      let now = d.d_view.Core.Session.stats () in
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
      d.d_resolver <- Journal.Resolver.create d.d_view;
      P.Err (P.Unknown_label, msg)
  in
  (* blast-radius accounting covers whatever prefix actually ran *)
  let now = d.d_view.Core.Session.stats () in
  let tally = Mig_survival.tally () in
  let s0 = Metrics.monotonic_ns () in
  let _, broken =
    Mig_survival.step ~check:t.cfg.paranoid ~tally
      (Axis_inc.source (Axis_inc.snapshot d.d_inc))
      tracked
  in
  Metrics.record t.metrics ~key:"migrate/survival" ~ok:true
    ~ns:(Int64.to_int (Int64.sub (Metrics.monotonic_ns ()) s0));
  let bump counter v =
    ignore (Atomic.fetch_and_add counter v);
    Atomic.get counter
  in
  Metrics.gauge t.metrics ~key:"migrate/survival_evaluated"
    ~value:(bump t.mg_evaluated tally.Mig_survival.evaluated);
  Metrics.gauge t.metrics ~key:"migrate/survival_skipped"
    ~value:(bump t.mg_skipped tally.Mig_survival.skipped);
  if t.cfg.paranoid then
    Metrics.gauge t.metrics ~key:"migrate/survival_mismatch"
      ~value:(bump t.mg_mismatch tally.Mig_survival.mismatches);
  Metrics.gauge t.metrics ~key:"migrate/relabelled"
    ~value:(bump t.mg_relabelled (now.Core.Stats.s_relabelled - before.Core.Stats.s_relabelled));
  Metrics.gauge t.metrics ~key:"migrate/journal_bytes"
    ~value:(bump t.mg_journal_bytes (Journal.log_size j - bytes0));
  Metrics.gauge t.metrics ~key:"migrate/queries_broken" ~value:(bump t.mg_broken broken);
  resp

let exec_migrate t d specs =
  match migrate_precheck specs with
  | Some msg -> P.Err (P.Bad_request, msg)
  | None -> exec_migrate_checked t d specs

let job_migrate t conn slot d ~client ~seq specs t0 =
  job_mutation t conn slot d ~cls:"migrate" ~client ~seq ~nreq:(List.length specs)
    (fun () -> exec_migrate t d specs)
    t0

(* Explicit checkpoints are debounced: below [checkpoint_min_records]
   fresh records the reply is an immediate no-op naming the current
   epoch — the flusher's auto-checkpoint ([checkpoint_every]) still
   bounds log growth. Past the threshold the requester parks until the
   flusher has really absorbed the log into a snapshot. *)
let job_checkpoint t conn slot d t0 =
  if d.d_closed then
    respond t conn slot ~doc:d.d_name "checkpoint" t0
      (P.Err (P.Shutting_down, "document is closing"))
  else begin
    record t ~doc:d.d_name "checkpoint" ~ok:true ~ns:(ns_since t0);
    if d.d_records < t.cfg.checkpoint_min_records then
      send_resp t conn slot (P.Checkpointed (Journal.epoch (journal_of d)))
    else park_ckpt t d conn slot
  end

let dispatch_doc t conn slot d req t0 =
  let direct cls job =
    run_or_defer d (fun () ->
        let resp =
          if d.d_closed then P.Err (P.Shutting_down, "document is closing")
          else
            try job () with
            | Reject (e, msg) -> P.Err (e, msg)
            | Io.Io_error { op; reason; _ } -> P.Err (P.Internal, op ^ ": " ^ reason)
            | e -> P.Err (P.Internal, Printexc.to_string e)
        in
        publish d;
        respond t conn slot ~doc:d.d_name cls t0 resp)
  in
  (* a job that raises before replying still fills its slot, or the
     connection's later replies would wait for it *)
  let guarded cls job =
    run_or_defer d (fun () ->
        try job ()
        with e ->
          respond t conn slot ~doc:d.d_name cls t0 (P.Err (P.Internal, Printexc.to_string e)))
  in
  match req with
  | P.Update { u_client; u_seq; u_ops; _ } ->
    guarded "update" (fun () -> job_update t conn slot d ~client:u_client ~seq:u_seq u_ops t0)
  | P.Migrate { mg_client; mg_seq; mg_specs; _ } ->
    guarded "migrate" (fun () ->
        job_migrate t conn slot d ~client:mg_client ~seq:mg_seq mg_specs t0)
  | P.Labels { lb_limit; _ } -> direct "labels" (fun () -> exec_labels d lb_limit)
  | P.Checkpoint _ -> guarded "checkpoint" (fun () -> job_checkpoint t conn slot d t0)
  | P.Subscribe { sb_replica; _ } ->
    direct "subscribe" (fun () ->
        match exec_subscribe d with
        | P.Sub_ok _ as reply ->
          (* a freshly (re-)subscribed replica has acknowledged nothing of
             the epoch it is about to pull — record it so lag is visible
             during bootstrap, not only after the first ack *)
          Mutex.lock t.acks_mu;
          Hashtbl.replace t.acks (d.d_name, sb_replica) (0, 0);
          Mutex.unlock t.acks_mu;
          reply
        | reply -> reply)
  | P.Replicate { rp_epoch; rp_snap; rp_offset; rp_limit; _ } ->
    direct "replicate" (fun () ->
        exec_replicate d ~epoch:rp_epoch ~snap:rp_snap ~offset:rp_offset ~limit:rp_limit)
  | P.Promote _ -> direct "promote" (fun () -> exec_promote t.cfg d)
  | _ -> assert false

let dispatch_inline t req =
  match req with
  | P.Ping -> P.Pong P.magic
  | P.Metrics -> P.Metrics_r (Metrics.snapshot t.metrics)
  | P.Open { o_doc; o_scheme; o_nodes; o_seed } -> open_doc t o_doc o_scheme o_nodes o_seed
  | P.Query { q_doc; q_pred } -> (
    match find_doc t q_doc with
    | None -> P.Err (P.Unknown_doc, q_doc)
    | Some d -> P.Answer (eval_query (Atomic.get d.d_pub).p_pack q_pred))
  | P.Xpath { xq_doc; xq_src; xq_limit } ->
    serve_wire_query t xq_doc (Query_eval.Q_xpath xq_src) xq_limit
  | P.Twig { tq_doc; tq_src; tq_limit } ->
    serve_wire_query t tq_doc (Query_eval.Q_twig tq_src) tq_limit
  | P.Stats doc -> (
    match find_doc t doc with
    | None -> P.Err (P.Unknown_doc, doc)
    | Some d ->
      let pub = Atomic.get d.d_pub in
      P.Stats_r { pub.p_stats with P.st_lag = doc_lags t doc pub })
  | P.Ack { ak_doc; ak_replica; ak_epoch; ak_offset } -> (
    match find_doc t ak_doc with
    | None -> P.Err (P.Unknown_doc, ak_doc)
    | Some d ->
      Mutex.lock t.acks_mu;
      Hashtbl.replace t.acks (ak_doc, ak_replica) (ak_epoch, ak_offset);
      Mutex.unlock t.acks_mu;
      let lag = lag_of (Atomic.get d.d_pub) (ak_epoch, ak_offset) in
      Metrics.record t.metrics ~key:(Printf.sprintf "repl/%s/lag" ak_doc) ~ok:true ~ns:lag;
      P.Acked { ac_lag = lag })
  | P.Docs ->
    Mutex.lock t.reg_mu;
    let docs =
      Hashtbl.fold
        (fun name d acc ->
          (name, (Atomic.get d.d_pub).p_scheme, Atomic.get d.d_role = Primary) :: acc)
        t.docs []
    in
    Mutex.unlock t.reg_mu;
    P.Docs_r (List.sort compare docs)
  | P.Update _ | P.Migrate _ | P.Labels _ | P.Checkpoint _ | P.Subscribe _ | P.Replicate _
  | P.Promote _ ->
    assert false

(* Answer a request that needs no document lock and send the reply: the
   inline reads on the loop, an Xpath/Twig cache miss on a query worker. *)
let answer t conn slot req t0 =
  let resp =
    try dispatch_inline t req with
    | Reject (e, msg) -> P.Err (e, msg)
    | Io.Io_error { op; reason; _ } -> P.Err (P.Internal, op ^ ": " ^ reason)
    | e -> P.Err (P.Internal, Printexc.to_string e)
  in
  respond t conn slot ?doc:(doc_of_req req) (P.req_class req) t0 resp

(* ---- query workers --------------------------------------------------

   An Xpath or Twig request that misses its document's answer cache is
   the only read that takes long enough to be worth a hand-off; a hit
   and every other read stay inline on the loop. The workers are
   [Pool.cores ()] domains started through [Pool.Loops] when the first
   miss arrives, so set-up and query-free traffic run on exactly the
   loop domains they would without them.

   Reply order per connection: while a connection has a query in flight,
   its loop leaves it out of the select set and decodes none of its
   buffered frames. The worker sends the reply under [c_send_mu] (as the
   flusher does) and hands the connection back through the loop's
   [l_incoming] list; on re-arm the loop first drains the frames already
   in the connection's decoder. A loop exits only when none of its
   connections is in flight, so no connection is retired or closed under
   a worker. *)

let rec query_worker t =
  Mutex.lock t.q_mu;
  while Queue.is_empty t.q_jobs && not t.q_stop do
    Condition.wait t.q_cond t.q_mu
  done;
  match Queue.take_opt t.q_jobs with
  | None -> Mutex.unlock t.q_mu
  | Some j ->
    Mutex.unlock t.q_mu;
    Metrics.record t.metrics ~key:"query/wait" ~ok:true
      ~ns:(Int64.to_int (Int64.sub (Metrics.monotonic_ns ()) j.qj_queued));
    (* whatever happens, the connection goes back: its loop waits for it *)
    (try answer t j.qj_conn j.qj_slot j.qj_req j.qj_t0
     with e -> t.cfg.log ("query worker: " ^ Printexc.to_string e));
    let ls = j.qj_loop in
    Mutex.lock ls.l_mu;
    ls.l_incoming <- j.qj_conn :: ls.l_incoming;
    ls.l_inflight <- ls.l_inflight - 1;
    Mutex.unlock ls.l_mu;
    wake_loop ls;
    query_worker t

let submit_query t ls conn slot req t0 =
  Mutex.protect ls.l_mu (fun () -> ls.l_inflight <- ls.l_inflight + 1);
  Mutex.lock t.q_mu;
  if Option.is_none t.q_workers then begin
    let n = Pool.cores () in
    t.q_workers <- Some (Pool.Loops.spawn ~domains:n (fun _ -> query_worker t));
    Metrics.gauge t.metrics ~key:"query/workers" ~value:n
  end;
  Queue.push
    { qj_conn = conn; qj_slot = slot; qj_loop = ls; qj_req = req; qj_t0 = t0;
      qj_queued = Metrics.monotonic_ns () }
    t.q_jobs;
  Condition.signal t.q_cond;
  Mutex.unlock t.q_mu

(* Called once every loop has been joined: nothing is in flight, so the
   queue is empty and the workers are idle. *)
let stop_workers t =
  Mutex.lock t.q_mu;
  t.q_stop <- true;
  Condition.broadcast t.q_cond;
  let workers = t.q_workers in
  t.q_workers <- None;
  Mutex.unlock t.q_mu;
  match workers with
  | None -> ()
  | Some w ->
    Pool.Loops.join w;
    Metrics.gauge t.metrics ~key:"query/workers" ~value:0

(* A cache hit is answered here on the loop, at the snapshot it was
   probed against; a miss goes to a query worker, which reads the
   published pair afresh. [true] when it went to a worker. *)
let wire_query t ls conn slot req t0 doc query limit =
  match probe_wire_query t doc query limit with
  | Some resp ->
    respond t conn slot ~doc (P.req_class req) t0 resp;
    false
  | None ->
    submit_query t ls conn slot req t0;
    true

(* Handle one decoded frame; [true] when it went to a query worker. *)
let handle_frame t ls conn payload =
  let t0 = Unix.gettimeofday () in
  let slot = conn.c_next in
  conn.c_next <- slot + 1;
  match P.decode_req payload with
  | Error reason ->
    (* frame boundary held, only the payload is bad — the stream is still
       in sync, so reply and keep going *)
    record t "bad-frame" ~ok:false ~ns:(ns_since t0);
    send_resp t conn slot (P.Err (P.Bad_frame, reason));
    false
  | Ok req -> (
    match req with
    | P.Xpath { xq_doc; xq_src; xq_limit } ->
      wire_query t ls conn slot req t0 xq_doc (Query_eval.Q_xpath xq_src) xq_limit
    | P.Twig { tq_doc; tq_src; tq_limit } ->
      wire_query t ls conn slot req t0 tq_doc (Query_eval.Q_twig tq_src) tq_limit
    | P.Ping | P.Metrics | P.Open _ | P.Query _ | P.Stats _ | P.Ack _ | P.Docs ->
      answer t conn slot req t0;
      false
    | P.Update _ | P.Migrate _ | P.Labels _ | P.Checkpoint _ | P.Subscribe _ | P.Replicate _
    | P.Promote _ ->
      let doc = Option.get (doc_of_req req) in
      (match find_doc t doc with
      | None -> respond t conn slot ~doc (P.req_class req) t0 (P.Err (P.Unknown_doc, doc))
      | Some d -> dispatch_doc t conn slot d req t0);
      false)

(* ---- the event loop ------------------------------------------------- *)

(* Where a connection goes once its buffered frames are handled. *)
type next =
  | Poll  (** back into the select set *)
  | Busy  (** a query worker has it *)
  | Drop  (** retire it *)

(* Handle every whole frame in the connection's decoder, stopping at a
   hand-off to a query worker: the frames behind it wait in the decoder
   until the connection is re-armed. *)
let rec pump t ls conn =
  match Wire.Decoder.next conn.c_dec with
  | `More -> if Mutex.protect conn.c_send_mu (fun () -> conn.c_alive) then Poll else Drop
  | `Bad reason ->
    (* a torn frame means the stream is out of sync: answer once so
       the client learns why, then hang up *)
    record t "bad-frame" ~ok:false ~ns:0;
    let slot = conn.c_next in
    conn.c_next <- slot + 1;
    send_resp t conn slot (P.Err (P.Bad_frame, reason));
    Drop
  | `Frame payload -> (
    match handle_frame t ls conn payload with
    | true -> Busy
    | false -> pump t ls conn
    | exception e ->
      (* the frame took its slot first: answer it, or every later reply
         waits behind it and the connection never drains *)
      t.cfg.log ("conn: " ^ Printexc.to_string e);
      send_resp t conn (conn.c_next - 1) (P.Err (P.Internal, Printexc.to_string e));
      pump t ls conn)

(* Service one readable connection: read what the socket has, feed the
   decoder, pump it. *)
let service t ls buf conn =
  match t.cfg.sock.Io.s_recv conn.c_fd buf 0 (Bytes.length buf) with
  | exception Io.Io_error { reason; _ } ->
    t.cfg.log ("conn recv: " ^ reason);
    Drop
  | 0 -> Drop
  | n ->
    conn.c_last <- Unix.gettimeofday ();
    Wire.Decoder.feed conn.c_dec buf 0 n;
    pump t ls conn

let gauge_loop_util t idx ~busy ~total ~polls =
  if total > 0. then
    Metrics.gauge t.metrics
      ~key:(Printf.sprintf "loop/%d/util_pct" idx)
      ~value:(int_of_float (100. *. busy /. total));
  Metrics.gauge t.metrics ~key:(Printf.sprintf "loop/%d/polls" idx) ~value:polls

let event_loop t ls =
  let buf = Bytes.create 65536 in
  let wake_buf = Bytes.create 64 in
  let conns = ref [] in
  let busy = ref 0. and idle = ref 0. and polls = ref 0 in
  let last_gauge = ref (Unix.gettimeofday ()) in
  (* arm what accept dealt and what the workers handed back, draining the
     frames a handed-back connection already has buffered *)
  let take_incoming () =
    Mutex.lock ls.l_mu;
    let fresh = ls.l_incoming in
    ls.l_incoming <- [];
    Mutex.unlock ls.l_mu;
    let now = Unix.gettimeofday () in
    List.iter
      (fun c ->
        c.c_last <- now;
        match pump t ls c with
        | Poll -> conns := c :: !conns
        | Busy -> ()
        | Drop -> retire t c)
      (List.rev fresh)
  in
  let quiet () = Mutex.protect ls.l_mu (fun () -> ls.l_inflight = 0 && ls.l_incoming = []) in
  let rec run () =
    let t_enter = Unix.gettimeofday () in
    let fds = ls.l_wake_r :: List.map (fun c -> c.c_fd) !conns in
    let ready =
      try t.cfg.sock.Io.s_select fds 0.25
      with Io.Io_error { reason; _ } ->
        t.cfg.log ("loop select: " ^ reason);
        []
    in
    let t_awake = Unix.gettimeofday () in
    idle := !idle +. (t_awake -. t_enter);
    incr polls;
    if List.mem ls.l_wake_r ready then begin
      (try ignore (Unix.read ls.l_wake_r wake_buf 0 (Bytes.length wake_buf))
       with Unix.Unix_error _ -> ());
      take_incoming ()
    end;
    let now = Unix.gettimeofday () in
    conns :=
      List.filter
        (fun c ->
          let next =
            if List.mem c.c_fd ready then service t ls buf c
            else if t.cfg.recv_timeout <= 0. || now -. c.c_last <= t.cfg.recv_timeout then Poll
            else begin
              t.cfg.log "conn recv: timed out";
              Drop
            end
          in
          if next = Drop then retire t c;
          next = Poll)
        !conns;
    busy := !busy +. (Unix.gettimeofday () -. t_awake);
    if now -. !last_gauge > 0.5 then begin
      last_gauge := now;
      gauge_loop_util t ls.l_idx ~busy:!busy ~total:(!busy +. !idle) ~polls:!polls
    end;
    if Atomic.get t.closing then begin
      take_incoming ();
      if !conns <> [] || not (quiet ()) then run ()
      else gauge_loop_util t ls.l_idx ~busy:!busy ~total:(!busy +. !idle) ~polls:!polls
    end
    else run ()
  in
  run ()

(* ---- the group-commit flusher ---------------------------------------

   One thread owns the commit cycle: take the dirty-document set, fsync
   every journal that is behind (fanning the fsyncs out across helper
   threads — they really run in parallel because the runtime lock is
   released around the syscall), release every parked reply the new
   durable watermark covers, then run coalesced checkpoints off the
   request path. With [commit_interval_us = 0] the cycle is
   self-clocking: the next batch accumulates for exactly as long as the
   previous fsync takes. *)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0 else sorted.(min (n - 1) (int_of_float (float_of_int n *. p)))

let flush_gauges t =
  let n = min t.ring_n ring_size in
  if n > 0 then begin
    let batch = Array.sub t.ring_batch 0 n in
    let fl = Array.sub t.ring_flush_us 0 n in
    Array.sort compare batch;
    Array.sort compare fl;
    Metrics.gauge t.metrics ~key:"commit/batch_p50" ~value:(percentile batch 0.50);
    Metrics.gauge t.metrics ~key:"commit/batch_p99" ~value:(percentile batch 0.99);
    Metrics.gauge t.metrics ~key:"commit/flush_us_p50" ~value:(percentile fl 0.50);
    Metrics.gauge t.metrics ~key:"commit/flush_us_p99" ~value:(percentile fl 0.99)
  end;
  Metrics.gauge t.metrics ~key:"commit/parked"
    ~value:(Mutex.protect t.f_mu (fun () -> t.f_pending))

(* release every parked reply of [d] covered by its durable watermark *)
let release_covered t d =
  let durable = Journal.durable_position (journal_of d) in
  Mutex.lock t.f_mu;
  let rel = ref [] in
  let rec pop () =
    match Queue.peek_opt d.d_parked with
    | Some pk when Journal.covers ~durable pk.pk_pos ->
      ignore (Queue.pop d.d_parked);
      pk.pk_conn.c_inflight <- pk.pk_conn.c_inflight - pk.pk_bytes;
      rel := pk :: !rel;
      pop ()
    | _ -> ()
  in
  pop ();
  let released = List.rev !rel in
  t.f_pending <- t.f_pending - List.length released;
  if t.f_pending > 0 then t.f_first <- Unix.gettimeofday ();
  Mutex.unlock t.f_mu;
  List.iter (fun pk -> send_resp t pk.pk_conn pk.pk_slot pk.pk_resp) released;
  List.length released

(* Coalesced checkpoint of one document, under the doc lock (deferred
   mutations run right after, off the request path). Explicit waiters —
   all of them — get the one resulting epoch. *)
let checkpoint_doc t d =
  run_sync d (fun () ->
      let waiters =
        Mutex.protect t.f_mu (fun () ->
            let w = d.d_ckpt_waiters in
            d.d_ckpt_waiters <- [];
            w)
      in
      if d.d_closed then
        List.iter
          (fun (conn, slot) -> send_resp t conn slot (P.Err (P.Shutting_down, "document is closing")))
          waiters
      else begin
        let due = waiters <> [] || auto_ckpt_due t d in
        let resp =
          if not due then P.Checkpointed (Journal.epoch (journal_of d))
          else
            match Durable_session.checkpoint d.d_durable with
            | () ->
              d.d_records <- 0;
              (* the checkpoint absorbed the Marks into the snapshot where
                 recovery cannot see them: rewrite the live watermarks into
                 the fresh epoch's log *)
              (try rejournal_marks d
               with Io.Io_error { op; reason; _ } ->
                 t.cfg.log ("rejournal marks: " ^ op ^ ": " ^ reason));
              publish d;
              P.Checkpointed (Journal.epoch (journal_of d))
            | exception Io.Io_error { op; reason; _ } ->
              P.Err (P.Internal, op ^ ": " ^ reason)
        in
        List.iter (fun (conn, slot) -> send_resp t conn slot resp) waiters;
        (* the epoch advance covers everything parked before it *)
        if due then ignore (release_covered t d)
      end)

let flush_docs t docs =
  let behind = List.filter (fun d -> Journal.behind (journal_of d)) docs in
  let flush1 d =
    try Journal.flush (journal_of d)
    with Io.Io_error { op; reason; _ } -> t.cfg.log ("flush: " ^ op ^ ": " ^ reason)
  in
  match behind with
  | [] -> ()
  | [ d ] -> flush1 d
  | d0 :: rest when Pool.cores () > 1 ->
    (* fan the fsyncs out: each helper thread blocks in the kernel with
       the runtime lock released, so independent journals sync in
       parallel on a multi-queue device *)
    let helpers = List.map (fun d -> Thread.create flush1 d) rest in
    flush1 d0;
    List.iter Thread.join helpers
  | docs ->
    (* one core: fan-out buys no device parallelism and costs a thread
       spawn per dirty journal per cycle *)
    List.iter flush1 docs

let flush_cycle t docs =
  let t0 = Unix.gettimeofday () in
  flush_docs t docs;
  let flush_us = int_of_float ((Unix.gettimeofday () -. t0) *. 1e6) in
  let released = List.fold_left (fun acc d -> acc + release_covered t d) 0 docs in
  let need_ckpt =
    List.filter
      (fun d ->
        auto_ckpt_due t d
        || Mutex.protect t.f_mu (fun () -> d.d_ckpt_waiters <> []))
      docs
  in
  List.iter (checkpoint_doc t) need_ckpt;
  if released > 0 || flush_us > 0 then begin
    let slot = t.ring_n mod ring_size in
    t.ring_batch.(slot) <- released;
    t.ring_flush_us.(slot) <- flush_us;
    t.ring_n <- t.ring_n + 1;
    Metrics.record t.metrics ~key:"commit/flush" ~ok:true ~ns:(flush_us * 1000);
    if t.ring_n mod 16 = 0 then flush_gauges t
  end

let flusher_loop t =
  let interval_s = float_of_int t.cfg.commit_interval_us /. 1e6 in
  let wake_buf = Bytes.create 64 in
  let sleep dt =
    match Unix.select [ t.f_wake_r ] [] [] dt with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | [], _, _ -> ()
    | _ -> (
      try ignore (Unix.read t.f_wake_r wake_buf 0 (Bytes.length wake_buf))
      with Unix.Unix_error _ -> ())
  in
  (* [skip_if_dirty] closes the lost-wakeup race on the idle nap: a park
     that fired before [f_sleeping] was set wrote no wake byte, so
     re-check the dirty list under the same lock that sets the flag. The
     interval nap deliberately sleeps regardless — it is bounded, and a
     batch reaching [commit_max] mid-nap does write a byte. *)
  let nap ~skip_if_dirty dt =
    Mutex.lock t.f_mu;
    let skip = t.f_stop || (skip_if_dirty && t.f_dirty <> []) in
    if not skip then t.f_sleeping <- true;
    Mutex.unlock t.f_mu;
    if not skip then begin
      sleep dt;
      Mutex.lock t.f_mu;
      t.f_sleeping <- false;
      Mutex.unlock t.f_mu
    end
  in
  (* Between cycles under sustained load, the next park arrives within
     microseconds: burn a few scheduler yields looking for it before
     paying for the select nap — the parker is spared the wake-pipe
     write (it only writes when [f_sleeping] is set) and the flusher the
     select round-trip, which at batch size ~1 would otherwise tax every
     mutation with a pipe-and-context-switch cycle. *)
  let spin_for_work () =
    let rec go n =
      if n = 0 then false
      else begin
        Thread.yield ();
        Mutex.lock t.f_mu;
        let found = t.f_stop || t.f_dirty <> [] in
        Mutex.unlock t.f_mu;
        found || go (n - 1)
      end
    in
    go 16
  in
  let rec run () =
    Mutex.lock t.f_mu;
    if t.f_stop then Mutex.unlock t.f_mu
    else if t.f_dirty = [] then begin
      Mutex.unlock t.f_mu;
      if not (spin_for_work ()) then nap ~skip_if_dirty:true 0.2;
      run ()
    end
    else begin
      (* batch growing: wait out the commit interval unless it is full *)
      let age = Unix.gettimeofday () -. t.f_first in
      if
        interval_s > 0.
        && t.f_pending > 0
        && t.f_pending < t.cfg.commit_max
        && age < interval_s
      then begin
        Mutex.unlock t.f_mu;
        nap ~skip_if_dirty:false (max 0.0002 (interval_s -. age));
        run ()
      end
      else begin
        let docs = t.f_dirty in
        t.f_dirty <- [];
        List.iter (fun d -> d.d_enrolled <- false) docs;
        Mutex.unlock t.f_mu;
        flush_cycle t docs;
        run ()
      end
    end
  in
  run ()

(* ---- the replication manager ---------------------------------------

   Runs on a replica server ([config.replica_of]). A pull loop: list the
   upstream's documents, bootstrap a follower doc for each new one
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

(* Tear a follower doc down without checkpointing: the local journal
   stays as-is on disk (it may be promoted later); the replacement will
   overwrite it when it re-bootstraps. *)
let remove_follower t d =
  Mutex.lock t.reg_mu;
  Hashtbl.remove t.docs d.d_name;
  Mutex.unlock t.reg_mu;
  run_sync d (fun () ->
      d.d_closed <- true;
      Axis_inc.detach d.d_inc;
      try Durable_session.close d.d_durable with Io.Io_error _ -> ())

let bootstrap_follower t c doc =
  match
    mgr_request c (P.Subscribe { sb_doc = doc; sb_replica = t.cfg.replica_name })
  with
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
          if sh_offset <> Buffer.length buf || sh_total <> su_snap_bytes || sh_data = ""
          then raise Mgr_resync;
          Buffer.add_string buf sh_data;
          pull ()
        | _ -> raise (Mgr_drop "unexpected reply to a snapshot fetch"))
    in
    pull ();
    let base = Filename.concat t.cfg.root (doc ^ ".journal") in
    let pos = { Journal.p_epoch = su_epoch; p_offset = su_log_start } in
    match
      Ship.bootstrap ~io:t.cfg.io ~fsync_every:(journal_fsync_every t.cfg) ~base
        ~snapshot:(Buffer.contents buf) ~pos ()
    with
    | f ->
      Mutex.lock t.reg_mu;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.reg_mu)
        (fun () ->
          if Hashtbl.mem t.docs doc then raise Mgr_resync;
          t.cfg.log
            (Printf.sprintf "replication: following %s from %d:%d" doc su_epoch
               su_log_start);
          register_doc t doc ~durable:(Ship.durable f) ~role:Follower ~ship:(Some f))
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

let pump_follower t c acked d =
  match d.d_ship with
  | None -> ()
  | Some f ->
    let rec go budget =
      if budget > 0 && Atomic.get d.d_role = Follower && not (Atomic.get t.closing)
      then begin
        let pos = Ship.position f in
        match
          mgr_request c
            (P.Replicate
               {
                 rp_doc = d.d_name;
                 rp_replica = t.cfg.replica_name;
                 rp_epoch = pos.Journal.p_epoch;
                 rp_snap = false;
                 rp_offset = pos.Journal.p_offset;
                 rp_limit = mgr_chunk;
               })
        with
        | P.Shipped { sh_data = ""; _ } -> ack_position t c acked d.d_name pos
        | P.Shipped { sh_epoch; sh_offset; sh_total = _; sh_data } -> (
          let resp =
            run_sync d (fun () ->
                if d.d_closed then P.Err (P.Shutting_down, "document is closing")
                else begin
                  let r =
                    try exec_apply d ~epoch:sh_epoch ~offset:sh_offset ~data:sh_data with
                    | Io.Io_error { op; reason; _ } -> P.Err (P.Internal, op ^ ": " ^ reason)
                    | e -> P.Err (P.Internal, Printexc.to_string e)
                  in
                  publish d;
                  r
                end)
          in
          match resp with
          | P.Updated _ ->
            ack_position t c acked d.d_name (Ship.position f);
            go (budget - 1)
          | P.Err (P.Stale_pos, _) -> raise Mgr_resync
          | P.Err (P.Shutting_down, _) -> ()
          | resp ->
            raise
              (Mgr_drop
                 (Printf.sprintf "apply on %s failed: %s" d.d_name
                    (match resp with
                    | P.Err (e, m) -> P.err_name e ^ " " ^ m
                    | _ -> "unexpected reply"))))
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
                match find_doc t doc with
                | Some d when Option.is_some d.d_ship -> (
                  try pump_follower t c acked d
                  with Mgr_resync ->
                    t.cfg.log ("replication: re-bootstrapping " ^ doc);
                    Hashtbl.remove acked doc;
                    remove_follower t d)
                | Some _ -> ()  (* a local primary shadows the name; leave it alone *)
                | None -> (
                  Hashtbl.remove acked doc;
                  match bootstrap_follower t c doc with
                  | d -> (
                    try pump_follower t c acked d
                    with Mgr_resync -> remove_follower t d)
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

(* ---- accept loop, lifecycle ---------------------------------------- *)

let accept_loop t =
  let next_loop = ref 0 in
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
                 (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO t.cfg.send_timeout
                  with Unix.Unix_error _ -> ());
                 let conn =
                   {
                     c_fd = fd;
                     c_dec = Wire.Decoder.create ();
                     c_send_mu = Mutex.create ();
                     c_alive = true;
                     c_inflight = 0;
                     c_draining = false;
                     c_closed = false;
                     c_last = Unix.gettimeofday ();
                     c_next = 0;
                     c_sent = 0;
                     c_held = Hashtbl.create 4;
                   }
                 in
                 conn_register t conn;
                 let ls = t.loops.(!next_loop mod Array.length t.loops) in
                 incr next_loop;
                 Mutex.lock ls.l_mu;
                 ls.l_incoming <- conn :: ls.l_incoming;
                 Mutex.unlock ls.l_mu;
                 wake_loop ls
               | exception Io.Io_error { reason; _ } ->
                 Mutex.lock t.conns_mu;
                 t.n_conns <- t.n_conns - 1;
                 Condition.broadcast t.conns_cond;
                 Mutex.unlock t.conns_mu;
                 if not (Atomic.get t.closing) then t.cfg.log ("accept: " ^ reason)));
          loop ()
        end
  in
  loop ()

let gauge_config t =
  Metrics.gauge t.metrics ~key:"cfg/fsync_every" ~value:t.cfg.fsync_every;
  Metrics.gauge t.metrics ~key:"cfg/commit_interval_us" ~value:t.cfg.commit_interval_us;
  Metrics.gauge t.metrics ~key:"cfg/commit_max" ~value:t.cfg.commit_max;
  Metrics.gauge t.metrics ~key:"cfg/loop_domains" ~value:(Array.length t.loops);
  Metrics.gauge t.metrics ~key:"query/workers" ~value:0

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
  let f_wake_r, f_wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock f_wake_r;
  Unix.set_nonblock f_wake_w;
  let n_loops =
    if cfg.loop_domains >= 1 then cfg.loop_domains else max 1 (Pool.cores () - 1)
  in
  let loops =
    Array.init n_loops (fun i ->
        let r, w = Unix.pipe ~cloexec:true () in
        Unix.set_nonblock r;
        Unix.set_nonblock w;
        { l_idx = i; l_wake_r = r; l_wake_w = w; l_mu = Mutex.create (); l_incoming = [];
          l_inflight = 0 })
  in
  let t =
    {
      cfg;
      lfd;
      t_port;
      metrics = Metrics.create ();
      reg_mu = Mutex.create ();
      docs = Hashtbl.create 16;
      conns_mu = Mutex.create ();
      conns_cond = Condition.create ();
      live_conns = [];
      n_conns = 0;
      served = 0;
      closing = Atomic.make false;
      stop_r;
      stop_w;
      accept_thread = Thread.self ();
      loops;
      loop_handle = None;
      stopped = false;
      acks_mu = Mutex.create ();
      acks = Hashtbl.create 8;
      mg_relabelled = Atomic.make 0;
      mg_journal_bytes = Atomic.make 0;
      mg_broken = Atomic.make 0;
      mg_evaluated = Atomic.make 0;
      mg_skipped = Atomic.make 0;
      mg_mismatch = Atomic.make 0;
      mgr_thread = None;
      q_mu = Mutex.create ();
      q_cond = Condition.create ();
      q_jobs = Queue.create ();
      q_stop = false;
      q_workers = None;
      f_mu = Mutex.create ();
      f_pending = 0;
      f_first = 0.;
      f_dirty = [];
      f_stop = false;
      f_sleeping = false;
      f_wake_r;
      f_wake_w;
      flusher_thread = None;
      ring_batch = Array.make ring_size 0;
      ring_flush_us = Array.make ring_size 0;
      ring_n = 0;
    }
  in
  gauge_config t;
  t.loop_handle <-
    Some (Pool.Loops.spawn ~domains:n_loops (fun i -> event_loop t t.loops.(i)));
  t.flusher_thread <- Some (Thread.create flusher_loop t);
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

let join_manager t =
  match t.mgr_thread with
  | None -> ()
  | Some th ->
    t.mgr_thread <- None;
    Thread.join th

(* Shut the transport down: stop accepting, shut the connections' [how]
   side, join the loop domains (every connection EOFs out of its poll
   set, and each loop waits for its queries in flight), stop and join the
   query workers, then the flusher — which keeps releasing parked acks
   for draining connections while the loops empty out. *)
let drain_transport ~how t =
  Thread.join t.accept_thread;
  (try Unix.close t.lfd with Unix.Unix_error _ -> ());
  Mutex.lock t.conns_mu;
  List.iter
    (fun c -> try Unix.shutdown c.c_fd how with Unix.Unix_error _ -> ())
    t.live_conns;
  Mutex.unlock t.conns_mu;
  Array.iter wake_loop t.loops;
  (match t.loop_handle with
  | Some ls ->
    t.loop_handle <- None;
    Pool.Loops.join ls
  | None -> ());
  stop_workers t;
  Mutex.lock t.f_mu;
  t.f_stop <- true;
  wake_flusher t;
  Mutex.unlock t.f_mu;
  match t.flusher_thread with
  | Some th ->
    t.flusher_thread <- None;
    Thread.join th
  | None -> ()

(* Graceful close of every document: final flush, release whatever the
   watermark covers, checkpoint, close. Runs after every loop and the
   flusher have been joined — no concurrency left. *)
let close_docs_graceful t =
  Hashtbl.iter
    (fun _ d ->
      (try Journal.flush (journal_of d) with Io.Io_error _ -> ());
      ignore (release_covered t d);
      (* an fsync failure above leaves uncovered parked replies: the
         journal never made their bytes durable, so the honest answer is
         a shutdown error, not an ack *)
      Mutex.lock t.f_mu;
      let orphans = List.of_seq (Queue.to_seq d.d_parked) in
      Queue.clear d.d_parked;
      t.f_pending <- t.f_pending - List.length orphans;
      let waiters = d.d_ckpt_waiters in
      d.d_ckpt_waiters <- [];
      Mutex.unlock t.f_mu;
      List.iter
        (fun pk ->
          send_resp t pk.pk_conn pk.pk_slot (P.Err (P.Shutting_down, "server stopped before fsync")))
        orphans;
      d.d_closed <- true;
      (* the checkpoint absorbs the Marks: rejournal the window (the close
         flushes it) so a resend after a Shutting_down above dedups *)
      (match Durable_session.checkpoint d.d_durable with
      | () -> (try rejournal_marks d with Io.Io_error _ -> ())
      | exception Io.Io_error _ -> ());
      List.iter
        (fun (conn, slot) -> send_resp t conn slot (P.Checkpointed (Journal.epoch (journal_of d))))
        waiters;
      try Durable_session.close d.d_durable with Io.Io_error _ -> ())
    t.docs

let close_remaining_conns t =
  Mutex.lock t.conns_mu;
  let left = t.live_conns in
  Mutex.unlock t.conns_mu;
  List.iter (close_conn t) left

let stop t =
  trigger t;
  if t.stopped then { s_conns = t.served; s_docs = Hashtbl.length t.docs }
  else begin
    join_manager t;
    (* in-flight requests finish and get their replies: shutting down the
       receive side turns each connection's next read into a clean EOF *)
    drain_transport ~how:Unix.SHUTDOWN_RECEIVE t;
    close_docs_graceful t;
    close_remaining_conns t;
    t.stopped <- true;
    { s_conns = t.served; s_docs = Hashtbl.length t.docs }
  end

let abort t =
  trigger t;
  if not t.stopped then begin
    join_manager t;
    drain_transport ~how:Unix.SHUTDOWN_ALL t;
    (* simulated kill: drop every parked reply unreleased, checkpoint and
       close nothing — recovery makes do with what fsync already covered *)
    Mutex.lock t.f_mu;
    Hashtbl.iter
      (fun _ d ->
        Queue.clear d.d_parked;
        d.d_ckpt_waiters <- [])
      t.docs;
    t.f_pending <- 0;
    Mutex.unlock t.f_mu;
    close_remaining_conns t;
    t.stopped <- true
  end

let port t = t.t_port
let metrics t = t.metrics
let install_sigint t = Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> trigger t))
