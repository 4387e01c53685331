open Repro_xml
open Repro_io

exception Corrupt of string
exception Replay_error of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt
let replay_error fmt = Printf.ksprintf (fun s -> raise (Replay_error s)) fmt

let manifest_magic = "XJM1"
let log_magic = "XJL1"

let snapshot_path ~base ~epoch = Printf.sprintf "%s.%d.snap" base epoch
let log_path ~base ~epoch = Printf.sprintf "%s.%d.log" base epoch

(* ---- file primitives ----------------------------------------------

   Everything below goes through the pluggable {!Repro_io.Io} seam, so
   the journal runs unchanged over the real hardened Unix backend, the
   fault-injecting failpoint backend, and the simulated-crash file system
   the torture harness drives. Raw [Sys_error]/[Unix_error] never reach
   this layer: the seam raises typed {!Io.Io_error}s naming the file. *)

let read_file (io : Io.t) path = io.Io.read_file path
let open_append (io : Io.t) path = io.Io.open_file path Io.Append

(* ---- manifest and log header ------------------------------------- *)

let manifest_content epoch = Printf.sprintf "%s %d\n" manifest_magic epoch

let read_manifest io base =
  if not (io.Io.file_exists base) then corrupt "no journal manifest at %s" base;
  let s =
    try read_file io base
    with Io.Io_error { reason; _ } -> corrupt "journal manifest %s unreadable: %s" base reason
  in
  match Scanf.sscanf s "XJM1 %d" (fun e -> e) with
  | e when e >= 1 -> e
  | _ -> corrupt "bad epoch in journal manifest %s" base
  | exception _ -> corrupt "bad journal manifest %s" base

let log_header scheme = log_magic ^ Repro_codes.Varint.encode (String.length scheme) ^ scheme

(* [Ok (scheme, offset)] past a whole header, or [Error reason] when the
   data ends inside it — a crash during journal creation leaves exactly
   that, so a short header is a torn tail, not corruption. A wrong magic
   on a full-length prefix is real corruption and raises. *)
let parse_log_header data =
  let m = String.length log_magic in
  if String.length data < m then
    if String.equal data (String.sub log_magic 0 (String.length data)) then
      Error "truncated journal header"
    else corrupt "bad journal log magic"
  else if String.sub data 0 m <> log_magic then corrupt "bad journal log magic"
  else
    match Repro_codes.Varint.decode data m with
    | exception Invalid_argument _ -> Error "truncated journal header"
    | n, pos ->
      if pos + n > String.length data then Error "truncated journal header"
      else Ok (String.sub data pos n, pos + n)

(* ---- replay ------------------------------------------------------- *)

(* Records address nodes by encoded label; the resolver inverts
   [label_encoded] over the live document. The table is extended in place
   after inserts and shrunk in place after deletes that relabelled
   nothing, and rebuilt from scratch only when the scheme touched existing
   labels (relabelling or overflow). Labels are read straight from the
   scheme ([label_encoded_direct]): the session's per-revision memo would
   grow to the whole document on a rebuild, only to be dropped by the
   next mutation. Exposed as a submodule: the network server keeps one
   per document actor so a stream of updates resolves incrementally
   instead of rebuilding per record. *)
module Resolver = struct
  type t = {
    rs : Core.Session.t;
    table : (string * int, Tree.node list) Hashtbl.t;
    mutable dirty : bool;
    clock : unit -> int64;
    on_rebuild : int -> unit;
  }

  let create ?(clock = fun () -> 0L) ?(on_rebuild = ignore) rs =
    {
      rs;
      table = Hashtbl.create (max 256 (Tree.size rs.Core.Session.doc));
      dirty = true;
      clock;
      on_rebuild;
    }

  let invalidate r = r.dirty <- true

  let add_node r (n : Tree.node) =
    let key = r.rs.Core.Session.label_encoded_direct n in
    match Hashtbl.find_opt r.table key with
    | None -> Hashtbl.add r.table key [ n ]
    | Some prev -> Hashtbl.replace r.table key (n :: prev)

  (* Remove one physical node from its bucket. The key is captured by the
     caller before the node leaves the document (its label is gone after). *)
  let remove_key r key (n : Tree.node) =
    match Hashtbl.find_opt r.table key with
    | None -> ()
    | Some nodes -> (
      match List.filter (fun m -> m != n) nodes with
      | [] -> Hashtbl.remove r.table key
      | rest -> Hashtbl.replace r.table key rest)

  (* [clear] keeps the bucket array: a relabel leaves the node count
     about where it was, so the table never regrows from scratch *)
  let rebuild r =
    let t0 = r.clock () in
    Hashtbl.clear r.table;
    Tree.iter_preorder (add_node r) r.rs.Core.Session.doc;
    r.dirty <- false;
    r.on_rebuild (Int64.to_int (Int64.sub (r.clock ()) t0))

  let resolve r (l : Oplog.label) =
    if r.dirty then rebuild r;
    match Hashtbl.find_opt r.table (l.Oplog.l_bytes, l.Oplog.l_bits) with
    | Some [ n ] -> n
    | Some (_ :: _ :: _) ->
      replay_error "label %s is ambiguous (duplicate labels in the document)"
        (Oplog.label_to_string l)
    | Some [] | None ->
      replay_error "label %s resolves to no live node" (Oplog.label_to_string l)

  let churn (s : Core.Session.t) =
    let st = s.Core.Session.stats () in
    st.Core.Stats.s_relabelled + st.Core.Stats.s_overflow

  let apply r op =
    let s = r.rs in
    let before = churn s in
    let settled node =
      if churn s <> before then r.dirty <- true
      else if not r.dirty then begin
        add_node r node;
        List.iter (add_node r) (Tree.descendants node)
      end;
      Some node
    in
    match (op : Oplog.op) with
    | Insert_first (l, f) -> settled (s.Core.Session.insert_first (resolve r l) f)
    | Insert_last (l, f) -> settled (s.Core.Session.insert_last (resolve r l) f)
    | Insert_before (l, f) -> settled (s.Core.Session.insert_before (resolve r l) f)
    | Insert_after (l, f) -> settled (s.Core.Session.insert_after (resolve r l) f)
    | Delete l ->
      let victim = resolve r l in
      (* Capture the subtree's keys before the delete invalidates the
         labels, so a churn-free delete shrinks the table in place
         instead of flagging a full O(n) rebuild (the old behaviour —
         ruinous under a delete-heavy network workload). *)
      let removed = ref [] in
      if not r.dirty then begin
        let key n = (s.Core.Session.label_encoded_direct n, n) in
        removed := [ key victim ];
        Tree.iter_descendants (fun n -> removed := key n :: !removed) victim
      end;
      s.Core.Session.delete victim;
      if churn s <> before then r.dirty <- true
      else if not r.dirty then
        List.iter (fun (k, n) -> remove_key r k n) !removed;
      None
    | Replace_value (l, v) ->
      s.Core.Session.set_value (resolve r l) v;
      None
    | Rename (l, name) ->
      s.Core.Session.rename (resolve r l) name;
      None
    | Mark _ ->
      (* dedup watermark: no tree effect, carried for the server's
         exactly-once window *)
      None
end

let apply session op = ignore (Resolver.apply (Resolver.create session) op)

(* ---- the open journal -------------------------------------------- *)

type t = {
  base : string;
  io : Io.t;
  t_scheme : string;
  fsync_every : int;
  mutable t_epoch : int;
  mutable fd : Io.file;
  mutable t_pending : int;  (** appends since the last fsync *)
  mutable t_appended : int;
  mutable t_size : int;
  mutable t_synced : int;  (** log bytes covered by an fsync *)
  (* Group commit runs [flush] from a flusher thread concurrently with
     [append] from the thread holding the document lock. [jmu] guards
     every counter; the fsync itself runs {e outside} the lock (it is
     the slow part and the whole point of flushing concurrently), with
     [syncing] serializing overlapping flushes. The caller contract is
     unchanged for single-threaded use: one appender at a time, and
     [checkpoint]/[close] never concurrent with [append]. *)
  jmu : Mutex.t;
  mutable syncing : bool;
  sync_done : Condition.t;
}

type position = { p_epoch : int; p_offset : int }

let position_to_string { p_epoch; p_offset } = Printf.sprintf "%d:%d" p_epoch p_offset

let covers ~durable p =
  (* A later epoch means a checkpoint happened: the snapshot that opened
     it captured every earlier append, so the whole prior epoch is
     durable by construction. *)
  durable.p_epoch > p.p_epoch
  || (durable.p_epoch = p.p_epoch && durable.p_offset >= p.p_offset)

let scheme_name t = t.t_scheme
let epoch t = t.t_epoch
let appended t = t.t_appended
let log_size t = t.t_size
let pending t = t.t_pending

let position t =
  Mutex.protect t.jmu (fun () -> { p_epoch = t.t_epoch; p_offset = t.t_size })

let durable_position t =
  Mutex.protect t.jmu (fun () -> { p_epoch = t.t_epoch; p_offset = t.t_synced })

let behind t = Mutex.protect t.jmu (fun () -> t.t_synced < t.t_size)

let flush t =
  (* On fsync failure the counters stay put: the records are written but
     not durable, and a later flush (or close) will try again — though
     after a failed fsync the bytes' fate is the kernel's secret, which is
     why the Io layer never silently retries fsync itself. *)
  Mutex.lock t.jmu;
  while t.syncing do
    Condition.wait t.sync_done t.jmu
  done;
  if t.t_synced >= t.t_size then begin
    t.t_pending <- 0;
    Mutex.unlock t.jmu
  end
  else begin
    (* fsync makes durable everything written before the call, so any
       append racing in after this point simply isn't covered yet *)
    let target = t.t_size in
    let covered = t.t_pending in
    t.syncing <- true;
    Mutex.unlock t.jmu;
    let outcome = try Ok (t.fd.Io.f_fsync ()) with e -> Error e in
    Mutex.lock t.jmu;
    t.syncing <- false;
    (match outcome with
    | Ok () ->
      if target > t.t_synced then t.t_synced <- target;
      t.t_pending <- max 0 (t.t_pending - covered)
    | Error _ -> ());
    Condition.broadcast t.sync_done;
    Mutex.unlock t.jmu;
    match outcome with Ok () -> () | Error e -> raise e
  end

let append t op =
  let r = Oplog.encode_record op in
  let size_before = Mutex.protect t.jmu (fun () -> t.t_size) in
  (try t.fd.Io.f_write r
   with Io.Io_error _ as e ->
     (* The write may have landed partially, which would leave a torn
        record in the middle of the log and silently cut off everything
        appended after it. Cut the log back to the last whole record so
        the journal stays appendable, then surface the failure. *)
     (try
        t.fd.Io.f_truncate size_before;
        t.fd.Io.f_fsync ()
      with Io.Io_error _ -> ());
     raise e);
  let do_flush =
    Mutex.protect t.jmu (fun () ->
        t.t_size <- t.t_size + String.length r;
        t.t_appended <- t.t_appended + 1;
        t.t_pending <- t.t_pending + 1;
        t.t_pending >= t.fsync_every)
  in
  if do_flush then flush t

let close t =
  (* Always release the descriptor, even when the final flush fails. *)
  Fun.protect ~finally:(fun () -> t.fd.Io.f_close ()) (fun () -> flush t)

(* Install epoch [e]: snapshot first, then a fresh log, then the manifest
   swing — the manifest always names a pair that is fully on disk. Each
   [write_atomic] fsyncs the file before its rename and the directory
   after it, so the ordering holds across power loss, not just across
   process death. *)
let install_epoch ~io ~base ~scheme ~snapshot e =
  Io.write_atomic io (snapshot_path ~base ~epoch:e) snapshot;
  Io.write_atomic io (log_path ~base ~epoch:e) (log_header scheme);
  Io.write_atomic io base (manifest_content e)

let create ?(io = Io.real) ?(fsync_every = 1) ~base session =
  if fsync_every < 1 then invalid_arg "Journal.create: fsync_every must be positive";
  let scheme = session.Core.Session.scheme_name in
  (* A journal may already live at [base] — a replica re-bootstrapping onto
     its previous follower state. Installing epoch 1 over it would pair the
     fresh snapshot with the stale epoch-1 log, so supersede instead: the
     new journal takes one epoch past whatever the old manifest names, and
     the manifest swing (atomic, as always) is the instant the old journal
     dies. A crash anywhere before the swing recovers the old journal
     untouched. *)
  let e =
    if io.Io.file_exists base then
      match read_manifest io base with old -> old + 1 | exception Corrupt _ -> 1
    else 1
  in
  install_epoch ~io ~base ~scheme ~snapshot:(Repro_storage.Store.save session) e;
  if e > 1 then begin
    (try io.Io.remove (snapshot_path ~base ~epoch:(e - 1)) with Io.Io_error _ -> ());
    (try io.Io.remove (log_path ~base ~epoch:(e - 1)) with Io.Io_error _ -> ())
  end;
  {
    base;
    io;
    t_scheme = scheme;
    fsync_every;
    t_epoch = e;
    fd = open_append io (log_path ~base ~epoch:e);
    t_pending = 0;
    t_appended = 0;
    t_size = String.length (log_header scheme);
    t_synced = String.length (log_header scheme);
    jmu = Mutex.create ();
    syncing = false;
    sync_done = Condition.create ();
  }

let checkpoint t session =
  if session.Core.Session.scheme_name <> t.t_scheme then
    corrupt "checkpoint under scheme %S into a %S journal"
      session.Core.Session.scheme_name t.t_scheme;
  let old = t.t_epoch in
  let e = old + 1 in
  install_epoch ~io:t.io ~base:t.base ~scheme:t.t_scheme
    ~snapshot:(Repro_storage.Store.save session) e;
  (* don't close the descriptor out from under a concurrent flush *)
  Mutex.lock t.jmu;
  while t.syncing do
    Condition.wait t.sync_done t.jmu
  done;
  (try t.fd.Io.f_close () with Io.Io_error _ -> ());
  (try t.io.Io.remove (snapshot_path ~base:t.base ~epoch:old) with Io.Io_error _ -> ());
  (try t.io.Io.remove (log_path ~base:t.base ~epoch:old) with Io.Io_error _ -> ());
  t.t_epoch <- e;
  t.fd <- open_append t.io (log_path ~base:t.base ~epoch:e);
  t.t_pending <- 0;
  t.t_size <- String.length (log_header t.t_scheme);
  t.t_synced <- t.t_size;
  Mutex.unlock t.jmu

(* ---- recovery ----------------------------------------------------- *)

type recovery = {
  r_epoch : int;
  r_scheme : string;
  r_snapshot_nodes : int;
  r_records : int;
  r_bytes : int;
  r_log_bytes : int;
  r_torn : string option;
}

let load_snapshot ~io ?scheme path =
  match Repro_storage.Store.load_file ~io ?scheme path with
  | session -> session
  | exception Repro_storage.Store.Corrupt msg -> corrupt "snapshot %s: %s" path msg
  | exception Io.Io_error { op; reason; _ } ->
    corrupt "snapshot %s unreadable (%s: %s)" path op reason

let read_log_ops ~io ~expect_scheme path =
  let data =
    try read_file io path
    with Io.Io_error { op; reason; _ } -> corrupt "log %s unreadable (%s: %s)" path op reason
  in
  match parse_log_header data with
  | Error reason -> (`Rewrite_header, [], 0, Some reason, String.length data)
  | Ok (scheme, off) ->
    if scheme <> expect_scheme then
      corrupt "log written by %S, snapshot by %S" scheme expect_scheme;
    let ops, valid_end, torn = Oplog.read_all data ~pos:off in
    (`Valid_prefix valid_end, ops, valid_end - off, torn, String.length data)

let recover ?(io = Io.real) ?scheme ?(fsync_every = 1) ~base () =
  if fsync_every < 1 then invalid_arg "Journal.recover: fsync_every must be positive";
  let e = read_manifest io base in
  let session = load_snapshot ~io ?scheme (snapshot_path ~base ~epoch:e) in
  let expect_scheme = session.Core.Session.scheme_name in
  let lpath = log_path ~base ~epoch:e in
  let tail, ops, bytes, torn, log_bytes = read_log_ops ~io ~expect_scheme lpath in
  let snapshot_nodes = Tree.size session.Core.Session.doc in
  let resolver = Resolver.create session in
  List.iter (fun op -> ignore (Resolver.apply resolver op)) ops;
  (* drop the torn tail (or a broken header) before appending again; the
     truncation is fsynced so the dropped bytes cannot resurface after a
     crash and resurrect a record recovery decided to discard *)
  let fd =
    match tail with
    | `Rewrite_header ->
      Io.write_atomic io lpath (log_header expect_scheme);
      open_append io lpath
    | `Valid_prefix valid_end ->
      let fd = open_append io lpath in
      if valid_end < log_bytes then begin
        fd.Io.f_truncate valid_end;
        fd.Io.f_fsync ()
      end;
      fd
  in
  let t_size =
    match tail with
    | `Rewrite_header -> String.length (log_header expect_scheme)
    | `Valid_prefix valid_end -> valid_end
  in
  let t =
    {
      base;
      io;
      t_scheme = expect_scheme;
      fsync_every;
      t_epoch = e;
      fd;
      t_pending = 0;
      t_appended = 0;
      t_size;
      t_synced = t_size;
      jmu = Mutex.create ();
      syncing = false;
      sync_done = Condition.create ();
    }
  in
  let recovery =
    {
      r_epoch = e;
      r_scheme = expect_scheme;
      r_snapshot_nodes = snapshot_nodes;
      r_records = List.length ops;
      r_bytes = bytes;
      r_log_bytes = log_bytes;
      r_torn = torn;
    }
  in
  (t, session, recovery)

(* ---- journal shipping (primary side) ------------------------------ *)

let log_start t = String.length (log_header t.t_scheme)

let snapshot_bytes t =
  let path = snapshot_path ~base:t.base ~epoch:t.t_epoch in
  try read_file t.io path
  with Io.Io_error { op; reason; _ } -> corrupt "snapshot %s unreadable (%s: %s)" path op reason

let ship t ~from ~limit =
  let hdr = log_start t in
  (* capture the watermark once: appends may race the file read below,
     but only past [synced], which the walk never crosses *)
  let synced = Mutex.protect t.jmu (fun () -> t.t_synced) in
  let t = { t with t_synced = synced } in
  if from < hdr || from > t.t_synced then
    corrupt "ship offset %d outside the durable log [%d, %d] of %s" from hdr t.t_synced t.base;
  if from = t.t_synced then ("", t.t_synced)
  else begin
    let path = log_path ~base:t.base ~epoch:t.t_epoch in
    let data =
      try read_file t.io path
      with Io.Io_error { op; reason; _ } -> corrupt "log %s unreadable (%s: %s)" path op reason
    in
    if String.length data < t.t_synced then
      corrupt "log %s shorter (%d) than its durable prefix (%d)" path (String.length data)
        t.t_synced;
    (* Whole records only, durable bytes only. At least one record is
       always shipped, even when it alone exceeds [limit] — otherwise a
       record larger than the caller's batch size would wedge a replica
       at that offset forever. *)
    let rec walk pos =
      if pos >= t.t_synced then pos
      else
        match Oplog.read_record data pos with
        | Oplog.Record (_, next) when next <= t.t_synced ->
          if pos > from && next - from > limit then pos else walk next
        | Oplog.Record _ | Oplog.End_of_log ->
          (* a frame straddling the durable boundary is not shippable yet *)
          pos
        | Oplog.Torn reason ->
          corrupt "log %s torn inside its durable prefix at %d: %s" path pos reason
    in
    let stop = walk from in
    if stop = from then
      corrupt "ship offset %d of %s is not on a record boundary" from t.base;
    (String.sub data from (stop - from), t.t_synced)
  end

let inspect ?(io = Io.real) ~base () =
  let e = read_manifest io base in
  let lpath = log_path ~base ~epoch:e in
  let data =
    try read_file io lpath
    with Io.Io_error { op; reason; _ } -> corrupt "log %s unreadable (%s: %s)" lpath op reason
  in
  match parse_log_header data with
  | Error reason -> ("", [], Some reason)
  | Ok (scheme, off) ->
    let ops, _, torn = Oplog.read_all data ~pos:off in
    (scheme, ops, torn)
