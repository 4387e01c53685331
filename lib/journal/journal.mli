(** A durable, replayable update log layered on the snapshot {!Repro_storage.Store}.

    The store alone only persists full snapshots: every update between two
    [Store.save] calls dies with the process. This module closes that gap
    with a write-ahead log — each mutating operation is appended (and
    batch-fsynced) as an {!Oplog} record {e before} it is applied, so after
    a crash the last snapshot plus the log tail reconstruct the session.

    On-disk layout, all under one caller-chosen [base] path:
    {v
    <base>            manifest: "XJM1 <epoch>"   (atomically renamed)
    <base>.<E>.snap   Store snapshot of epoch E
    <base>.<E>.log    "XJL1" + varint scheme-name + Oplog records
    v}

    {!checkpoint} writes the epoch-[E+1] snapshot and an empty epoch-[E+1]
    log, then atomically swings the manifest — a crash at any point leaves
    the manifest naming a consistent (snapshot, log) pair, so recovery can
    neither double-apply a record nor lose a committed one.

    {!recover} loads the manifest's snapshot and replays the log tail,
    stopping cleanly at the first torn or corrupt record: a crash mid-write
    costs at most the unsynced tail, never an exception and never a
    partially applied record.

    Replay determinism contract: records address nodes by encoded label,
    and replay re-runs label assignment from the snapshot, so the bound
    scheme's [restore] must leave it assigning exactly the labels the live
    session would have assigned (the {!Core.Scheme.S.restore} contract,
    which the persistent-label schemes of §5.2 satisfy).

    All file access goes through the pluggable {!Repro_io.Io} seam
    ([?io], default {!Repro_io.Io.real}): the hardened Unix backend in
    production, the failpoint and simulated-crash backends under test.
    IO failures surface as typed {!Repro_io.Io.Io_error}s (append/flush)
    or {!Corrupt} naming the failing file (recovery) — never as a raw
    [Sys_error] or [Unix_error]. A failed append truncates the log back
    to the last whole record, so the journal stays appendable and a
    partially written frame cannot sever the records behind it. *)

exception Corrupt of string
(** A damaged manifest or journal header, a scheme mismatch between log
    and snapshot, or a corrupt snapshot ({!Repro_storage.Store.Corrupt} is
    re-raised as this). Torn log {e tails} never raise — they are reported
    in {!recovery}. *)

exception Replay_error of string
(** A structurally valid record whose target label resolves to no live
    node (or to several): the log and the snapshot disagree, e.g. because
    they were produced by different documents. *)

type t
(** An open journal, ready to append. *)

val create : ?io:Repro_io.Io.t -> ?fsync_every:int -> base:string -> Core.Session.t -> t
(** [create ~base session] starts a fresh journal: snapshot the session,
    write an empty log, write the manifest. On a clean [base] that is
    epoch 1; when a journal already lives there (a replica
    re-bootstrapping onto its old follower state) the new journal takes
    one epoch past the old manifest's, so the atomic manifest swing is
    the instant the old journal is superseded — a crash before it
    recovers the old journal untouched, never a mixed pair. [fsync_every]
    (default 1) batches commits: the log is fsynced after every n-th
    appended record — larger batches trade the tail of a crash for
    throughput. *)

val append : t -> Oplog.op -> unit
(** Serialise and write one record; fsyncs when the batch is due.

    Thread-safety contract (the group-commit server relies on it): one
    appender at a time, but {!flush} may run concurrently from another
    thread — counters are lock-protected and the fsync itself runs
    outside the lock. {!checkpoint} and {!close} must never race
    [append]. *)

val flush : t -> unit
(** Force the log to disk now, regardless of the batch counter. Safe to
    call from a thread other than the appender's: overlapping flushes
    serialize, and the durable watermark only advances to cover bytes
    written before the fsync began. *)

val checkpoint : t -> Core.Session.t -> unit
(** Absorb the log into a fresh snapshot and reset it (see above for the
    crash-safe ordering). The previous epoch's files are removed once the
    manifest points past them. *)

val close : t -> unit
(** [flush] and release the log descriptor. *)

type recovery = {
  r_epoch : int;
  r_scheme : string;
  r_snapshot_nodes : int;  (** nodes restored from the snapshot *)
  r_records : int;  (** whole valid records replayed *)
  r_bytes : int;  (** bytes of those records (the log's valid prefix) *)
  r_log_bytes : int;  (** log size found on disk, torn tail included *)
  r_torn : string option;  (** why reading stopped early, if it did *)
}

val recover :
  ?io:Repro_io.Io.t -> ?scheme:Core.Scheme.packed -> ?fsync_every:int -> base:string ->
  unit -> t * Core.Session.t * recovery
(** Load the manifest's snapshot, replay every whole valid record of its
    log, truncate any torn tail (fsyncing the truncation), and reopen for
    appending. Raises {!Corrupt} only for damage outside the log tail
    (see above) — a missing or unreadable snapshot or log raises
    {!Corrupt} naming the failing file. *)

val inspect : ?io:Repro_io.Io.t -> base:string -> unit -> string * Oplog.op list * string option
(** [(scheme, records, torn reason)] — decodes the current log without
    touching the snapshot or replaying anything. *)

val scheme_name : t -> string
val epoch : t -> int
val appended : t -> int
(** Records appended through this handle since it was opened. *)

val log_size : t -> int
(** Current log length in bytes, header included. *)

val pending : t -> int
(** Appended records not yet covered by an fsync. *)

type position = { p_epoch : int; p_offset : int }
(** A point in the journal's history: the epoch and a byte offset into
    that epoch's log (header included). Positions are only comparable
    within one epoch — a checkpoint starts a new epoch whose offsets
    restart at the header. *)

val position_to_string : position -> string
(** ["<epoch>:<offset>"]. *)

val position : t -> position
(** The current end of the log — every byte written, fsynced or not. *)

val durable_position : t -> position
(** The end of the fsync-covered prefix. Everything at or before this
    position survives power loss; this is the only part of the log that
    {!ship} will hand to a replica. *)

val covers : durable:position -> position -> bool
(** [covers ~durable p]: is everything at or before [p] inside the
    durable prefix named by [durable]? True when [durable] is at or past
    [p] in the same epoch, or in any later epoch — a checkpoint's
    snapshot captures every append of the epochs before it. The
    group-commit ack gate: a parked reply is released exactly when its
    append position is covered by the journal's durable position. *)

val behind : t -> bool
(** Bytes have been appended past the durable watermark — a flush would
    do real work. *)

val log_start : t -> int
(** Byte offset of the first record in any of this journal's logs (the
    fixed header length) — where a replica starts applying after
    installing the epoch's snapshot. *)

val snapshot_bytes : t -> string
(** The current epoch's snapshot file, verbatim — what a replica needs to
    bootstrap before pulling the log tail. Raises {!Corrupt} if the file
    is unreadable. *)

val ship : t -> from:int -> limit:int -> string * int
(** [ship t ~from ~limit] is [(records, durable_end)]: the raw bytes of
    whole records in the current epoch's log from offset [from] up to the
    durable prefix, at most [limit] bytes — except that the first record
    is always included whole, so a single oversized record cannot wedge a
    replica. [records] is empty exactly when [from = durable_end]. Raises
    {!Corrupt} when [from] is outside the durable log or not on a record
    boundary (a replica shipping against the wrong epoch). *)

val snapshot_path : base:string -> epoch:int -> string
val log_path : base:string -> epoch:int -> string

(** The label-to-node resolver behind replay, exposed so long-lived
    consumers (the network server's per-document actors, tests) can keep
    one across a stream of operations: the inverted [label_encoded] table
    is extended in place after inserts and shrunk in place after deletes
    that relabelled nothing, and rebuilt lazily only after scheme churn
    (relabelling or overflow), instead of being rebuilt per record. *)
module Resolver : sig
  type t
  (** One resolver bound to one session. *)

  val create : Core.Session.t -> t
  (** The table is built lazily on first {!resolve}. *)

  val resolve : t -> Oplog.label -> Repro_xml.Tree.node
  (** The unique live node carrying this encoded label. Raises
      {!Replay_error} when the label resolves to no node or to several. *)

  val apply : t -> Oplog.op -> Repro_xml.Tree.node option
  (** Resolve the record's target label and perform the operation through
      the session (so the scheme observes it), returning the root of the
      inserted fragment for inserts and [None] otherwise. Raises
      {!Replay_error} on unresolvable or ambiguous labels. *)
end

val apply : Core.Session.t -> Oplog.op -> unit
(** [Resolver.apply] with a throwaway resolver — one-shot replay of a
    single record. Exposed for the test suite; {!recover} is the normal
    entry point. *)
