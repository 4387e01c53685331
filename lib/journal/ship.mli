(** The replica side of journal shipping.

    A follower is an ordinary {!Durable_session} bootstrapped from the
    primary's current epoch snapshot; shipped batches of raw oplog
    records (produced by {!Journal.ship} on the primary) are applied
    through the durable view, so every record is journaled locally before
    it mutates the replica's document. The primary's durable-prefix
    invariant therefore holds {e transitively}: at any power cut, the
    replica's disk recovers to a prefix of the primary's durable history.

    Promotion needs no conversion step — the follower's journal is a
    primary journal already. A crashed replica's root can be served
    directly by a fresh server (or re-bootstrapped from the live
    primary, which is what the replication manager does: catch-up always
    restarts from the primary's latest epoch checkpoint plus log offset,
    per-epoch positions are never resumed across a follower restart). *)

exception Out_of_sync of string
(** The shipped data does not continue this follower's history: a batch
    for a different position or epoch, a torn batch, a snapshot that does
    not decode, or a record that does not replay. The only recovery is to
    re-bootstrap from the primary's current checkpoint. *)

type t
(** One follower of one upstream document. *)

val bootstrap :
  ?io:Repro_io.Io.t ->
  ?scheme:Core.Scheme.packed ->
  ?fsync_every:int ->
  ?checkpoint_every:int ->
  base:string ->
  snapshot:string ->
  pos:Journal.position ->
  unit ->
  t
(** Install the primary's epoch snapshot (verbatim {!Repro_storage.Store}
    bytes) and start a fresh local journal at [base]. [pos] is the
    upstream position the snapshot corresponds to — its epoch and the log
    header length ({!Journal.log_start}). Raises {!Out_of_sync} when the
    snapshot does not decode. *)

val apply : ?progress:(int -> unit) -> t -> epoch:int -> offset:int -> string -> int
(** [apply f ~epoch ~offset records] applies one shipped batch: the raw
    record bytes starting at upstream position [(epoch, offset)], which
    must equal {!position} exactly. Each record is journaled locally
    (through the durable view; a dedup {!Oplog.Mark}, which has no tree
    effect, directly, so a promoted follower can rebuild the server's
    exactly-once window from its own journal) before it is applied; the
    local journal is flushed after the batch, so an acknowledgment sent
    after [apply] returns speaks for bytes that are durable on the
    replica. Returns the
    number of records applied; [?progress] is called after each one (the
    failover torture harness uses it to place per-op durability marks).
    Raises {!Out_of_sync} on any mismatch — the follower must then be
    re-bootstrapped. *)

val position : t -> Journal.position
(** The upstream position this follower has applied (and made locally
    durable) through. *)

val shipped : t -> int
(** Total records ever applied via shipping. *)

val durable : t -> Durable_session.t
(** The underlying durable session — what promotion hands to the serving
    path. *)

val session : t -> Core.Session.t
(** The journaling view of {!durable} — reads come from here. *)

val close : t -> unit
