(** Cluster supervisor: launch an N-shard / M-replica topology of
    [xmlrepro serve] processes, watch them, and fail a shard over when
    its primary dies.

    Each shard is one primary plus [replicas] followers started with
    [--replica-of] pointing at it. Every child binds an ephemeral port
    and reports it through a port file under [root]; child output goes
    to per-child [.out] files. The supervisor writes the {!Topology}
    file that clients dial through ({!Topology.resolver}), and rewrites it —
    version bumped, atomically — on every promotion or replica loss.

    Failover is deliberately simple and observable: {!poll} reaps dead
    children with [waitpid WNOHANG]; a dead primary triggers
    {!promote}, which connects to the shard's first live replica, asks
    it ([Docs]) what it carries, sends [Promote] for every follower
    document, and publishes the replica as the new primary. Only the
    durable prefix the replica acknowledged survives — exactly the
    guarantee the failover crash sweep ([Repro_torture.Torture.failover]) checks at
    every syscall boundary. *)

type child = {
  ch_pid : int;
  ch_shard : int;
  ch_tag : string;  (** ["s<i>"] for primaries, ["s<i>r<j>"] for replicas *)
  ch_node : Topology.node;
  mutable ch_alive : bool;
}

type event =
  | Promoted of { ev_shard : int; ev_node : Topology.node }
  | Shard_down of { ev_shard : int; ev_reason : string }
      (** a primary died with no live replica left to promote *)
  | Replica_lost of { ev_shard : int; ev_node : Topology.node }

type t

val launch :
  ?exe:string ->
  ?log:(string -> unit) ->
  ?fsync_every:int ->
  ?commit_interval_us:int ->
  ?commit_max:int ->
  root:string ->
  shards:int ->
  replicas:int ->
  unit ->
  t
(** Spawn [shards] primaries and [shards * replicas] followers under
    [root] and write the topology file. [exe] defaults to
    [Sys.executable_name] (the supervisor re-executes its own binary's
    [serve] subcommand). [fsync_every], [commit_interval_us] and
    [commit_max] are forwarded verbatim to every child's
    [--fsync-every] / [--commit-interval] / [--commit-max]; the
    defaults (0, 0, 64) leave durability entirely to each server's
    group-commit flusher. Raises [Failure] when a child fails to
    report a port within 20s. *)

val topology : t -> Topology.t
val topology_path : t -> string
val children : t -> child list

val poll : t -> event list
(** Reap dead children and react: promote on a dead primary, shrink the
    topology on a dead replica. Call periodically; cheap when nothing
    died. *)

val promote : t -> shard:int -> (Topology.node, string) result
(** Force a failover of [shard] to its first live replica. *)

val kill_primary : t -> shard:int -> (Topology.node, string) result
(** [SIGKILL] the shard's primary — the torture lever. Returns the node
    that was killed; the next {!poll} notices and promotes. *)

val shutdown : t -> unit
(** SIGINT every live child (graceful drain), wait up to 5s, SIGKILL
    stragglers, reap everything. Idempotent. *)
