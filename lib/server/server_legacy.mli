(** The network update server: framed wire protocol over TCP, one actor
    thread per open document, durable sessions underneath.

    Ownership model: each open document is owned by exactly one actor
    thread. Mutations (Update), tree walks (Labels) and checkpoints are
    jobs serialized through the actor's bounded queue onto a
    {!Repro_journal.Durable_session} — so every confirmed update is
    journaled with the journal's crash guarantees, and no lock covers the
    tree itself. Label-only queries ({!Protocol.Query}) and stats reads
    are answered on the connection thread from an atomically published
    snapshot, concurrently with writes — the paper's point that a good
    labelling scheme needs no document access for structural predicates,
    turned into server architecture.

    Backpressure, bounded everywhere: at most [max_conns] connections
    (the accept loop blocks past that), at most 128 queued jobs per actor
    (the connection thread blocks, which stops reading its socket and
    pushes back through TCP), per-connection receive/send timeouts.

    Shutdown: {!trigger} (installed on SIGINT by {!install_sigint}) flips
    the server into draining; {!stop} then stops accepting, lets in-flight
    requests answer, shuts down each connection's receive side so idle
    readers see EOF, drains every actor queue, and checkpoints + closes
    every journal. {!abort} is the torture-test variant: it abandons the
    actors without checkpointing or flushing — a simulated [kill -9] whose
    on-disk state must still recover to a durable prefix.

    All socket syscalls go through the {!Repro_io.Io.sock} seam in
    [config], so {!Repro_io.Failpoint.wrap_sock} can inject EINTR, short
    reads/writes and EIO on the wire path. *)

type config = {
  host : string;  (** numeric address to bind, default ["127.0.0.1"] *)
  port : int;  (** 0 binds an ephemeral port — read it back with {!port} *)
  root : string;  (** directory for the per-document journals *)
  max_conns : int;
  backlog : int;
  recv_timeout : float;  (** seconds; an idle connection is dropped *)
  send_timeout : float;
  fsync_every : int;  (** journal batch commit, as in {!Repro_journal.Journal.create} *)
  checkpoint_every : int option;
  max_doc_nodes : int;  (** cap on [Open]'s generated document size *)
  max_frag_nodes : int;  (** cap on a single inserted fragment *)
  dedup_window : int;
      (** identified clients remembered per document for exactly-once
          retries (last sequence number + cached reply, LRU-evicted past
          the window); 0 disables dedup. Watermarks are journalled as
          {!Repro_journal.Oplog.op.Mark} records, so they survive
          recovery and ship to replicas. *)
  shed_waiters : int;
      (** refuse further mutations with {!Protocol.err.Overloaded} once
          this many connection threads are blocked on a document's full
          job queue (nothing validated or journalled — always safe to
          retry); 0 disables shedding and restores pure blocking
          backpressure *)
  peer_timeout : float;
      (** connect/receive timeout for the replication manager's upstream
          connections, seconds *)
  sock : Repro_io.Io.sock;
  log : string -> unit;  (** connection-level diagnostics; default drops them *)
  replica_of : (string * int) option;
      (** follow every document of this upstream server: a replication
          manager thread subscribes, bootstraps a follower actor per
          upstream document (epoch snapshot + log tail through
          {!Repro_journal.Ship}), pumps durable log records, and
          acknowledges each locally-durable batch. Followers answer reads
          and refuse updates with [Not_primary] until promoted. *)
  replica_name : string;  (** how this replica identifies itself upstream *)
  poll_interval : float;  (** replication manager idle poll, seconds *)
  paranoid : bool;
      (** re-derive every served Xpath/Twig answer through the scan
          reference evaluator over the same published snapshot; a
          divergence is answered as [Internal], never served; and
          re-evaluate every standing-query answer migration survival
          kept, counting contradictions in the
          ["migrate/survival_mismatch"] gauge *)
}

val default_config : root:string -> config

type t

type summary = { s_conns : int; s_docs : int }
(** Connections served and documents open over the server's lifetime. *)

val start : config -> t
(** Bind, listen, spawn the accept thread, return immediately. Creates
    [root] if needed. Ignores SIGPIPE process-wide (a peer that hangs up
    mid-reply must surface as a typed error, not kill the process). *)

val port : t -> int
(** The bound port — the ephemeral one when [config.port] was 0. *)

val metrics : t -> Metrics.t

val trigger : t -> unit
(** Begin draining: stop accepting, refuse new opens. Async-signal-safe;
    idempotent. Does not block — follow with {!stop}. *)

val install_sigint : t -> unit
(** SIGINT calls {!trigger}. *)

val wait : t -> unit
(** Block until {!trigger} has fired (from any thread or the signal
    handler). *)

val stop : t -> summary
(** Graceful drain: see the module description. Idempotent; safe after
    {!trigger} from anywhere. *)

val abort : t -> unit
(** Simulated kill for crash tests: connections are torn down and actors
    abandoned with {e no} checkpoint, flush or close — recovery must make
    do with what the journal's fsync policy already made durable. *)
