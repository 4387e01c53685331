(** The network update server: framed wire protocol over TCP, a small set
    of event-loop domains multiplexing every connection, durable sessions
    underneath, and one group-commit flusher amortizing fsync across all
    of them.

    Threading model:

    - [loop_domains] OCaml 5 domains each run a poll-style event loop
      over the {!Repro_io.Io.sock} [s_select] seam. Connections are dealt
      to loops round-robin at accept; a loop reads whatever its sockets
      have, cuts frames with an incremental {!Wire.Decoder}, and executes
      every request inline except wire queries that miss the cache.
    - A wire query ({!Protocol.Xpath}, {!Protocol.Twig}) is first probed
      against its document's answer cache at the published snapshot
      ({!Query_eval.probe}); a hit is answered inline on the loop. A
      miss runs on a query worker domain: [Pool.cores ()] of them,
      started on the first miss, so set-up and query-free traffic run on
      the loop domains alone. While a connection has a query in flight its loop leaves it
      out of the poll set and decodes none of its buffered frames; the
      worker sends the reply and hands the connection back, and the loop
      drains the frames already buffered before polling it again. Replies
      on one connection leave in request order: each decoded frame takes
      a reply slot, and a reply ready before an earlier slot's (a Ping
      behind a parked ack, a query behind a deferred mutation) is held
      until that one has gone. ["query/wait"] times each miss's wait for
      a worker (a hit waits for none: ["query/cache_hit"] times it on the
      loop) and ["query/workers"] gauges the worker count.
    - Each document carries a {e combining lock}: a loop takes it with
      [try_lock] and, on contention, defers the job closure to the
      current holder instead of blocking — an event loop never sleeps on
      a document, no matter how many clients hammer one doc.
    - Mutations are validated and journal-appended immediately, but their
      replies are {e parked} until the journal's durable watermark covers
      their append position ({!Repro_journal.Journal.covers}). A
      dedicated flusher thread coalesces pending appends across {e all}
      documents into one fsync cycle — bounded by [commit_interval_us]
      and [commit_max] — then releases every covered reply. An ack is
      never sent ahead of the durable prefix; group commit changes who
      pays for the fsync, not what it promises.
    - Checkpoints run from the flusher, off the request path. Explicit
      [Checkpoint] requests under [checkpoint_min_records] fresh records
      are answered immediately as no-ops; heavier ones park like
      mutations and are coalesced.
    - Label-only queries ({!Protocol.Query}) and stats reads are answered
      straight from an atomically published snapshot, concurrently with
      writes — the paper's point that a good labelling scheme needs no
      document access for structural predicates, turned into server
      architecture.

    Shutdown: {!trigger} (installed on SIGINT by {!install_sigint}) flips
    the server into draining; {!stop} then stops accepting, shuts down
    each connection's receive side so readers see EOF, joins the loops
    (each waits for its queries in flight) while the flusher keeps
    releasing parked acks, stops and joins the query workers, and
    finally flushes, checkpoints and closes every journal. {!abort} is the torture-test
    variant: no flush, no checkpoint, parked replies dropped — a
    simulated [kill -9] whose on-disk state must still recover to exactly
    the acknowledged prefix.

    All socket syscalls go through the {!Repro_io.Io.sock} seam in
    [config] and all file IO through [config.io], so
    {!Repro_io.Failpoint} and {!Repro_io.Crashsim} can interpose on both
    paths. *)

type config = {
  host : string;  (** numeric address to bind, default ["127.0.0.1"] *)
  port : int;  (** 0 binds an ephemeral port — read it back with {!port} *)
  root : string;  (** directory for the per-document journals *)
  max_conns : int;
  backlog : int;
  recv_timeout : float;  (** seconds; an idle connection is dropped *)
  send_timeout : float;
  fsync_every : int;
      (** journal-level batch commit. [<= 0] (the default) means the
          journal never fsyncs on its own — the group-commit flusher owns
          durability entirely. [1] restores fsync-per-append (every
          update is durable before its reply, no parking); [>= 2] batches
          inside each journal, fsyncing every [fsync_every]-th append. *)
  checkpoint_every : int option;
      (** auto-checkpoint a document after this many journaled records,
          executed by the flusher off the request path; [None] disables *)
  checkpoint_min_records : int;
      (** explicit [Checkpoint] requests below this many fresh records
          are answered as immediate no-ops (the current epoch). Set [0]
          to make every explicit checkpoint real. *)
  max_doc_nodes : int;  (** cap on [Open]'s generated document size *)
  max_frag_nodes : int;  (** cap on a single inserted fragment *)
  commit_interval_us : int;
      (** upper bound on how long a parked reply may wait for its fsync,
          in microseconds. [0] (the default) self-clocks: each commit
          cycle starts as soon as the previous one ends. *)
  commit_max : int;
      (** a commit cycle starts early once this many replies are parked *)
  loop_domains : int;
      (** event-loop domains; [<= 0] sizes from the hardware
          ([recommended_domain_count - 1], min 1) *)
  dedup_window : int;
      (** identified clients remembered per document for exactly-once
          retries: the last sequence number and cached reply of up to this
          many clients, LRU-evicted past the window; 0 disables dedup.
          Watermarks are journalled as {!Repro_journal.Oplog.op.Mark}
          records right behind the batch they cover — same epoch, same
          flush cycle — so the window survives recovery and ships to
          replicas. *)
  shed_parked : int;
      (** refuse further mutations with {!Protocol.err.Overloaded} once
          this many replies are parked awaiting fsync server-wide
          (nothing validated or journalled — always safe to retry);
          0 disables. *)
  shed_conn_bytes : int;
      (** refuse further mutations from one connection once its parked
          replies hold this many encoded bytes — a single pipelining
          client cannot monopolize the park; 0 disables *)
  peer_timeout : float;
      (** connect/receive timeout for the replication manager's upstream
          connections, seconds *)
  io : Repro_io.Io.t;  (** file-IO seam for every journal this server opens *)
  sock : Repro_io.Io.sock;
  log : string -> unit;  (** connection-level diagnostics; default drops them *)
  replica_of : (string * int) option;
      (** follow every document of this upstream server: a replication
          manager thread subscribes, bootstraps a follower document per
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
(** Bind, listen, spawn the loop domains, the flusher and the accept
    thread, return immediately. Creates [root] if needed. Ignores SIGPIPE
    process-wide (a peer that hangs up mid-reply must surface as a typed
    error, not kill the process). *)

val port : t -> int
(** The bound port — the ephemeral one when [config.port] was 0. *)

val metrics : t -> Metrics.t
(** Counters and gauges. Beyond the per-request keys, the server
    publishes ["commit/batch_p50"]/["commit/batch_p99"] (replies retired
    per fsync cycle), ["commit/flush_us_p50"]/["commit/flush_us_p99"]
    (cycle latency), ["commit/parked"] (current depth),
    ["loop/<i>/util_pct"] per event-loop domain, and the effective
    ["cfg/fsync_every"], ["cfg/commit_interval_us"], ["cfg/commit_max"],
    ["cfg/loop_domains"]. Resilience keys: ["dedup/hit"] counts retries
    answered from the dedup window, ["shed/update"] counts mutations
    refused with [Overloaded], with gauges ["shed/parked"] and
    ["shed/conn_bytes"] recording the pressure at the last shed. *)

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
    {!trigger} from anywhere. Every reply still parked at a journal that
    flushes cleanly is released before its connection closes. *)

val abort : t -> unit
(** Simulated kill for crash tests: connections are torn down, parked
    replies dropped, with {e no} checkpoint, flush or close — recovery
    must make do with what the fsync cycles already made durable. *)
