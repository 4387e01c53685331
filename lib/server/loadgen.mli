(** Seeded multi-client load generator for the update server.

    Each client runs on its own thread with its own connection and (by
    default) its own document ([<prefix>-<i>], scheme cycling through
    [g_schemes]); with [g_docs > 0] clients share a fixed set of
    documents instead — the shape that exercises cross-document group
    commit,
    replaying a deterministic mixed workload: inserts, deletes, renames,
    value updates, label-only queries, stats reads, label refreshes and
    checkpoints. The generator tracks which labels are still safe to use
    (the root and half its inserts are never deleted; the other half are
    childless delete victims), so a correct server answers every request
    without a protocol error — [r_errors > 0] means the server, not the
    workload, misbehaved. In shared-document mode one benign interference
    remains: another client's inserts can make a labelling scheme
    renumber the document, stranding this client's pooled labels. Those
    [Unknown_label] replies are counted as {e reseeds}, not errors, and
    the client restarts from the root. *)

type config = {
  g_host : string;
  g_port : int;
  g_clients : int;
  g_ops : int;  (** total across all clients; split evenly *)
  g_seed : int;
  g_schemes : string list;  (** client [i] uses [i mod length] *)
  g_doc_prefix : string;
  g_nodes : int;  (** initial generated document size per client *)
  g_docs : int;
      (** [0] (default): every client gets its own document. [n > 0]:
          client [i] works on shared document [i mod n]; name, scheme and
          generator seed then depend only on the document index. *)
  g_timeout : float;
  g_retries : int;
      (** per-request resend budget handed to each worker's
          {!Server_client} (default 0). Workers always connect with a
          stable client identity, so retried mutations are exactly-once
          against the server's dedup window. *)
  g_backoff : float;  (** base retry backoff, seconds (default 20ms) *)
  g_sock : Repro_io.Io.sock;
      (** the socket seam every worker dials through; default the real
          one. A {!Repro_io.Netsim} wrap turns the run into a
          flaky-network drill. *)
  g_resolve : (string -> string * int) option;
      (** cluster mode: a document's shard primary, asked at every dial,
          so with [g_retries > 0] a worker follows a promotion. [None]
          (the default) connects every client to [g_host:g_port]. *)
  g_query_pct : int;
      (** [-1] (default): the classic mixed workload. [0..100]: the
          read-heavy mix — that percentage of ops are served Xpath/Twig
          queries against the document's published index (classes
          ["xpath"]/["twig"]), the rest structural mutations; [95] is the
          canonical web-traffic ratio. *)
  g_migrate_every : int;
      (** [0] (default): no schema migrations. [n > 0]: every [n]th step
          runs the migrate drill — insert a fresh node, then wrap it with
          a one-spec Migrate batch (class ["migrate"]) — so the server's
          ["migrate/..."] gauges move without invalidating any label
          another request still references. *)
}

val default_config : port:int -> config
(** 4 clients, 1000 ops, QED + Vector + ORDPATH, seed 1. *)

type class_report = {
  cr_class : string;
  cr_count : int;
  cr_errors : int;
  cr_p50_us : float;
  cr_p99_us : float;
  cr_mean_us : float;
}

type report = {
  r_clients : int;
  r_ops : int;  (** requests actually sent (opens excluded) *)
  r_errors : int;  (** protocol + transport errors; 0 on a healthy run *)
  r_reseeds : int;
      (** label-pool rebuilds: relabelling flagged by the server, plus
          benign shared-document [Unknown_label] churn *)
  r_retries : int;  (** resends across all workers ({!Server_client.counters}) *)
  r_reconnects : int;  (** successful redials across all workers *)
  r_dedup_hits : int;  (** retried mutations answered from the dedup window *)
  r_overloaded : int;  (** [Overloaded] shed replies received (before retry) *)
  r_seconds : float;
  r_ops_per_sec : float;
  r_classes : class_report list;  (** sorted by class name *)
  r_error_codes : (string * int) list;
      (** failures by {!Protocol.err_name} (plus ["transport"] for dead
          connections), sorted, only codes that occurred — empty on a
          healthy run *)
  r_server : (string * int) list;
      (** the server's group-commit, event-loop, resilience, query and
          migration gauges (["commit/..."], ["loop/..."], ["cfg/..."],
          ["shed/..."], ["dedup/..."], ["query/..."], ["migrate/..."])
          scraped over one extra Metrics
          request after the run; empty in cluster mode or when the server
          is unreachable *)
}

val run : config -> report
(** Blocks until every client finishes its share of the ops. Transport
    failures are not fatal to a worker: the resilient client redials and
    (within [g_retries]) resends, anything that still surfaces counts as
    a ["transport"] error, and the worker carries on — only a server
    that stays unreachable stops it. *)

val render : report -> string
(** Human-readable table ending in a machine-greppable
    ["RESULT ops=N errors=M"] line. *)

val to_json : report -> string
(** The report as JSON, as [xmlrepro loadgen --json] writes it. *)
