(** Seeded network-fault torture for the exactly-once update path.

    The harness starts an in-process server, scripts a retrying
    identified client ({!Server_client} with [retries > 0]) through a
    fixed mix of uniquely-named inserts, and uses {!Repro_io.Netsim} to
    break exactly one coordinate of the socket conversation per run: a
    probe pass counts the clean scenario's data syscalls [S], then the
    scenario is replayed with a fault — drop, reset, truncation,
    multi-call partition, delay — at every [k] in [1..S], for every
    fault kind, for every seed.

    After each point the document is read back over a clean connection
    and machine-checked against the scripted ops: an acknowledged insert
    must appear exactly once, an unacknowledged one at most once —
    double-application anywhere is a violation. Two companion checks
    keep the harness honest:

    - a {e negative control} re-runs the reply-losing faults against a
      server with [dedup_window = 0]; it must catch real
      double-applications ([nt_control_doubles > 0]) or the harness
      could not have seen the bug class it exists to rule out;
    - a {e recovery check} acks a durable update, kills the server
      ({!Server.abort}), restarts on the same root and resends the same
      [(client, seq)] — the reply must come from the journal-rebuilt
      dedup window ([up_dedup = true]), the insert must appear exactly
      once, and a stale sequence must be rejected. *)

type config = {
  nt_ops : int;  (** update requests per scenario (default 24) *)
  nt_seeds : int;  (** positive sweeps (default 2) *)
  nt_points : int;
      (** cap on fault points per sweep, sampled evenly across the
          [(syscall, fault)] grid; [0] (default) sweeps every point *)
  nt_root : string;  (** scratch directory for the per-sweep server roots *)
  nt_log : string -> unit;  (** progress + violations as they happen *)
}

val default_config : root:string -> config

type result = {
  nt_swept : int;  (** positive fault points exercised *)
  nt_injected : int;  (** faults Netsim actually fired *)
  nt_acked : int;  (** update batches acknowledged across all points *)
  nt_unacked : int;
  nt_retries : int;  (** client resends (from {!Server_client.counters}) *)
  nt_dedup_hits : int;  (** retries answered from the server's window *)
  nt_misfires : int;  (** points whose scenario never reached the fault *)
  nt_control_swept : int;
  nt_control_doubles : int;
      (** double-applications the dedup-disabled control caught — must
          be positive for the run to pass *)
  nt_recovery_checks : int;
  nt_violations : string list;  (** empty on a correct server *)
}

val run : config -> result
(** Blocks; each sweep starts and stops its own server under
    [config.nt_root]. *)

val passed : result -> bool
(** No violations, a non-empty sweep, a control that caught doubles, and
    completed recovery checks. *)

val render : result -> string
(** Human-readable summary ending in a machine-greppable
    ["RESULT points=… violations=… control_doubles=…"] line. *)
