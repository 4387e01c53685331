(** The server's request metrics table: per-op-class and per-document
    counters, served back over the protocol as {!Protocol.Metrics_r}.
    Thread-safe; every connection thread records into the same table. *)

type t

val create : unit -> t

val monotonic_ns : unit -> int64
(** Nanoseconds on bechamel's monotonic clock: for measuring durations,
    never comparable with a wall-clock ([Unix.gettimeofday]) stamp. *)

val record : t -> key:string -> ok:bool -> ns:int -> unit
(** Count one request under [key] ("req/<class>" or
    "doc/<name>/<class>") with its latency. *)

val gauge : t -> key:string -> value:int -> unit
(** Set a sampled value under [key]: the cell reads back with
    [m_count = 1], [m_total_ns] = the latest sample and [m_max_ns] its
    high-water mark. For the group-commit instruments ("commit/...",
    "loop/...") and effective-config echoes ("cfg/..."). *)

val snapshot : t -> Protocol.metric list
(** Sorted by key, for deterministic rendering. *)
