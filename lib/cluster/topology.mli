(** Cluster topology: which server owns which documents.

    A topology is N shards, each a primary plus zero or more replicas.
    Documents are placed by hashing the document name — the same CRC-32
    the wire frames and the journal trust — so every client, on any
    machine, maps a name to the same shard with no coordination and no
    directory service. The topology itself is a small text file
    ([XCL1 <version>] then one [shard <primary> <replica>...] line per
    shard), written atomically; a client dialing through {!resolver}
    re-reads it at every redial, which is how a promotion propagates.

    The version number increases on every rewrite (promotion, replica
    loss), so an observer can tell a reload changed anything. *)

exception Bad_topology of string

type node = { n_host : string; n_port : int }
type shard = { s_primary : node; s_replicas : node list }
type t = { version : int; shards : shard array }

val node_to_string : node -> string
(** ["host:port"]. *)

val node_of_string : string -> node
(** Inverse of {!node_to_string}; raises {!Bad_topology}. *)

val n_shards : t -> int

val shard_of : t -> string -> int
(** The shard index owning this document name:
    [crc32(name) mod n_shards]. Raises {!Bad_topology} on an empty
    topology. *)

val render : t -> string
val parse : string -> t
(** Raises {!Bad_topology} on malformed input. [parse (render t) = t]. *)

val save : ?io:Repro_io.Io.t -> string -> t -> unit
(** Atomic write-rename through the {!Repro_io.Io} seam. *)

val load : ?io:Repro_io.Io.t -> string -> t
(** Raises {!Bad_topology} when unreadable or malformed. *)

val resolver : string -> string -> string * int
(** [resolver path doc] is the [(host, port)] of [doc]'s shard primary:
    the [resolve] a {!Repro_server.Server_client} dials through. Each
    call re-reads [path], keeping the last good topology when a read
    fails; only the first load, by [resolver path], raises {!Bad_topology}. *)
