(** Client side of the wire protocol: one connection at a time,
    synchronous request/response, optional reconnect + retry.

    Transport failures (reset, timeout, torn frame, undecodable reply)
    close the underlying connection; with [retries = 0] (the default)
    they come back as [Error reason] immediately, and the next request
    transparently redials. With [retries > 0] the client redials and
    resends under capped exponential backoff with jitter before giving
    up. Protocol errors the server chose to send are an ordinary
    [Ok (Err (code, msg))] — the connection is still usable — except
    three, which with [retries > 0] are retried until the budget runs
    out (the last one then comes back as the reply):
    - {!Protocol.err.Overloaded}: backed off and resent on the same
      connection (the server applied nothing);
    - {!Protocol.err.Not_primary}: the peer is a follower, which refuses
      a write before applying anything. The client hangs up, redials
      wherever [resolve] now points, and resends;
    - {!Protocol.err.Shutting_down}: chased the same way, except for an
      anonymous mutation. A draining server sends that reply to parked
      mutations it has already applied, so resending one without a
      dedup identity could apply it twice. An identified one dedups at
      the restart: the stop's checkpoint rejournals the window.

    Retry safety: requests carrying a [client] identity stamp each fresh
    mutation with a per-client sequence number, and a retry resends the
    same one, so the server's dedup window makes the retry idempotent —
    retried freely. An anonymous mutation ([client = ""], the default) is
    only retried while it is provably unsent (connect-phase failures) or
    provably unapplied (Overloaded, Not_primary); after the bytes may have
    reached the server, a transport failure surfaces as [Error] instead of
    risking double-application. Reads and the replication requests are
    idempotent and always retried.

    Not thread-safe: one client per thread, which is also how the load
    generator uses it. *)

type t

type counters = {
  c_retries : int;  (** resends after a transport failure or a retried error reply *)
  c_reconnects : int;  (** successful redials after the initial connect *)
  c_dedup_hits : int;  (** replies answered from the server's dedup window *)
  c_overloaded : int;  (** Overloaded replies received (before retry) *)
}

val connect :
  ?sock:Repro_io.Io.sock ->
  ?timeout:float ->
  ?client:string ->
  ?retries:int ->
  ?backoff:float ->
  ?backoff_cap:float ->
  ?resolve:(unit -> string * int) ->
  host:string ->
  port:int ->
  unit ->
  t
(** [host] is a numeric address. [timeout] (default 30s) sets both
    receive and send timeouts. [client] (default [""] = anonymous) is the
    stable identity for exactly-once retries; make it unique per logical
    client, not per connection. [retries] (default 0) caps resends per
    request; attempt [n] sleeps jittered [min (backoff_cap, backoff * 2^n)]
    (defaults 50ms, cap 1s). [resolve] is called at every dial, the first
    and each redial, for the (host, port) to dial; in a cluster it is
    [Repro_cluster.Topology.resolver], so a bounce follows a promotion.
    It defaults to the fixed [host:port]. Raises {!Repro_io.Io.Io_error}
    when the initial connection is refused. The [sock] seam defaults to
    the real one; tests pass a fault-injecting wrap. *)

val close : t -> unit
(** Idempotent. A closed client stays closed: no redial. *)

val backoff_delay : base:float -> cap:float -> Random.State.t -> int -> float
(** The wait before retry attempt [n], in seconds:
    [min cap (base * 2^n)] times a jitter drawn uniformly from
    [\[0.5, 1.5)] — one draw from [rng] per call. Every retry of
    {!request} sleeps this long. *)

val counters : t -> counters
(** Cumulative resilience counters since [connect]. *)

val request : t -> Protocol.req -> (Protocol.resp, string) result
(** One framed round trip (plus redials/resends per the retry policy).
    Never raises on transport failure. *)

val ping : t -> (unit, string) result
(** Round-trip plus protocol-version check ({!Protocol.magic}). *)

val open_doc :
  t -> doc:string -> scheme:string -> nodes:int -> seed:int ->
  (Protocol.resp, string) result

val update : t -> doc:string -> Repro_journal.Oplog.op list -> (Protocol.resp, string) result
(** Builds the Update with [u_client = ""]; when the client was connected
    with a [client] identity, {!request} stamps it and the next sequence
    number automatically. *)

val migrate :
  t -> doc:string -> Repro_migrate.Migrate.spec list -> (Protocol.resp, string) result
(** Builds the Migrate batch with [mg_client = ""]; an identified client
    gets stamped from the same sequence space as {!update}, so the
    server's dedup window makes migration retries exactly-once too. *)

val query : t -> doc:string -> Protocol.pred -> (Protocol.resp, string) result

val xpath : t -> doc:string -> limit:int -> string -> (Protocol.resp, string) result
(** Evaluate an XPath expression server-side against the document's
    latest published snapshot+index pair ({!Protocol.resp.Query_r}).
    Read-only and idempotent, so it resends freely under the retry
    policy — unlike an anonymous mutation. *)

val twig : t -> doc:string -> limit:int -> string -> (Protocol.resp, string) result
(** Match a twig pattern by structural semijoins over the same published
    index; same retry semantics as {!xpath}. *)

val stats : t -> doc:string -> (Protocol.resp, string) result
val labels : t -> doc:string -> limit:int -> (Protocol.resp, string) result
val checkpoint : t -> doc:string -> (Protocol.resp, string) result
val metrics : t -> (Protocol.resp, string) result

val subscribe : t -> doc:string -> replica:string -> (Protocol.resp, string) result
(** Announce a replica and learn the current epoch, snapshot size and
    durable offset ({!Protocol.resp.Sub_ok}). *)

val replicate :
  t -> doc:string -> replica:string -> epoch:int -> snap:bool -> offset:int -> limit:int ->
  (Protocol.resp, string) result
(** Pull one batch of snapshot bytes ([snap:true]) or durable log
    records ({!Protocol.resp.Shipped}). *)

val ack : t -> doc:string -> replica:string -> epoch:int -> offset:int -> (Protocol.resp, string) result
val promote : t -> doc:string -> (Protocol.resp, string) result
val docs : t -> (Protocol.resp, string) result
