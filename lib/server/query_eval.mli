(** Wire-query ({!Protocol.req.Xpath} / {!Protocol.req.Twig}) evaluation
    for {!Server}.

    Queries run against an atomically published
    ({!Repro_encoding.Axis_inc.snap}, revision) pair, entirely outside the
    document's write path: no lock, no parking, no rebuild. Under
    [paranoid] every answer is re-derived through the scan reference
    evaluator over the same snapshot rows and any divergence is answered
    as {!Protocol.err.Internal} instead of served.

    {b Answer cache.} Each document can keep a bounded {!cache} of
    replies, keyed by query kind, text and clamped limit. An entry holds
    the change history and snapshot revision its answer was taken at,
    the answer's signature ({!Repro_encoding.Xpath.signature} at that
    snapshot, or {!Repro_encoding.Twig.signature}) and
    the reply's total and rows. It answers a later request when
    {!Repro_encoding.Axis_source.holds}: same history, the served
    snapshot no older, and either the same revision or no stamp of the
    signature moved since. Signed shapes are name paths, such a path
    [S] followed by [*], [node()], an attribute step or a sibling step,
    and [/*/*] and its kin. That is exact: no primitive moves a
    surviving node, so only an insert, delete, rename or revalue can
    change the answer's nodes, order, values or levels. One of a node
    carrying a signed name stamps [Name]; one of a child or attribute of
    a node whose children the answer reads stamps [Kids] of that node's
    name; and a parent renamed away stamps [Name] of its old name. A hit
    replies with the served snapshot's revision. *)

type query = Q_xpath of string | Q_twig of string

val max_rows : int
(** Server-side cap on rows per reply, whatever the client's limit. *)

type cache

val cache : unit -> cache
(** An empty per-document answer cache. Thread-safe: one mutex, never
    held while a query is evaluated. *)

val max_cached_entries : int
val max_cached_rows : int
(** The cache's fixed bounds: entries, and reply rows summed over
    entries. Least recently used entries make room. *)

val cache_size : cache -> int * int
(** Entries and rows held. *)

val probe :
  Metrics.t ->
  paranoid:bool ->
  doc_rev:int ->
  inc:Repro_encoding.Axis_inc.t ->
  pub_time:float ->
  snap:Repro_encoding.Axis_inc.snap ->
  cache ->
  query ->
  limit:int ->
  Protocol.resp option
(** The cache half of {!serve}: [Some] reply when an entry of [cache]
    holds at [snap], accounted exactly as {!serve} accounts a hit (and,
    under [paranoid], evaluated afresh as there); [None] on a miss, with
    nothing recorded — the miss is left to {!serve}, which probes again
    at whatever snapshot it is given. Cheap enough to run on a server's
    event loop: a lookup under the cache mutex, no evaluation unless
    [paranoid]. *)

val serve :
  Metrics.t ->
  paranoid:bool ->
  doc_rev:int ->
  inc:Repro_encoding.Axis_inc.t ->
  pub_time:float ->
  snap:Repro_encoding.Axis_inc.snap ->
  ?cache:cache ->
  query ->
  limit:int ->
  Protocol.resp
(** Answer from [cache] when an entry holds at [snap] (as {!probe}),
    else evaluate (storing the answer unless the cache has one from a
    later revision). Cross-check when [paranoid] — a hit is evaluated
    afresh too, and a cached reply that differs is answered as
    {!Protocol.err.Internal}. Hits and misses go through one accounting
    under the ["query/"] metric keys:
    [query/eval] (evaluations that served, count + latency),
    [query/cache_hit] (count + latency), [query/cache_miss] (requests
    a cache could not answer), split into [query/cache_miss_cold] (no
    entry for the key), [query/cache_miss_unsigned] (an entry without a
    signature, at another revision) and [query/cache_miss_stale] (a
    signed entry whose stamps moved — or, rarely, one from another
    history or a later revision than [snap]),
    [query/cache_mismatch], [query/cache_rows] (rows held by the cache
    stored into last), [query/paranoid], [query/rev_lag] (document
    revisions published after [snap]), [query/pub_age_us] (snapshot age
    at serve time, against [pub_time]), [query/maint_ops] and
    [query/maint_ns_per_op] (the incremental index's maintenance
    bill). *)
