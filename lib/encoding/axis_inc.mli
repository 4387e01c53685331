(** The incrementally-maintained axis index.

    {!Axis_index} makes Grust's §3.1.1 region-query claim operational but
    is a batch structure: any update invalidates it and costs an O(n)
    rebuild. This module keeps the same pre/post plane, parent links and
    name index up to date {e under} updates, fed by {!Repro_xml.Tree}'s
    structural observer, so a single insert/delete/rename costs O(log n)
    amortized.

    Ranks are {e gap-ranked} (list labelling): nodes carry sparse integer
    pre/post ranks spaced [2^32] apart at build time; an insert takes fresh
    ranks from the gap between its document-order neighbours, and when a
    gap is exhausted a neighbourhood window — doubling until it is sparse
    enough — is renumbered locally. The region predicates only ever compare
    ranks, so sparse ranks answer exactly the queries dense ones do.

    All index state lives in persistent maps: {!snapshot} is O(1), and the
    returned {!snap} is immutable — safe to publish through an [Atomic] and
    read from any domain while the writer keeps mutating, which is how both
    server cores serve queries without parking readers. *)

type t

type snap
(** An immutable point-in-time view of the index. *)

val create : ?clock:(unit -> int64) -> Repro_xml.Tree.doc -> t
(** Builds the initial index (O(n)) and registers a {!Repro_xml.Tree}
    observer so every subsequent mutation — live update, recovery replay or
    follower log application — is folded in incrementally. [clock] (a
    monotonic nanosecond counter) prices the maintenance work for
    {!stats}; it defaults to a zero clock. *)

val detach : t -> unit
(** Unregisters the observer; the index no longer follows the document. *)

val snapshot : t -> snap
(** O(1); reflects every mutation applied so far. *)

val rev : snap -> int
(** The {!Repro_xml.Tree.revision} this snapshot reflects — the staleness
    guard callers pair with document snapshots. *)

val size : snap -> int

val changed_at : snap -> string -> int
(** The revision at which a node named [name] was last inserted,
    deleted, renamed to or from [name], or given a new value (a subtree
    insert or delete changes every name in it); window renumbering
    changes nothing. A live name's stamp rides in its name index entry;
    a name whose last node went keeps the revision it went at until
    such records outnumber the live names, when they fold into one
    floor revision, never earlier than any folded stamp. *)

val kids_changed_at : snap -> string -> int
(** The revision at which a child or attribute of some node named
    [name] was last inserted, deleted, renamed or given a new value, or
    {!changed_at} if that is later. Insert and delete stamp the parent
    of the subtree root, rename and revalue the parent of the node; a
    subtree's inner parent-child links come and go with its own nodes,
    whose names {!changed_at} stamps. Window renumbering changes
    nothing. A gone name reads its {!changed_at} stamp: its last node
    went after every change to its children. *)

val stamped : snap -> int
(** Names that carry a stamp of their own, live or gone: bounded by a
    constant factor of the live distinct names (plus a small constant),
    however many names come and go. *)

val rows : snap -> Encoding.row list
(** Every row in document order, with sparse ranks — the input
    {!Xpath.eval_scan_rows} checks served answers against. *)

val source : snap -> Axis_source.t
(** The snapshot as an axis source for {!Xpath.eval_src} and
    {!Twig.matches_src}. Axes cost O(log n + answer). Its [history] is
    this index's own, shared by every snapshot of it; [changed_at] and
    [kids_changed_at] are {!changed_at} and {!kids_changed_at}. *)

val verify : t -> (unit, string) result
(** Diffs the live index against a fresh {!Encoding.of_doc} rebuild:
    order-isomorphic pre/post ranks, and identical kinds, names, values,
    levels, parent links and auxiliary indexes. [Error] names the first
    divergence. The [--paranoid] servers and the test suite run this after
    every operation. *)

(** {1 Maintenance accounting} *)

type stats = {
  ops : int;  (** mutations folded in *)
  renumbered : int;  (** ranks rewritten by window renumbering *)
  ns : int64;  (** total maintenance time, under [clock] *)
}

val stats : t -> stats
