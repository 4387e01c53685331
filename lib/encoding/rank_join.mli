(** Structural joins over sorted pre-rank streams.

    §3.1.1's region test decides containment from two ranks: [a] is a
    proper ancestor of [d] iff [pre a < pre d] and [post d < post a].
    Merging two streams sorted on pre rank with a stack of open
    ancestors on post rank — the structural join of the paper's citation
    [1] (Al-Khalifa et al.) — answers a whole location step, or a whole
    existential predicate, in one pass over the name index, with no
    per-node navigation. Parent/child matching needs no parent links:
    the innermost open ancestor of a node is its parent iff it sits one
    level above.

    A stream entry is a pre rank with the {!Axis_source.node} one lookup
    gave for it; ranks may be sparse ({!Axis_inc}), only their order is
    used. The virtual document node is pre rank [-1] with post rank
    [max_int] and level [-1]. *)

type t = private { pre : int array; node : Axis_source.node array }
(** Pre ranks strictly increasing; [node.(i)] belongs to [pre.(i)]. *)

val length : t -> int
val is_empty : t -> bool

val of_ranks :
  ?kind:Encoding.kind -> ?test:(Axis_source.node -> bool) -> Axis_source.t -> int array -> t
(** The nodes of [kind] (default: elements) among increasing pre ranks
    that pass [test]: one lookup per rank. *)

val of_list : (int * Axis_source.node) list -> t
(** Entries in any order; entries sharing a pre rank must be one node. *)

val filter : (int -> Axis_source.node -> bool) -> t -> t

val rows : ?limit:int -> Axis_source.t -> t -> Encoding.row list
(** The full rows of the first [limit] entries (default: all): one more
    lookup per parent. *)

(** {1 Joins} *)

val descendants : ctx:t -> t -> t
(** The entries with a proper ancestor in [ctx]. *)

val children : ctx:t -> t -> t
(** The entries whose parent is in [ctx]. *)

val having_descendant : t -> t -> t
(** [having_descendant s d] is the entries of [s] with a proper descendant
    in [d]. *)

val having_child : t -> t -> t
(** [having_child s d] is the entries of [s] with a child in [d]. *)
