(** Update workload generators (the §3.1 structural-update classes and the
    §5.1 Compact Encoding scenarios: "frequent random updates, frequent
    uniform updates and skewed frequent updates"). *)

type pattern =
  | Uniform_random
      (** a random insertion kind (before / after / first / last child) at a
          uniformly random node *)
  | Skewed_before_first
      (** repeated insertion before the current first child of one fixed
          node — the paper's "frequent insertions at a fixed position" *)
  | Skewed_after_anchor
      (** repeated insertion immediately after one fixed anchor: every new
          node lands between the anchor and the previous insertion *)
  | Append_only  (** always after the last child of the root *)
  | Prepend_only  (** always before the first child of the root *)
  | Deep_chain  (** each insertion is the first child of the previous one *)
  | Mixed_with_deletes  (** 70% uniform-random inserts, 30% deletions *)
  | Subtree_bursts  (** inserts whole random fragments at random nodes *)

val all_patterns : pattern list
val pattern_name : pattern -> string

type driver
(** A stateful workload bound to one session. *)

val start : pattern -> seed:int -> Core.Session.t -> driver

val step : driver -> unit
(** Performs one update operation. *)

val random_element : driver -> Repro_xml.Tree.node
(** A uniformly random live element node, the root included: one draw
    from the driver's PRNG, the same draw [Prng.choose] makes over the
    element nodes of [Tree.preorder]. *)

val random_non_root : driver -> Repro_xml.Tree.node option
(** A uniformly random live node other than the root, drawn like
    {!random_element} over the non-root nodes of [Tree.preorder]; [None]
    (and no draw) when the root stands alone. *)

val run : pattern -> seed:int -> ops:int -> Core.Session.t -> unit
(** [start] then [step] [ops] times. *)
