(** The dense pre/post index of one encoding, rebuilt per revision.

    §3.1.1: "the evaluation of a location step on a major XPath axis
    (ancestor, descendant, following, preceding) amounts to a rectangular
    region query in the pre/post labelled plane" [Grust]. Rows sit in an
    array at their pre rank, with each node's children and a name index
    beside them; {!Axis_source.of_index} serves them to the XPath engine and the
    twig matcher, whose structural joins are {!Rank_join}'s. *)

type t

val build : Encoding.t -> t

val size : t -> int

val row : t -> int -> Encoding.row
(** The row with that pre rank. *)

val children : t -> int -> int list
(** The pre ranks of a node's children, attributes included, in document
    order. *)

val by_name : t -> string -> Encoding.row list
(** All rows with that name, in document order. *)
