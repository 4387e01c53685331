(** Twig (tree-pattern) matching by chained structural joins.

    The structural join of the paper's citation [1] was introduced as "a
    primitive for efficient XML query pattern matching": a query like
    {e books that have a title and whose publisher contains a name} is a
    small tree pattern, matched bottom-up with one semijoin per pattern
    edge over the name index — no per-node navigation at all.

    Pattern syntax: a name followed by any number of bracketed branch
    paths, where a branch path is names joined by [/] (child) or [//]
    (descendant) and may itself carry brackets:

    {v
    book[title][publisher//name]
    open_auction[bidder/increase][current]
    v}

    [matches] returns the element rows matching the pattern's root with
    every branch satisfied — equivalent to the XPath
    [//root\[branch1\]\[branch2\]...], which is what the test suite checks
    it against. *)

type axis = Child | Descendant

type t = { name : string; branches : (axis * t) list }

type error = { position : int; message : string }

exception Parse_error of error

val pp_error : Format.formatter -> error -> unit

val parse : string -> t
(** Raises {!Parse_error} with the byte offset of the fault in the text
    as given. *)

val to_string : t -> string

val matches : Axis_index.t -> t -> Encoding.row list
(** In document order. *)

val matches_src : Axis_source.t -> t -> Encoding.row list
(** Same plan over any axis source — only its name index is consulted; the
    {!Rank_join} semijoins are rank-relational, so an {!Axis_inc}
    snapshot's sparse ranks work unchanged. *)

val select_src : Axis_source.t -> t -> Rank_join.t
(** {!matches_src}'s answer as a stream, without building its rows. *)

val signature : t -> Axis_source.stamp list
(** A [Name] stamp for each of the pattern's distinct names, sorted. The
    answer is read from the name index alone, so (as for
    {!Xpath.signature}) it stays the same across mutations that insert,
    delete, rename or revalue no node carrying one of them, as long as
    no surviving node moves. *)

val matches_xpath_equivalent : t -> string
(** The XPath expression computing the same result navigationally. *)
