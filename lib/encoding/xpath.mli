(** An XPath 1.0 subset evaluated over the encoding scheme.

    §2.2-§2.3 motivate labelling schemes by XPath's needs: node identity,
    document order, and the structural axes; the encoding scheme supplies
    names and values. This engine implements the thirteen structural axes
    as region/parent queries over the Figure 2 table — the ancestor,
    descendant, following and preceding axes are exactly Grust's
    rectangular region queries in the pre/post plane (§3.1.1).

    Supported syntax: absolute and relative location paths; the axes
    [child], [descendant], [descendant-or-self], [parent], [ancestor],
    [ancestor-or-self], [following], [preceding], [following-sibling],
    [preceding-sibling], [self], [attribute]; abbreviations [/], [//],
    [.], [..], [@]; name tests and [*]; predicates with positions,
    comparisons ([= != < <= > >=]), [and]/[or], [not(..)], [position()],
    [last()], [count(..)], string and integer literals. *)

type error = { position : int; message : string }

exception Parse_error of error

val pp_error : Format.formatter -> error -> unit

type ast

val parse : string -> ast
(** Raises {!Parse_error}. *)

val to_string : ast -> string
(** Canonical unabbreviated form of the parsed path. *)

val collapse : ast -> ast
(** Rewrite each non-positional ['//'] expansion
    (descendant-or-self::node()/child::T) onto a single descendant step.
    The indexed evaluators do this internally; exposed so a scan baseline
    can be timed on the collapsed form too. *)

val name_signature : ast -> string list option
(** The distinct names the path's answer depends on, if its collapsed
    form is made only of name tests on child and descendant steps (or
    the [descendant-or-self::node()/child::name] pair a positional
    ['//name[k]'] keeps) whose predicates combine relative paths of the
    same kind, [count()] of them, literals, numbers, [position()],
    [last()], comparisons, [and], [or] and [not]. [Some names] promises
    that the answer (its nodes' kinds, names, values and levels, in
    document order) stays the same across any mutations that insert,
    delete, rename or revalue no node carrying one of [names], as long
    as no surviving node moves: a name-test step numbers only
    candidates of its own name, and a comparison reads a node's own
    value. [None] for every other shape — wildcards, [node()] outside
    that pair, [.], [..], attribute, sibling, parent, ancestor or
    following/preceding axes, absolute paths inside predicates. *)

val eval : Encoding.t -> string -> Encoding.row list
(** [eval enc path] parses and evaluates [path] with the document root as
    context node. The result is duplicate-free and in document order, as
    XPath requires (Definition 1). Raises {!Parse_error}. *)

val eval_ast : Encoding.t -> ast -> Encoding.row list

val eval_scan : Encoding.t -> string -> Encoding.row list
(** Reference implementation: every axis evaluated as a predicate scan
    over all rows. The indexed {!eval} is checked against it by the test
    suite; the benchmark harness compares their costs (the §3.1.1
    region-query claim). *)

val eval_scan_ast : Encoding.t -> ast -> Encoding.row list

val eval_scan_rows : Encoding.row list -> ast -> Encoding.row list
(** The scan evaluator over an explicit row list in document order (head =
    document element). Works on sparse ranks — the region predicates only
    compare them — so a snapshot of the incremental index can be checked
    without densification; the server's [--paranoid] mode re-runs every
    served answer through this. *)

val eval_src : Axis_source.t -> string -> Encoding.row list
(** Evaluate against an axis source (e.g. an {!Axis_inc} snapshot) with the
    source's root as context node. Non-positional ['//'] steps are collapsed
    onto the name index, so common paths cost O(occurrences), not
    O(subtree). Raises {!Parse_error}. *)

val eval_src_ast : Axis_source.t -> ast -> Encoding.row list

val select_src : Axis_source.t -> ast -> Rank_join.t
(** {!eval_src_ast}'s answer as a stream, in document order, without
    building its rows: a caller that sends part of the answer builds rows
    for that part ({!Rank_join.rows}). *)
