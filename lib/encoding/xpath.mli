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

val signature : Axis_source.t -> ast -> Axis_source.stamp list option
(** The stamps an answer the path takes from [src] depends on, for the
    shapes whose answer (its nodes' kinds, names, values and levels, in
    document order) provably holds while none of them moves:

    - after {!collapse}, name tests on child and descendant steps (or
      the [descendant-or-self::node()/child::name] pair a positional
      ['//name[k]'] keeps) whose predicates combine relative paths of
      the same kind, [count()] of them, literals, numbers,
      [position()], [last()], comparisons, [and], [or] and [not]: a
      [Name] stamp per name. Such a path selects nodes of its last name
      in fixed child/descendant relations to nodes of its other names,
      a name-test step numbers only candidates of its name, and a
      comparison reads a node's own value;
    - such a path S ending in name X, followed by one step [*],
      [node()] or an attribute step, without predicates: S's stamps
      and [Kids X]; [/*] followed by one such step: [Name R] and
      [Kids R] for the document element's current name R;
    - S followed by a [following-sibling::T] or [preceding-sibling::T]
      step without predicates ([T] a name, [*] or [node()]): S's stamps,
      [Name T] for a name test, and [Name P] and [Kids P] for each
      distinct name P of a parent of S's nodes at [src].

    Exact because no primitive moves a surviving node: S's nodes change
    only with a [Name] stamp of S; a surviving node's children change
    only by an insert or delete under it, or a rename or revalue of the
    child, each of which stamps [Kids] of the parent's name; and a
    parent renamed away from P stamps [Name P]. The sibling and
    document-element signatures depend on [src], so a caller recomputes
    the signature with every answer. [None] for every other shape —
    [//*], [.], [..], ancestor, parent or following/preceding axes,
    absolute paths or attribute steps inside predicates, predicates on
    a wildcard or sibling step. *)

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
