(** Standing-query survival under schema migration.

    A seeded pool of XPath and twig queries is evaluated before and after
    every migration step through the same engines the server's query path
    uses ({!Repro_encoding.Xpath.select_src} / {!Repro_encoding.Twig.select_src}
    over an {!Repro_encoding.Axis_inc} snapshot). Answers are compared as
    ordered (kind, name, value) sequences — pre/post ranks and levels
    shift under every structural rewrite by design and carry no signal.

    Classification per step: {e survived} = identical answer; {e broken} =
    the answer was non-empty and is now empty (the query's path shape no
    longer exists — the schema change severed it); {e changed} = anything
    else, including a previously-empty query lighting up. Per-query
    verdicts are sticky in the worst direction across a storm.

    A step re-evaluates only the queries whose answers may have moved.
    Each query with a signature ({!Repro_encoding.Xpath.signature}, taken
    afresh with every evaluation because a sibling or document-element
    signature depends on the snapshot; every twig has one, its names)
    keeps its answer without evaluation while the source's change
    history moves none of its stamps past the revision the answer was
    taken at. The oplog primitives never move a surviving node, so
    nothing else can change such an answer; every other query, and any
    answer taken from another history, is re-evaluated. *)

type query = Q_xpath of string * Repro_encoding.Xpath.ast | Q_twig of string * Repro_encoding.Twig.t

type verdict = Survived | Changed | Broken

val query_text : query -> string
val verdict_name : verdict -> string

val parse_xpath : string -> query
(** Raises {!Repro_encoding.Xpath.Parse_error}. *)

val parse_twig : string -> query
(** Raises {!Repro_encoding.Twig.Parse_error}, which carries the offset
    of the fault in the pattern text. *)

type answer = (Repro_encoding.Encoding.kind * string * string option) list

val answer : Repro_encoding.Axis_source.t -> query -> answer

val classify : before:answer -> after:answer -> verdict

val element_names : Repro_xml.Tree.doc -> string array
(** Distinct element names in document order of first occurrence. *)

val pool : seed:int -> count:int -> Repro_xml.Tree.doc -> query list
(** A deterministic mixed pool ([//N], [//A//B], [//A/B], [/root//N]
    XPaths and [A\[B\]], [A\[B//C\]] twigs) drawn from element names
    present in [doc]. *)

(** {1 Tracking across a storm} *)

type tracked = {
  tq : query;
  mutable t_sig : Repro_encoding.Axis_source.stamp list option;
      (** the signature of [t_answer], if the shape has one *)
  mutable t_answer : answer;
  mutable t_verdict : verdict;
  mutable t_history : int;  (** the source history [t_answer] was taken from *)
  mutable t_rev : int;  (** ... and the revision it holds at *)
}

val track : Repro_encoding.Axis_source.t -> query list -> tracked list
(** Capture each query's baseline answer. *)

type tally = { mutable evaluated : int; mutable skipped : int; mutable mismatches : int }
(** Per-query outcomes summed over steps: answers re-evaluated, answers
    kept without evaluation, and kept answers a [check] found stale. *)

val tally : unit -> tally
(** All zero. *)

val step :
  ?check:bool -> ?tally:tally -> Repro_encoding.Axis_source.t -> tracked list -> int * int
(** Bring the pool up to a fresh snapshot after one migration step;
    updates stored answers and sticky verdicts, returns
    [(changed, broken)] counts for this step. [check] (default [false])
    also evaluates every query whose answer was kept, counts into
    [tally] each one that differs, and goes on with the fresh answer, so
    the verdicts are those of a full re-evaluation. *)

val totals : tracked list -> int * int * int
(** Final [(survived, changed, broken)] tallies. *)
