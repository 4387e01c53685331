(** Axis evaluation abstracted over the backing structure.

    {!Axis_index} answers the §3.1.1 region queries from a dense array
    rebuilt per revision; {!Axis_inc} answers the same queries from
    persistent maps maintained incrementally under updates. Both plug into
    the XPath engine and the twig matcher through this record of
    rank-level entries, so query evaluation is written once against
    whatever index happens to back it:

    - [ranks name] is the name's occurrences (attributes included) as
      increasing pre ranks — what {!Rank_join} streams are made of — and
      [more_than name k] whether there are more than [k] of them, in
      O(min(k, occurrences)): what choosing a step's route costs;
    - [node pre] is everything the joins, node tests and answers need of
      one rank, from a single lookup;
    - [children_of key] is a node's children (attributes included) by the
      key [node] reports, and [rank_of_key] turns a key back into a pre
      rank — the one extra lookup a full row costs;
    - [scan pre f] visits the nodes from rank [pre] on in document order
      while [f] returns [true]: the region scans of the remaining axes;
    - [revision] is the {!Repro_xml.Tree.revision} the source reflects;
      [changed_at name] the revision at which a node named [name]
      (element or attribute) was last inserted, deleted, renamed to or
      from [name], or given a new value; and [kids_changed_at name] the
      revision at which a child or attribute of some node named [name]
      was last inserted, deleted, renamed or revalued (or
      [changed_at name], if later). Rank renumbering changes neither.
      All count in the change history [history] names: answers computed
      from two sources of one history can be compared by revision,
      answers from different histories cannot.

    Ranks may be {e sparse}: only their relative order is meaningful,
    which is all the region predicates need. *)

type node = {
  n_post : int;
  n_kind : Encoding.kind;
  n_level : int;
  n_key : int;  (** this node's key for [children_of]; not a rank *)
  n_parent : int;  (** the parent's key; -1 at the document element *)
  n_name : string;
  n_value : string option;
}

type t = {
  ranks : string -> int array;
  more_than : string -> int -> bool;
  node : int -> node;
  children_of : int -> int array;
  rank_of_key : int -> int;
  scan : int -> (int -> node -> bool) -> unit;
  history : int;
  revision : int;
  changed_at : string -> int;
  kids_changed_at : string -> int;
}

val of_index : Axis_index.t -> t
(** The batch index keeps no change history: [history] is [-1] and
    [changed_at] and [kids_changed_at] read [max_int] for every name. *)

(** One stamp an answer depends on: [Name n] reads [changed_at n],
    [Kids n] reads [kids_changed_at n]. *)
type stamp = Name of string | Kids of string

val holds : t -> history:int -> rev:int -> stamp list option -> bool
(** Whether an answer taken from change history [history] at revision
    [rev] still holds at [src]: same history, [src] no older, and either
    the same revision or a signature (see {!Xpath.signature}) none of
    whose stamps [src] reads later than [rev]. Exact because no
    primitive moves a surviving node (a move is a delete plus a
    re-insert). Never for a source without a history. *)

val root : t -> int * node
(** The document element. *)
