(** Textual XML parser.

    A self-contained parser for the XML subset the paper's data model
    covers: elements, attributes, character data (with the five predefined
    entities, numeric character references and CDATA sections), comments,
    processing instructions and a DOCTYPE prolog (the latter three are
    skipped — they carry no structural information for labelling).
    Comments, processing instructions and blanks may come in any order on
    both sides of the root element; a DOCTYPE only before it.

    §3.1.1 observes that "the act of parsing an XML document in document
    order ... corresponds to a preorder traversal of the XML document
    tree". The one scanner here exposes that traversal directly: {!fold}
    streams start/text/end events without the document ever being
    materialised, which is how a bulk loader assigns labels in a single
    pass ({!Repro_storage.Bulk_loader}). The tree entry points
    ({!parse_frag}, {!parse}) are that same fold building fragments, so
    both kinds of consumer see one grammar and one text rule.

    Per the paper's tree model (§2.1, Figure 2), character data is attached
    to its parent element as its [value]: all of the element's character
    data concatenated (entities decoded, CDATA verbatim), trimmed once, and
    dropped if blank. Open elements live on an explicit stack, so nesting
    depth is bounded by the heap, not the OCaml stack. *)

type error = { line : int; col : int; message : string }

exception Parse_error of error

val pp_error : Format.formatter -> error -> unit

(** {1 Events} *)

type event =
  | Start_element of string * (string * string) list
      (** name and attributes, in document order *)
  | Text of string
      (** the element's value, by the text rule above: at most one per
          element, just before its [End_element] *)
  | End_element of string

val fold : string -> init:'a -> f:('a -> event -> 'a) -> 'a
(** Streams the document's events through [f], in document order. Raises
    {!Parse_error} on malformed input, possibly after [f] has seen a
    prefix of the events. *)

val iter : (event -> unit) -> string -> unit

val events : string -> event list
(** All events, materialised (mostly for tests). *)

val node_count : string -> int
(** Elements plus attributes, without building the tree. *)

(** {1 Trees} *)

val parse_frag : string -> Tree.frag
(** Parses a document into a fragment. Raises {!Parse_error}. *)

val parse_frag_at : string -> int -> Tree.frag * int
(** [parse_frag_at s pos] parses one element starting at offset [pos]
    (leading whitespace allowed) and returns it with the offset just past
    its end tag. Used by embedders such as the update language; error
    positions count from the start of [s]. Raises {!Parse_error}. *)

val parse : string -> Tree.doc
(** [parse s] is [Tree.create (parse_frag s)]. *)

val parse_result : string -> (Tree.doc, error) result
