(** One-pass streaming bulk load: textual XML to a labelled session.

    The document is never materialised as text-plus-reparse: each
    {!Repro_xml.Parser} event immediately extends the tree and the
    bound scheme labels the new node on arrival — every insertion is an
    append, the cheapest §3.1 update. This is the "consume very large
    documents on a regular basis" ingestion path of §5.2.

    Note the trade-off this surfaces: schemes that renumber on insertion
    (the containment family) pay quadratic work on a streaming load, which
    is why real systems give them a separate bulk path ({!Core.Scheme.S}'s
    [create]). The benchmark harness measures both. *)

val load : Core.Scheme.packed -> string -> Core.Session.t
(** Raises {!Repro_xml.Parser.Parse_error} on malformed input. *)

val load_via_tree : Core.Scheme.packed -> string -> Core.Session.t
(** The two-pass reference: parse to a tree, then bulk-label ([create]).
    Produces the same document as {!load}: {!Repro_xml.Parser.parse} builds
    its tree by folding the very events {!load} consumes, so both see one
    grammar and one element value (the single [Text] event before each
    [End_element]). Labels may differ from {!load}'s for schemes whose
    bulk assignment is smarter than repeated appends. *)
