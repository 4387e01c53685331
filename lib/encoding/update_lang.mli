(** An XQuery-Update-style update language, executed through a labelled
    session.

    The paper classifies XML updates into structural updates (node and
    subtree insertion/deletion) and content updates (values and names) —
    §3.1. This small language covers both classes with the XQuery Update
    Facility's primitives plus a [move]:

    {v
    insert <bid n="7"/> before //auction[1]/current;
    insert <note>checked</note> as first into //auction[2];
    insert <note>end</note> as last into //auction[2];
    delete //bidder[increase < 3];
    replace value of //auction[1]/current with "99.50";
    rename //auction[1] as closed_auction;
    move //auction[3] after //auction[1];
    v}

    Statements are separated by [;]; one inside quotes or closing a
    reference ([&amp;], [&#65;]) is not a separator, but a bare [;] in
    character data still is (write [&#59;]). A [&] opens a reference
    only when a name or [#] follows it, so the bare [&] of a CDATA
    section or comment leaves the next [;] a separator. Targets are XPath
    expressions; they must select exactly one node, except for [delete]
    which removes every selected node. Each executed statement goes
    through the session, so the bound labelling scheme observes every
    update. *)

type position = Before | After | First_into | Last_into

type statement =
  | Insert of Repro_xml.Tree.frag * position * string  (** payload, where, target *)
  | Delete of string
  | Replace_value of string * string  (** target, new value *)
  | Rename of string * string  (** target, new name *)
  | Move of string * position * string  (** source, where, destination *)

exception Error of string

val parse : string -> statement list
(** Raises {!Error} (or re-raises the XML/XPath parser errors wrapped into
    {!Error}) on malformed scripts. *)

val statement_to_string : statement -> string

type report = { executed : int; inserted : int; deleted : int; modified : int }

val execute : Core.Session.t -> statement list -> report
(** Applies the statements in order. Raises {!Error} when a target selects
    no node, when a single-target statement selects several, or when a
    [move] destination lies inside the moved subtree. *)

val run : Core.Session.t -> string -> report
(** [parse] then [execute]. *)
