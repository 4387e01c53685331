open Repro_xml

type position = Before | After | First_into | Last_into

type statement =
  | Insert of Tree.frag * position * string
  | Delete of string
  | Replace_value of string * string
  | Rename of string * string
  | Move of string * position * string

exception Error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

(* The script is cut into statements at top-level ';' (quotes in XPath
   string literals and XML attribute values are respected, and so is the
   ';' that closes an entity or character reference in a payload), then
   each statement is parsed keyword by keyword. A '&' opens a reference
   only while the characters after it can still spell one ("&amp",
   "&#65", "&#x41"), so the bare '&' that CDATA, comments and PIs allow
   leaves the next ';' a separator. *)

let ref_char ~first c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true
  | '#' -> first
  | '0' .. '9' | '.' | '-' -> not first
  | c -> Char.code c >= 0x80

let split_statements src =
  let out = ref [] and buf = Buffer.create 64 in
  (* characters read since an open '&', or -1 outside a reference *)
  let quote = ref None and ref_len = ref (-1) in
  String.iter
    (fun c ->
      let in_ref = !ref_len > 0 in
      ref_len :=
        if c = '&' then 0
        else if !ref_len >= 0 && ref_char ~first:(!ref_len = 0) c then !ref_len + 1
        else -1;
      match (!quote, c) with
      | None, ';' when not in_ref ->
        out := Buffer.contents buf :: !out;
        Buffer.clear buf
      | None, ('"' | '\'') ->
        quote := Some c;
        Buffer.add_char buf c
      | Some q, c when c = q ->
        quote := None;
        Buffer.add_char buf c
      | _ -> Buffer.add_char buf c)
    src;
  out := Buffer.contents buf :: !out;
  List.filter (fun s -> String.trim s <> "") (List.rev !out)

let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

let skip_spaces s pos =
  let n = String.length s in
  let rec go i = if i < n && is_space s.[i] then go (i + 1) else i in
  go pos

(* Reads one whitespace-delimited word at [pos]. *)
let word s pos =
  let pos = skip_spaces s pos in
  let n = String.length s in
  let rec stop i = if i < n && not (is_space s.[i]) then stop (i + 1) else i in
  let e = stop pos in
  (String.sub s pos (e - pos), e)

let expect_word s pos expected =
  let w, pos' = word s pos in
  if String.lowercase_ascii w <> expected then
    fail "expected %S, found %S" expected w;
  pos'

let rest_of s pos = String.trim (String.sub s pos (String.length s - pos))

let parse_payload s pos =
  let pos = skip_spaces s pos in
  match Parser.parse_frag_at s pos with
  | frag, pos' -> (frag, pos')
  | exception Parser.Parse_error e ->
    fail "bad XML payload: %s" (Format.asprintf "%a" Parser.pp_error e)

let check_xpath path =
  if String.trim path = "" then fail "empty XPath target";
  match Xpath.parse path with
  | _ -> String.trim path
  | exception Xpath.Parse_error e ->
    fail "bad XPath %S: %s" path (Format.asprintf "%a" Xpath.pp_error e)

(* [before | after | as first into | as last into | into] target *)
let parse_position s pos =
  let w, pos' = word s pos in
  match String.lowercase_ascii w with
  | "before" -> (Before, pos')
  | "after" -> (After, pos')
  | "into" -> (Last_into, pos')
  | "as" -> (
    let which, pos'' = word s pos' in
    let pos''' = expect_word s pos'' "into" in
    match String.lowercase_ascii which with
    | "first" -> (First_into, pos''')
    | "last" -> (Last_into, pos''')
    | other -> fail "expected 'first' or 'last' after 'as', found %S" other)
  | other -> fail "expected a position (before/after/into/as first into), found %S" other

let parse_string_literal s pos =
  let pos = skip_spaces s pos in
  if pos >= String.length s || (s.[pos] <> '"' && s.[pos] <> '\'') then
    fail "expected a quoted string";
  let quote = s.[pos] in
  match String.index_from_opt s (pos + 1) quote with
  | None -> fail "unterminated string literal"
  | Some e -> (String.sub s (pos + 1) (e - pos - 1), e + 1)

let parse_statement src =
  let kw, pos = word src 0 in
  match String.lowercase_ascii kw with
  | "insert" ->
    let payload, pos = parse_payload src pos in
    let position, pos = parse_position src pos in
    let target = check_xpath (rest_of src pos) in
    Insert (payload, position, target)
  | "delete" -> Delete (check_xpath (rest_of src pos))
  | "replace" ->
    let pos = expect_word src pos "value" in
    let pos = expect_word src pos "of" in
    (* the target runs until the trailing: with "..." *)
    let rec find_with i =
      match String.index_from_opt src i 'w' with
      | Some j
        when j + 4 <= String.length src
             && String.lowercase_ascii (String.sub src j 4) = "with"
             && (j = 0 || is_space src.[j - 1])
             && j + 4 < String.length src
             && is_space src.[j + 4] ->
        j
      | Some j -> find_with (j + 1)
      | None -> fail "expected 'with \"value\"'"
    in
    let j = find_with pos in
    let target = check_xpath (String.sub src pos (j - pos)) in
    let value, _ = parse_string_literal src (j + 4) in
    Replace_value (target, value)
  | "rename" ->
    let rec find_as i =
      match String.index_from_opt src i 'a' with
      | Some j
        when j + 2 <= String.length src
             && String.lowercase_ascii (String.sub src j 2) = "as"
             && j > 0
             && is_space src.[j - 1]
             && j + 2 < String.length src
             && is_space src.[j + 2] ->
        j
      | Some j -> find_as (j + 1)
      | None -> fail "expected 'as <name>'"
    in
    let j = find_as pos in
    let target = check_xpath (String.sub src pos (j - pos)) in
    let name, _ = word src (j + 2) in
    if name = "" then fail "expected a new name after 'as'";
    Rename (target, name)
  | "move" ->
    (* source path runs until the position keyword *)
    let keywords = [ "before"; "after"; "into"; "as" ] in
    let is_kw_at j kw =
      let l = String.length kw in
      j + l <= String.length src
      && String.lowercase_ascii (String.sub src j l) = kw
      && (j = 0 || is_space src.[j - 1])
      && (j + l = String.length src || is_space src.[j + l])
    in
    let rec find_kw j =
      if j >= String.length src then fail "expected a position in 'move'"
      else if List.exists (is_kw_at j) keywords then j
      else find_kw (j + 1)
    in
    let j = find_kw pos in
    let source = check_xpath (String.sub src pos (j - pos)) in
    let position, pos' = parse_position src j in
    let destination = check_xpath (rest_of src pos') in
    Move (source, position, destination)
  | "" -> fail "empty statement"
  | other -> fail "unknown statement %S" other

let parse src = List.map parse_statement (split_statements src)

let position_to_string = function
  | Before -> "before"
  | After -> "after"
  | First_into -> "as first into"
  | Last_into -> "as last into"

let statement_to_string = function
  | Insert (frag, p, target) ->
    Printf.sprintf "insert %s %s %s" (Serializer.frag_to_string frag)
      (position_to_string p) target
  | Delete t -> Printf.sprintf "delete %s" t
  | Replace_value (t, v) -> Printf.sprintf "replace value of %s with %S" t v
  | Rename (t, n) -> Printf.sprintf "rename %s as %s" t n
  | Move (s, p, d) -> Printf.sprintf "move %s %s %s" s (position_to_string p) d

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

type report = { executed : int; inserted : int; deleted : int; modified : int }

let select session path =
  let enc = Encoding.of_doc session.Core.Session.doc in
  List.map (Encoding.node_of_row enc) (Xpath.eval enc path)

let select_one session path =
  match select session path with
  | [ n ] -> n
  | [] -> fail "target %s selects no node" path
  | l -> fail "target %s selects %d nodes; exactly one is required" path (List.length l)

let insert_at session payload position anchor =
  match position with
  | Before -> session.Core.Session.insert_before anchor payload
  | After -> session.Core.Session.insert_after anchor payload
  | First_into -> session.Core.Session.insert_first anchor payload
  | Last_into -> session.Core.Session.insert_last anchor payload

let apply_insert session payload position target =
  insert_at session payload position (select_one session target)

let execute session statements =
  let inserted = ref 0 and deleted = ref 0 and modified = ref 0 in
  List.iter
    (fun stmt ->
      match stmt with
      | Insert (payload, position, target) ->
        ignore (apply_insert session payload position target);
        inserted := !inserted + Tree.frag_size payload
      | Delete target ->
        let victims = select session target in
        if victims = [] then fail "target %s selects no node" target;
        List.iter
          (fun (n : Tree.node) ->
            (* earlier deletions may have removed an enclosing subtree *)
            if Tree.mem session.Core.Session.doc n.Tree.id then begin
              deleted := !deleted + 1 + List.length (Tree.descendants n);
              session.Core.Session.delete n
            end)
          victims
      | Replace_value (target, value) ->
        let n = select_one session target in
        session.Core.Session.set_value n (Some value);
        incr modified
      | Rename (target, name) ->
        let n = select_one session target in
        session.Core.Session.rename n name;
        incr modified
      | Move (source, position, destination) ->
        let n = select_one session source in
        if Tree.parent n = None then fail "cannot move the document root";
        let frag = Tree.to_frag n in
        let dest = select_one session destination in
        if n.Tree.id = dest.Tree.id || Oracle.is_ancestor n dest then
          fail "move destination %s lies inside the moved subtree" destination;
        (* the destination node survives the deletion by the check above,
           so insert relative to it directly rather than re-resolving the
           path against the changed document *)
        session.Core.Session.delete n;
        ignore (insert_at session frag position dest);
        modified := !modified + Tree.frag_size frag)
    statements;
  {
    executed = List.length statements;
    inserted = !inserted;
    deleted = !deleted;
    modified = !modified;
  }

let run session src = execute session (parse src)
