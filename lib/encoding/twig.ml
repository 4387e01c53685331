type axis = Child | Descendant

type t = { name : string; branches : (axis * t) list }

type error = { position : int; message : string }

exception Parse_error of error

let pp_error ppf e = Format.fprintf ppf "twig error at offset %d: %s" e.position e.message
let fail position message = raise (Parse_error { position; message })

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

type cursor = { src : string; mutable pos : int }

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let is_name_char ch =
  (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') || (ch >= '0' && ch <= '9')
  || ch = '_' || ch = '-'

let name c =
  let start = c.pos in
  while (match peek c with Some ch -> is_name_char ch | None -> false) do
    c.pos <- c.pos + 1
  done;
  if c.pos = start then fail start "expected a name";
  String.sub c.src start (c.pos - start)

(* node := name branch* ; branch := '[' path ']' ;
   path := node (('/' | '//') node)*  — a path nests as child/descendant
   chains so each edge carries its own axis. *)
let rec parse_node c =
  let n = name c in
  let branches = parse_branches c [] in
  { name = n; branches }

and parse_branches c acc =
  match peek c with
  | Some '[' ->
    c.pos <- c.pos + 1;
    let branch = parse_path c in
    (match peek c with
    | Some ']' -> c.pos <- c.pos + 1
    | _ -> fail c.pos "expected ']'");
    parse_branches c (branch :: acc)
  | _ -> List.rev acc

(* a leading axis inside a branch defaults to child *)
and parse_path c = parse_rest c (parse_axis c ~default:Child)

and parse_rest c axis =
  let node = parse_node c in
  match peek c with
  | Some '/' ->
    let next_axis = parse_axis c ~default:Child in
    let rest = parse_rest c next_axis in
    (axis, { node with branches = node.branches @ [ rest ] })
  | _ -> (axis, node)

and parse_axis c ~default =
  match peek c with
  | Some '/' ->
    c.pos <- c.pos + 1;
    if peek c = Some '/' then begin
      c.pos <- c.pos + 1;
      Descendant
    end
    else Child
  | _ -> default

(* Offsets count from the start of the text as given, surrounding blanks
   included. *)
let parse src =
  let c = { src; pos = 0 } in
  let skip_blanks () =
    while (match peek c with Some (' ' | '\t' | '\n' | '\r' | '\012') -> true | _ -> false) do
      c.pos <- c.pos + 1
    done
  in
  skip_blanks ();
  let t = parse_node c in
  skip_blanks ();
  if c.pos <> String.length src then fail c.pos "trailing characters";
  t

let rec to_string t =
  t.name
  ^ String.concat ""
      (List.map
         (fun (axis, b) ->
           Printf.sprintf "[%s%s]" (match axis with Child -> "" | Descendant -> "//")
             (to_string b))
         t.branches)

let rec matches_xpath_branch (axis, b) =
  Printf.sprintf "[%s%s]"
    (match axis with Child -> "" | Descendant -> ".//")
    (b.name ^ String.concat "" (List.map matches_xpath_branch b.branches))

let matches_xpath_equivalent t =
  "//" ^ t.name ^ String.concat "" (List.map matches_xpath_branch t.branches)

(* ------------------------------------------------------------------ *)
(* Matching: one semijoin per pattern edge, bottom-up                   *)
(* ------------------------------------------------------------------ *)

(* Only the name index is needed: each pattern node is an element stream
   narrowed by one kernel semijoin per branch, innermost branches first,
   so any axis source — dense or incremental — drives the same plan. *)
let rec select_src (src : Axis_source.t) t =
  List.fold_left
    (fun candidates (axis, branch) ->
      if Rank_join.is_empty candidates then candidates
      else
        let below = select_src src branch in
        match axis with
        | Descendant -> Rank_join.having_descendant candidates below
        | Child -> Rank_join.having_child candidates below)
    (Rank_join.of_ranks src (src.ranks t.name)) t.branches

let matches_src src t = Rank_join.rows src (select_src src t)

let signature t =
  let rec go acc t = List.fold_left (fun acc (_, b) -> go acc b) (t.name :: acc) t.branches in
  List.map (fun n -> Axis_source.Name n) (List.sort_uniq String.compare (go [] t))

let matches idx t = matches_src (Axis_source.of_index idx) t
