type error = { position : int; message : string }

exception Parse_error of error

let pp_error ppf e =
  Format.fprintf ppf "XPath error at offset %d: %s" e.position e.message

(* ------------------------------------------------------------------ *)
(* Abstract syntax                                                     *)
(* ------------------------------------------------------------------ *)

type axis =
  | Child
  | Descendant
  | Descendant_or_self
  | Parent
  | Ancestor
  | Ancestor_or_self
  | Following
  | Preceding
  | Following_sibling
  | Preceding_sibling
  | Self
  | Attribute

type nodetest = Name of string | Any | Node

type step = { axis : axis; test : nodetest; predicates : expr list }

and expr =
  | Path of path
  | Literal of string
  | Number of float
  | Compare of cmp * expr * expr
  | And of expr * expr
  | Or of expr * expr
  | Not of expr
  | Position
  | Last
  | Count of path

and cmp = Eq | Neq | Lt | Le | Gt | Ge

and path = { absolute : bool; steps : step list }

type ast = path

(* Whether an axis can yield attribute nodes (XPath reaches attributes only
   through the attribute axis, or self from an attribute context). *)
let axis_reaches_attributes = function
  | Attribute | Self -> true
  | Child | Descendant | Descendant_or_self | Parent | Ancestor | Ancestor_or_self
  | Following | Preceding | Following_sibling | Preceding_sibling ->
    false

let axis_name = function
  | Child -> "child"
  | Descendant -> "descendant"
  | Descendant_or_self -> "descendant-or-self"
  | Parent -> "parent"
  | Ancestor -> "ancestor"
  | Ancestor_or_self -> "ancestor-or-self"
  | Following -> "following"
  | Preceding -> "preceding"
  | Following_sibling -> "following-sibling"
  | Preceding_sibling -> "preceding-sibling"
  | Self -> "self"
  | Attribute -> "attribute"

let cmp_name = function
  | Eq -> "="
  | Neq -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let rec step_to_string s =
  let test =
    match s.test with Name n -> n | Any -> "*" | Node -> "node()"
  in
  Printf.sprintf "%s::%s%s" (axis_name s.axis) test
    (String.concat "" (List.map (fun p -> "[" ^ expr_to_string p ^ "]") s.predicates))

and expr_to_string = function
  | Path p -> path_to_string p
  | Literal s -> "'" ^ s ^ "'"
  | Number f -> if Float.is_integer f then string_of_int (int_of_float f) else string_of_float f
  | Compare (c, a, b) -> expr_to_string a ^ " " ^ cmp_name c ^ " " ^ expr_to_string b
  | And (a, b) -> expr_to_string a ^ " and " ^ expr_to_string b
  | Or (a, b) -> expr_to_string a ^ " or " ^ expr_to_string b
  | Not e -> "not(" ^ expr_to_string e ^ ")"
  | Position -> "position()"
  | Last -> "last()"
  | Count p -> "count(" ^ path_to_string p ^ ")"

and path_to_string p =
  (if p.absolute then "/" else "") ^ String.concat "/" (List.map step_to_string p.steps)

let to_string = path_to_string

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

type token =
  | Tslash
  | Tdslash
  | Tdot
  | Tddot
  | Tat
  | Tstar
  | Tlbracket
  | Trbracket
  | Tlparen
  | Trparen
  | Tcolon2
  | Tcomma
  | Tname of string
  | Tstring of string
  | Tnumber of float
  | Tcmp of cmp
  | Teof

let fail pos message = raise (Parse_error { position = pos; message })

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_name_char c = is_name_start c || (c >= '0' && c <= '9') || c = '-' || c = '.'

let tokenize src =
  let n = String.length src in
  let toks = ref [] in
  let push t pos = toks := (t, pos) :: !toks in
  let i = ref 0 in
  while !i < n do
    let c = src.[!i] in
    let pos = !i in
    if c = ' ' || c = '\t' || c = '\n' then incr i
    else if c = '/' then
      if !i + 1 < n && src.[!i + 1] = '/' then begin push Tdslash pos; i := !i + 2 end
      else begin push Tslash pos; incr i end
    else if c = '.' then
      if !i + 1 < n && src.[!i + 1] = '.' then begin push Tddot pos; i := !i + 2 end
      else begin push Tdot pos; incr i end
    else if c = ':' && !i + 1 < n && src.[!i + 1] = ':' then begin
      push Tcolon2 pos;
      i := !i + 2
    end
    else if c = '@' then begin push Tat pos; incr i end
    else if c = '*' then begin push Tstar pos; incr i end
    else if c = '[' then begin push Tlbracket pos; incr i end
    else if c = ']' then begin push Trbracket pos; incr i end
    else if c = '(' then begin push Tlparen pos; incr i end
    else if c = ')' then begin push Trparen pos; incr i end
    else if c = ',' then begin push Tcomma pos; incr i end
    else if c = '=' then begin push (Tcmp Eq) pos; incr i end
    else if c = '!' && !i + 1 < n && src.[!i + 1] = '=' then begin
      push (Tcmp Neq) pos;
      i := !i + 2
    end
    else if c = '<' then
      if !i + 1 < n && src.[!i + 1] = '=' then begin push (Tcmp Le) pos; i := !i + 2 end
      else begin push (Tcmp Lt) pos; incr i end
    else if c = '>' then
      if !i + 1 < n && src.[!i + 1] = '=' then begin push (Tcmp Ge) pos; i := !i + 2 end
      else begin push (Tcmp Gt) pos; incr i end
    else if c = '\'' || c = '"' then begin
      let quote = c in
      let start = !i + 1 in
      let rec close j = if j >= n then fail pos "unterminated string literal"
        else if src.[j] = quote then j else close (j + 1)
      in
      let j = close start in
      push (Tstring (String.sub src start (j - start))) pos;
      i := j + 1
    end
    else if c >= '0' && c <= '9' then begin
      (* digits, then at most one '.' and its digits *)
      let start = !i in
      let digits () = while !i < n && src.[!i] >= '0' && src.[!i] <= '9' do incr i done in
      digits ();
      if !i < n && src.[!i] = '.' then begin incr i; digits () end;
      if !i < n && src.[!i] = '.' then fail pos "malformed number";
      push (Tnumber (float_of_string (String.sub src start (!i - start)))) pos
    end
    else if is_name_start c then begin
      let start = !i in
      while !i < n && is_name_char src.[!i] do incr i done;
      push (Tname (String.sub src start (!i - start))) pos
    end
    else fail pos (Printf.sprintf "unexpected character %C" c)
  done;
  push Teof n;
  List.rev !toks

(* ------------------------------------------------------------------ *)
(* Parser (recursive descent over the token list)                      *)
(* ------------------------------------------------------------------ *)

type parser_state = { mutable toks : (token * int) list }

let peek st = match st.toks with (t, p) :: _ -> (t, p) | [] -> (Teof, 0)

let advance st = match st.toks with _ :: rest -> st.toks <- rest | [] -> ()

let expect st tok what =
  let t, p = peek st in
  if t = tok then advance st else fail p ("expected " ^ what)

let axis_of_name p = function
  | "child" -> Child
  | "descendant" -> Descendant
  | "descendant-or-self" -> Descendant_or_self
  | "parent" -> Parent
  | "ancestor" -> Ancestor
  | "ancestor-or-self" -> Ancestor_or_self
  | "following" -> Following
  | "preceding" -> Preceding
  | "following-sibling" -> Following_sibling
  | "preceding-sibling" -> Preceding_sibling
  | "self" -> Self
  | "attribute" -> Attribute
  | a -> fail p ("unknown axis " ^ a)

let rec parse_path st =
  let t, _ = peek st in
  match t with
  | Tslash ->
    advance st;
    let t2, _ = peek st in
    if t2 = Teof then { absolute = true; steps = [] }
    else { absolute = true; steps = parse_steps st }
  | Tdslash ->
    advance st;
    let steps = parse_steps st in
    { absolute = true; steps = { axis = Descendant_or_self; test = Node; predicates = [] } :: steps }
  | _ -> { absolute = false; steps = parse_steps st }

and parse_steps st =
  let first = parse_step st in
  let rec more acc =
    match peek st with
    | Tslash, _ ->
      advance st;
      more (parse_step st :: acc)
    | Tdslash, _ ->
      advance st;
      let dos = { axis = Descendant_or_self; test = Node; predicates = [] } in
      more (parse_step st :: dos :: acc)
    | _ -> List.rev acc
  in
  more [ first ]

and parse_step st =
  let t, p = peek st in
  match t with
  | Tdot ->
    advance st;
    { axis = Self; test = Node; predicates = [] }
  | Tddot ->
    advance st;
    { axis = Parent; test = Node; predicates = [] }
  | Tat ->
    advance st;
    let test = parse_nodetest st in
    { axis = Attribute; test; predicates = parse_predicates st }
  | Tstar ->
    advance st;
    { axis = Child; test = Any; predicates = parse_predicates st }
  | Tname name -> (
    (* Either an explicit axis (name::) or a child-axis name test. *)
    match st.toks with
    | (_, _) :: (Tcolon2, _) :: _ ->
      advance st;
      advance st;
      let axis = axis_of_name p name in
      let test = parse_nodetest st in
      { axis; test; predicates = parse_predicates st }
    | _ ->
      advance st;
      (* node() as a bare test *)
      let test =
        if name = "node" && fst (peek st) = Tlparen then begin
          advance st;
          expect st Trparen ")";
          Node
        end
        else Name name
      in
      { axis = Child; test; predicates = parse_predicates st })
  | _ -> fail p "expected a location step"

and parse_nodetest st =
  let t, p = peek st in
  match t with
  | Tstar ->
    advance st;
    Any
  | Tname "node" when (match st.toks with _ :: (Tlparen, _) :: _ -> true | _ -> false) ->
    advance st;
    advance st;
    expect st Trparen ")";
    Node
  | Tname n ->
    advance st;
    Name n
  | _ -> fail p "expected a node test"

and parse_predicates st =
  match peek st with
  | Tlbracket, _ ->
    advance st;
    let e = parse_expr st in
    expect st Trbracket "]";
    e :: parse_predicates st
  | _ -> []

and parse_expr st = parse_or st

and parse_or st =
  let left = parse_and st in
  match peek st with
  | Tname "or", _ ->
    advance st;
    Or (left, parse_or st)
  | _ -> left

and parse_and st =
  let left = parse_cmp st in
  match peek st with
  | Tname "and", _ ->
    advance st;
    And (left, parse_and st)
  | _ -> left

and parse_cmp st =
  let left = parse_primary st in
  match peek st with
  | Tcmp c, _ ->
    advance st;
    Compare (c, left, parse_primary st)
  | _ -> left

and parse_primary st =
  let t, p = peek st in
  match t with
  | Tnumber f ->
    advance st;
    Number f
  | Tstring s ->
    advance st;
    Literal s
  | Tlparen ->
    advance st;
    let e = parse_expr st in
    expect st Trparen ")";
    e
  | Tname ("not" | "position" | "last" | "count" as f)
    when (match st.toks with _ :: (Tlparen, _) :: _ -> true | _ -> false) ->
    advance st;
    advance st;
    let e =
      match f with
      | "not" -> Not (parse_expr st)
      | "position" -> Position
      | "last" -> Last
      | _ -> Count (parse_path st)
    in
    expect st Trparen ")";
    e
  | Tname _ | Tdot | Tddot | Tat | Tstar | Tslash | Tdslash -> Path (parse_path st)
  | _ -> fail p "expected an expression"

let parse src =
  let st = { toks = tokenize src } in
  let path = parse_path st in
  (match peek st with
  | Teof, _ -> ()
  | _, p -> fail p "trailing tokens after the path expression");
  path

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

open Encoding

(* The virtual document node above the root element: absolute paths start
   here, so that /book selects the root element itself. *)
let virtual_root : row =
  {
    pre = -1;
    post = max_int;
    kind = Element;
    parent_pre = None;
    level = -1;
    name = "#document";
    value = None;
  }

let is_virtual (r : row) = r.pre = -1

(* A row's parent key, with the virtual root as the parent of the document
   element. *)
let parent_key (r : row) = Option.value r.parent_pre ~default:(-1)

(* Region queries in the pre/post plane (Grust): each axis is a predicate
   over the candidate row given the context row. Although the paper's data
   model stores attributes as tree children, XPath only reaches attribute
   nodes through the attribute axis (or self from an attribute context). *)
let axis_pred axis (ctx : row) (r : row) =
  if r.kind = Attribute && not (axis_reaches_attributes axis) then false
  else
  match axis with
  | Child -> parent_key r = ctx.pre && r.kind = Element && not (is_virtual r)
  | Attribute -> parent_key r = ctx.pre && r.kind = Attribute
  | Descendant -> r.pre > ctx.pre && r.post < ctx.post
  | Descendant_or_self -> r.pre >= ctx.pre && r.post <= ctx.post
  | Parent -> parent_key ctx = r.pre && not (is_virtual ctx)
  | Ancestor -> r.pre < ctx.pre && r.post > ctx.post
  | Ancestor_or_self -> r.pre <= ctx.pre && r.post >= ctx.post
  | Following -> r.pre > ctx.pre && r.post > ctx.post && not (is_virtual r)
  | Preceding -> r.pre < ctx.pre && r.post < ctx.post && not (is_virtual r)
  | Following_sibling ->
    (not (is_virtual r)) && (not (is_virtual ctx)) && parent_key r = parent_key ctx && r.pre > ctx.pre
  | Preceding_sibling ->
    (not (is_virtual r)) && (not (is_virtual ctx)) && parent_key r = parent_key ctx && r.pre < ctx.pre
  | Self -> r.pre = ctx.pre

let reverse_axis = function
  | Ancestor | Ancestor_or_self | Preceding | Preceding_sibling | Parent -> true
  | _ -> false

let test_pred test (r : row) =
  match test with
  | Name n -> r.name = n
  | Any -> not (is_virtual r) (* '*' tests the principal node type *)
  | Node -> true

let string_value (r : row) = Option.value r.value ~default:""

type value = Nodes of row list | Str of string | Num of float | Bool of bool

let to_bool = function
  | Bool b -> b
  | Num f -> f <> 0.0
  | Str s -> s <> ""
  | Nodes ns -> ns <> []

let to_num = function
  | Num f -> f
  | Str s -> (try float_of_string s with Failure _ -> Float.nan)
  | Bool b -> if b then 1.0 else 0.0
  | Nodes [] -> Float.nan
  | Nodes (r :: _) -> ( try float_of_string (string_value r) with Failure _ -> Float.nan)

let compare_values c a b =
  let num_cmp op = op (to_num a) (to_num b) in
  match c with
  | Eq | Neq -> (
    let eq =
      match (a, b) with
      | Nodes ns, Str s | Str s, Nodes ns -> List.exists (fun r -> string_value r = s) ns
      | Nodes ns, Num f | Num f, Nodes ns ->
        List.exists (fun r -> (try float_of_string (string_value r) = f with Failure _ -> false)) ns
      | Nodes xs, Nodes ys ->
        List.exists (fun x -> List.exists (fun y -> string_value x = string_value y) ys) xs
      | Str x, Str y -> x = y
      | Num x, Num y -> x = y
      | x, y -> to_bool x = to_bool y
    in
    match c with Eq -> eq | _ -> not eq)
  | Lt -> num_cmp ( < )
  | Le -> num_cmp ( <= )
  | Gt -> num_cmp ( > )
  | Ge -> num_cmp ( >= )

let dedup_doc_order rows =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun (r : row) ->
      if Hashtbl.mem seen r.pre then false
      else begin
        Hashtbl.replace seen r.pre ();
        true
      end)
    (List.sort (fun (a : row) b -> Int.compare a.pre b.pre) rows)

(* ------------------------------------------------------------------ *)
(* Path optimisation                                                   *)
(* ------------------------------------------------------------------ *)

(* Whether an expression's value can depend on position()/last(). Path
   and Count sub-paths re-scope the position, so they never do. *)
let rec positional_expr = function
  | Position | Last -> true
  | Compare (_, a, b) | And (a, b) | Or (a, b) -> positional_expr a || positional_expr b
  | Not e -> positional_expr e
  | Path _ | Literal _ | Number _ | Count _ -> false

(* A predicate whose value is a number is compared with position(): [2]
   abbreviates [position() = 2], and [count(x)] means
   [position() = count(x)]. *)
let positional_pred = function Number _ | Count _ -> true | e -> positional_expr e

(* Collapse the '//' expansion — descendant-or-self::node()/child::T[ps]
   into descendant::T[ps] — whenever no predicate is positional. The two
   spellings select the same node set (both axes exclude attributes and a
   child of some descendant-or-self node is exactly a descendant), but
   positions differ: the abbreviation numbers candidates per intermediate
   context, the collapsed step numbers them across the whole subtree. The
   collapsed form is what the name index answers in O(occurrences). *)
let rec collapse_steps = function
  | { axis = Descendant_or_self; test = Node; predicates = [] }
    :: ({ axis = Child; _ } as s)
    :: rest
    when not (List.exists positional_pred s.predicates) ->
    collapse_step { s with axis = Descendant } :: collapse_steps rest
  | s :: rest -> collapse_step s :: collapse_steps rest
  | [] -> []

and collapse_step s = { s with predicates = List.map collapse_expr s.predicates }

and collapse_expr = function
  | Path p -> Path (collapse_path p)
  | Count p -> Count (collapse_path p)
  | Compare (c, a, b) -> Compare (c, collapse_expr a, collapse_expr b)
  | And (a, b) -> And (collapse_expr a, collapse_expr b)
  | Or (a, b) -> Or (collapse_expr a, collapse_expr b)
  | Not e -> Not (collapse_expr e)
  | (Literal _ | Number _ | Position | Last) as e -> e

and collapse_path p = { p with steps = collapse_steps p.steps }

(* The names a path's answer can depend on, when its shape lets nothing
   else move it: after [collapse], name tests on child and descendant
   steps (and the descendant-or-self::node()/child::name pair a
   positional '//name[k]' keeps), each predicate built from relative
   paths of that kind, [count()] of them, literals, numbers,
   [position()], [last()], comparisons, [and], [or] and [not]. Such a
   path selects nodes of its last name that stand in fixed
   child/descendant relations to nodes of its other names; a name-test
   step numbers only candidates of its name, in a document order no
   primitive changes for surviving nodes; and a comparison reads a
   node's own value. So its answer changes only when a node carrying
   one of the names is inserted, deleted, renamed or revalued. *)
let name_signature (p : ast) =
  let exception Opaque in
  let rec steps acc = function
    | [] -> acc
    | { axis = Descendant_or_self; test = Node; predicates = [] }
      :: ({ axis = Child; test = Name _; _ } :: _ as rest) ->
      steps acc rest
    | { axis = Child | Descendant; test = Name n; predicates } :: rest ->
      steps (List.fold_left expr (n :: acc) predicates) rest
    | _ -> raise Opaque
  and expr acc = function
    | (Path q | Count q) when not q.absolute -> steps acc q.steps
    | Path _ | Count _ -> raise Opaque
    | Compare (_, a, b) | And (a, b) | Or (a, b) -> expr (expr acc a) b
    | Not e -> expr acc e
    | Literal _ | Number _ | Position | Last -> acc
  in
  match steps [] (collapse_path p).steps with
  | names -> Some (List.sort_uniq String.compare names)
  | exception Opaque -> None

(* ------------------------------------------------------------------ *)
(* The evaluation engines                                              *)
(* ------------------------------------------------------------------ *)

(* Two routes to one semantics. The scan route filters the materialised
   row list with the region predicates above: the reference, and the
   oracle served answers are checked against. The source route carries
   node sets as sorted rank streams over an axis source (§3.1.1 region
   queries, backed by the batch or the incremental index): name-test
   steps, the positional '//name[k]' pair, the sibling axes and
   existential path predicates are {!Rank_join} joins and child-list
   reads; every other step falls back to per-context region scans. Rows
   are built only for the answer and for sub-path values a predicate
   compares.

   Predicates see a context of the route's own kind — a row for the scan,
   a (pre rank, node) entry for the source — and evaluate sub-paths
   through the route. *)
type 'c engine = { nodes : 'c -> path -> row list; count : 'c -> path -> int }

let rec eval_expr eng ctx ~position ~last = function
  | Path p -> Nodes (eng.nodes ctx p)
  | Literal s -> Str s
  | Number f -> Num f
  | Compare (c, a, b) ->
    Bool
      (compare_values c
         (eval_expr eng ctx ~position ~last a)
         (eval_expr eng ctx ~position ~last b))
  | And (a, b) ->
    Bool
      (to_bool (eval_expr eng ctx ~position ~last a)
      && to_bool (eval_expr eng ctx ~position ~last b))
  | Or (a, b) ->
    Bool
      (to_bool (eval_expr eng ctx ~position ~last a)
      || to_bool (eval_expr eng ctx ~position ~last b))
  | Not e -> Bool (not (to_bool (eval_expr eng ctx ~position ~last e)))
  | Position -> Num (float_of_int position)
  | Last -> Num (float_of_int last)
  | Count p -> Num (float_of_int (eng.count ctx p))

(* Each predicate filters with position()/last() relative to the current
   candidate list. *)
let apply_predicates eng step ordered =
  let apply_pred cands pred =
    let last = List.length cands in
    List.filteri
      (fun i x ->
        match eval_expr eng x ~position:(i + 1) ~last pred with
        | Num f -> f = float_of_int (i + 1) (* [2] means position()=2 *)
        | v -> to_bool v)
      cands
  in
  List.fold_left apply_pred ordered step.predicates

let rec scan_path all ctx p =
  let eng = { nodes = scan_path all; count = (fun c p -> List.length (scan_path all c p)) } in
  List.fold_left
    (fun nodes step ->
      dedup_doc_order
        (List.concat_map
           (fun ctx ->
             let cands = List.filter (fun r -> axis_pred step.axis ctx r && test_pred step.test r) all in
             apply_predicates eng step (if reverse_axis step.axis then List.rev cands else cands))
           nodes))
    (if p.absolute then [ virtual_root ] else [ ctx ])
    p.steps

(* ---- The source route -------------------------------------------- *)

(* The virtual document node as a stream entry. It is in no index and
   has no key: the axes special-case it. *)
let virtual_node =
  { Axis_source.n_post = virtual_root.post; n_kind = Element; n_level = virtual_root.level;
    n_key = -1; n_parent = -1; n_name = virtual_root.name; n_value = None }

let is_virtual_pre pre = pre = virtual_root.pre

let drop_virtual (s : Rank_join.t) =
  if Rank_join.length s > 0 && is_virtual_pre s.pre.(0) then
    Rank_join.filter (fun pre _ -> not (is_virtual_pre pre)) s
  else s

let single e = Rank_join.of_list [ e ]

let entries (s : Rank_join.t) = List.init (Rank_join.length s) (fun i -> (s.pre.(i), s.node.(i)))

let rows_of src (s : Rank_join.t) =
  let rows = Rank_join.rows src (drop_virtual s) in
  if Rank_join.length s > 0 && is_virtual_pre s.pre.(0) then virtual_root :: rows else rows

let node_test step (n : Axis_source.node) =
  match step.test with Name x -> n.n_name = x | Any -> n != virtual_node | Node -> true

(* A step's candidate test: XPath reaches attributes only through the
   attribute and self axes. *)
let admits step (n : Axis_source.node) =
  (n.n_kind <> Attribute || axis_reaches_attributes step.axis) && node_test step n

(* One context's candidates along an axis other than child and attribute,
   in document order, from region scans and parent links. The virtual
   document node is the parent of the document element and an ancestor of
   everything. *)
let axis_candidates (src : Axis_source.t) axis ((pre, (n : Axis_source.node)) as ctx) =
  let collect from while_ keep =
    let acc = ref [] in
    src.scan from (fun p m ->
        while_ p m
        && begin
          if keep m then acc := (p, m) :: !acc;
          true
        end);
    List.rev !acc
  in
  let non_attribute (m : Axis_source.node) = m.n_kind <> Attribute in
  let descendants () =
    collect (pre + 1) (fun _ (m : Axis_source.node) -> m.n_post < n.n_post) non_attribute
  in
  let parent_of (p, (m : Axis_source.node)) =
    if is_virtual_pre p then None
    else if m.n_parent = -1 then Some (virtual_root.pre, virtual_node)
    else
      let q = src.rank_of_key m.n_parent in
      Some (q, src.node q)
  in
  let rec ancestors acc e = match parent_of e with Some a -> ancestors (a :: acc) a | None -> acc in
  let siblings keep =
    let kids = if n.n_parent = -1 then [||] else src.children_of n.n_parent in
    List.map (fun p -> (p, src.node p)) (List.filter keep (Array.to_list kids))
  in
  match axis with
  | Child | Attribute -> invalid_arg "Xpath.axis_candidates: a child-list axis"
  | Descendant -> descendants ()
  | Descendant_or_self -> ctx :: descendants ()
  | Self -> [ ctx ]
  | Parent -> Option.to_list (parent_of ctx)
  | Ancestor -> ancestors [] ctx
  | Ancestor_or_self -> ancestors [ ctx ] ctx
  | Following -> collect (pre + 1) (fun _ _ -> true) (fun m -> non_attribute m && m.n_post > n.n_post)
  | Preceding -> collect min_int (fun p _ -> p < pre) (fun m -> non_attribute m && m.n_post < n.n_post)
  | Following_sibling -> siblings (fun p -> p > pre)
  | Preceding_sibling -> siblings (fun p -> p < pre)

(* A step whose predicates never read position()/last() keeps or drops a
   node whatever context reached it, so it can run over the union of its
   contexts' candidates, testing each node once. *)
let set_at_a_time step = not (List.exists positional_pred step.predicates)

(* A relative path the kernel can test for non-emptiness: name-test
   child/descendant steps (and self::node()) with set-at-a-time
   predicates. *)
let existential p =
  (not p.absolute)
  && List.for_all
       (fun s ->
         match (s.axis, s.test) with
         | (Child | Descendant), Name _ -> set_at_a_time s
         | Self, Node -> s.predicates = []
         | _ -> false)
       p.steps

let sorted a =
  Array.stable_sort Int.compare a;
  a

(* A child or attribute step over a context set. A name test on the child
   axis is a kernel join against the name's elements, one lookup per
   occurrence; reading each context's child list instead costs a lookup
   per child. Timed on 20k-node Axis_inc snapshots (Docgen seeds 5-7,
   every k-th section, list or group as contexts, section, field or item
   as names; 27 cases per k), the child lists take 2.0-2.8x the join's
   time at one occurrence per context, 1.0-1.35x at two, 0.6-0.9x at
   three and 0.3-0.5x at six. So the join runs unless the name has more
   than two occurrences per context, a test that reads at most that many
   ranks of the name index. *)
let child_step (src : Axis_source.t) (nodes : Rank_join.t) step =
  match step.test with
  | Name n when step.axis = Child && not (src.more_than n (2 * Rank_join.length nodes)) ->
    Rank_join.children ~ctx:nodes (Rank_join.of_ranks src (src.ranks n))
  | _ ->
    let kids =
      Array.concat
        (List.map
           (fun (pre, (n : Axis_source.node)) ->
             if is_virtual_pre pre then [| fst (Axis_source.root src) |] else src.children_of n.n_key)
           (entries nodes))
    in
    let kind = if step.axis = Attribute then Encoding.Attribute else Element in
    Rank_join.of_ranks ~kind ~test:(node_test step) src (sorted kids)

let descendant_step (src : Axis_source.t) nodes n =
  Rank_join.descendants ~ctx:nodes (Rank_join.of_ranks src (src.ranks n))

(* The sibling axes once per distinct parent: its child list is read once,
   cut after the earliest context child (following-sibling) or before the
   latest (preceding-sibling). *)
let siblings (src : Axis_source.t) step nodes =
  let following = step.axis = Following_sibling in
  let bound = Hashtbl.create 16 in
  List.iter
    (fun (pre, (n : Axis_source.node)) ->
      if n.n_parent <> -1 then begin
        let b = Option.value (Hashtbl.find_opt bound n.n_parent) ~default:pre in
        Hashtbl.replace bound n.n_parent (if following then min b pre else max b pre)
      end)
    (entries nodes);
  let after b pre = if following then pre > b else pre < b in
  let kept =
    Hashtbl.fold
      (fun p b acc -> List.filter (after b) (Array.to_list (src.children_of p)) @ acc)
      bound []
  in
  Rank_join.of_ranks ~test:(node_test step) src (sorted (Array.of_list kept))

let rec src_path src ctx p =
  let rec go nodes = function
    | [] -> nodes
    | _ when Rank_join.is_empty nodes -> nodes
    | { axis = Descendant_or_self; test = Node; predicates = [] }
      :: ({ axis = Child; test = Name n; _ } as s)
      :: rest ->
      (* '//name[k]' (collapse leaves positional steps alone): a child of a
         descendant-or-self node is a proper descendant, numbered among its
         parent's children. *)
      go (per_parent src s (descendant_step src nodes n)) rest
    | s :: rest -> go (src_step src nodes s) rest
  in
  go (if p.absolute then single (virtual_root.pre, virtual_node) else ctx) p.steps

and src_engine src =
  {
    nodes = (fun ctx p -> rows_of src (src_path src (single ctx) p));
    count = (fun ctx p -> Rank_join.length (src_path src (single ctx) p));
  }

and src_step src nodes step =
  match (step.axis, step.test) with
  | (Child | Attribute), _ when not (set_at_a_time step) ->
    per_parent src step (child_step src nodes step)
  | _ when not (set_at_a_time step) ->
    Rank_join.of_list
      (List.concat_map
         (fun ctx ->
           let cands = List.filter (fun (_, m) -> admits step m) (axis_candidates src step.axis ctx) in
           let ordered = if reverse_axis step.axis then List.rev cands else cands in
           apply_predicates (src_engine src) step ordered)
         (entries nodes))
  | (Child | Attribute), _ -> filter_preds src (child_step src nodes step) step.predicates
  | Descendant, Name n -> filter_preds src (descendant_step src nodes n) step.predicates
  | (Following_sibling | Preceding_sibling), _ ->
    filter_preds src (siblings src step nodes) step.predicates
  | _ ->
    let cands = List.concat_map (axis_candidates src step.axis) (entries nodes) in
    let cands = List.filter (fun (_, m) -> admits step m) cands in
    filter_preds src (Rank_join.of_list cands) step.predicates

(* Positional predicates over child or attribute candidates, numbered per
   parent. *)
and per_parent src step s =
  let groups = Hashtbl.create 64 in
  List.iter
    (fun ((_, (n : Axis_source.node)) as e) ->
      let g = Option.value (Hashtbl.find_opt groups n.n_parent) ~default:[] in
      Hashtbl.replace groups n.n_parent (e :: g))
    (List.rev (entries s));
  Rank_join.of_list
    (Hashtbl.fold (fun _ g acc -> apply_predicates (src_engine src) step g @ acc) groups [])

and filter_preds src s preds = List.fold_left (filter_pred src) s preds

(* One set-at-a-time predicate over a stream: existential paths, and
   count(p) compared with zero, become semijoins; the boolean connectives
   become set operations; anything else is evaluated per node. *)
and filter_pred src s e =
  match e with
  | _ when Rank_join.is_empty s -> s
  | Path p when existential p -> exists src s p.steps
  | Compare (c, Count p, Number f)
    when existential p && (((c = Gt || c = Neq) && f = 0.) || (c = Ge && f = 1.)) ->
    exists src s p.steps
  | And (a, b) -> filter_pred src (filter_pred src s a) b
  | Or (a, b) -> Rank_join.of_list (entries (filter_pred src s a) @ entries (filter_pred src s b))
  | Not e ->
    let drop = Hashtbl.create 16 in
    Array.iter (fun pre -> Hashtbl.replace drop pre ()) (filter_pred src s e).pre;
    Rank_join.filter (fun pre _ -> not (Hashtbl.mem drop pre)) s
  | e ->
    let eng = src_engine src in
    Rank_join.filter (fun pre n -> to_bool (eval_expr eng (pre, n) ~position:1 ~last:1 e)) s

(* The entries of [s] from which [steps] reach some node: each step runs
   over [s] as an ordinary step would, so a small [s] reads child lists
   rather than every occurrence of the name; its answer is narrowed by
   its predicates and the rest of the path, then joined back onto [s]. *)
and exists src s = function
  | [] -> s
  | { axis = Self; _ } :: rest -> exists src s rest
  | ({ axis; test = Name n; predicates } as step) :: rest ->
    let cands = if axis = Child then child_step src s step else descendant_step src s n in
    let reached = exists src (filter_preds src cands predicates) rest in
    if axis = Child then Rank_join.having_child s reached else Rank_join.having_descendant s reached
  | _ -> invalid_arg "Xpath.exists: not an existential path"

let select_src src (p : ast) =
  drop_virtual (src_path src (single (Axis_source.root src)) (collapse_path p))

(* [name_signature]'s stamps, and the shapes whose answer also depends
   on the children of the nodes a name-signed path [S] (ending in name
   X) selects, or on the document element's (named R at [src]):

   - [S/*], [S/node()], [S/@T]: S's names and [Kids X]; [/*/*] and its
     kin: [Name R] and [Kids R];
   - [S/following-sibling::T], [S/preceding-sibling::T]: S's names (and
     T's, if it is one), and [Name P] and [Kids P] for each distinct
     name P of a parent of S's nodes at [src].

   Exact: S's nodes hold while S's names do. The children of a surviving
   node come and go only by an insert or delete under it, and change
   name or value only by a rename or revalue of the child — each stamps
   [Kids] of the parent's name. A parent renamed away from P stamps
   [Name P], and no primitive moves a surviving node, so levels and
   document order hold. *)
let signature (src : Axis_source.t) (p : ast) =
  let named = List.map (fun n -> Axis_source.Name n) in
  match name_signature p with
  | Some names -> Some (named names)
  | None -> (
    let p = collapse_path p in
    match List.rev p.steps with
    | last :: rev_prefix when last.predicates = [] -> (
      let prefix = { p with steps = List.rev rev_prefix } in
      (* the prefix's stamps, and the name of the nodes it selects *)
      let head =
        match rev_prefix with
        | [ { axis = Child; test = Any; predicates = [] } ] when p.absolute ->
          let r = (snd (Axis_source.root src)).n_name in
          Some ([ Axis_source.Name r ], r)
        | { axis = Child | Descendant; test = Name x; _ } :: _ ->
          Option.map (fun names -> (named names, x)) (name_signature prefix)
        | _ -> None
      in
      let parents () =
        Array.fold_left
          (fun acc (n : Axis_source.node) ->
            if n.n_parent < 0 then acc
            else (src.node (src.rank_of_key n.n_parent)).n_name :: acc)
          [] (select_src src prefix).Rank_join.node
        |> List.sort_uniq String.compare
      in
      let signed stamps = Some (List.sort_uniq compare stamps) in
      match (head, last) with
      | Some (stamps, x), ({ axis = Child; test = Any | Node; _ } | { axis = Attribute; _ }) ->
        signed (Axis_source.Kids x :: stamps)
      | Some (stamps, _), { axis = Following_sibling | Preceding_sibling; test; _ } ->
        let y = match test with Name y -> [ Axis_source.Name y ] | Any | Node -> [] in
        signed
          (stamps @ y
          @ List.concat_map (fun p -> [ Axis_source.Name p; Axis_source.Kids p ]) (parents ()))
      | _ -> None)
    | _ -> None)

let eval_src_ast src p = Rank_join.rows src (select_src src p)

let eval_src src q = eval_src_ast src (parse q)

(* The document-scan evaluator over an explicit row list: every axis as a
   filter over all rows. The reference implementation the source-backed
   engine is checked against (notably by the server's --paranoid mode,
   which re-runs every served answer through it), and the baseline of the
   region-query benchmark. Runs the AST as written — no collapse — so the
   two engines take genuinely different routes to the same answer. *)
let eval_scan_rows all_rows (p : ast) =
  match all_rows with
  | [] -> []
  | root :: _ -> List.filter (fun r -> not (is_virtual r)) (scan_path (virtual_root :: all_rows) root p)

let eval_ast enc (p : ast) =
  eval_src_ast (Axis_source.of_index (Axis_index.build enc)) p

let eval enc src = eval_ast enc (parse src)

let eval_scan_ast enc (p : ast) = eval_scan_rows (rows enc) p

let eval_scan enc src = eval_scan_ast enc (parse src)

let collapse = collapse_path
