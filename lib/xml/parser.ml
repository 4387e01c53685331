type error = { line : int; col : int; message : string }

exception Parse_error of error

let pp_error ppf e =
  Format.fprintf ppf "XML parse error at line %d, column %d: %s" e.line e.col e.message

type state = { src : string; mutable pos : int; mutable line : int; mutable col : int }

let fail st message = raise (Parse_error { line = st.line; col = st.col; message })

let eof st = st.pos >= String.length st.src

let peek st = if eof st then '\000' else st.src.[st.pos]

let advance st =
  if not (eof st) then begin
    if st.src.[st.pos] = '\n' then begin
      st.line <- st.line + 1;
      st.col <- 1
    end
    else st.col <- st.col + 1;
    st.pos <- st.pos + 1
  end

let next st =
  let c = peek st in
  if eof st then fail st "unexpected end of input";
  advance st;
  c

let expect st c =
  let got = next st in
  if got <> c then fail st (Printf.sprintf "expected %C, found %C" c got)

let looking_at st s =
  let n = String.length s in
  st.pos + n <= String.length st.src && String.sub st.src st.pos n = s

let skip_string st s = String.iter (fun _ -> advance st) s

let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

let skip_spaces st =
  while (not (eof st)) && is_space (peek st) do
    advance st
  done

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'

let is_name_char c =
  is_name_start c || (c >= '0' && c <= '9') || c = '-' || c = '.'

let parse_name st =
  if not (is_name_start (peek st)) then fail st "expected a name";
  let start = st.pos in
  while (not (eof st)) && is_name_char (peek st) do
    advance st
  done;
  String.sub st.src start (st.pos - start)

let parse_entity st =
  (* Called after consuming '&'. *)
  let start = st.pos in
  let rec to_semicolon () =
    match next st with
    | ';' -> String.sub st.src start (st.pos - start - 1)
    | c when is_name_char c || c = '#' -> to_semicolon ()
    | _ -> fail st "malformed entity reference"
  in
  let body = to_semicolon () in
  match body with
  | "lt" -> "<"
  | "gt" -> ">"
  | "amp" -> "&"
  | "apos" -> "'"
  | "quot" -> "\""
  | _ ->
    let codepoint =
      if String.length body > 1 && body.[0] = '#' then
        try
          if body.[1] = 'x' || body.[1] = 'X' then
            Some (int_of_string ("0x" ^ String.sub body 2 (String.length body - 2)))
          else Some (int_of_string (String.sub body 1 (String.length body - 1)))
        with Failure _ -> None
      else None
    in
    (match codepoint with
    | Some cp when cp >= 0 && cp < 128 -> String.make 1 (Char.chr cp)
    | Some cp when cp >= 128 && cp <= 0x1FFFFF -> Repro_codes.Varint.encode cp (* UTF-8 bytes *)
    | _ -> fail st (Printf.sprintf "unknown entity &%s;" body))

let skip_until st marker what =
  let rec go () =
    if eof st then fail st (Printf.sprintf "unterminated %s" what)
    else if looking_at st marker then skip_string st marker
    else begin
      advance st;
      go ()
    end
  in
  go ()

let parse_attr_value st =
  let quote = next st in
  if quote <> '"' && quote <> '\'' then fail st "expected a quoted attribute value";
  let buf = Buffer.create 16 in
  let rec go () =
    let c = next st in
    if c = quote then Buffer.contents buf
    else if c = '<' then fail st "'<' is not allowed in attribute values"
    else if c = '&' then begin
      Buffer.add_string buf (parse_entity st);
      go ()
    end
    else begin
      Buffer.add_char buf c;
      go ()
    end
  in
  go ()

let parse_attributes st =
  let rec go acc =
    skip_spaces st;
    if is_name_start (peek st) then begin
      let name = parse_name st in
      skip_spaces st;
      expect st '=';
      skip_spaces st;
      let value = parse_attr_value st in
      if List.mem_assoc name acc then fail st (Printf.sprintf "duplicate attribute %s" name);
      go ((name, value) :: acc)
    end
    else List.rev acc
  in
  go []

let non_blank s = String.exists (fun c -> not (is_space c)) s

type event =
  | Start_element of string * (string * string) list
  | Text of string
  | End_element of string

(* Comments, processing instructions and blanks, in any order. *)
let skip_misc st =
  let rec go () =
    skip_spaces st;
    if looking_at st "<!--" then begin
      skip_string st "<!--";
      skip_until st "-->" "comment";
      go ()
    end
    else if looking_at st "<?" then begin
      skip_string st "<?";
      skip_until st "?>" "processing instruction";
      go ()
    end
  in
  go ()

(* Misc, at most one DOCTYPE, misc again: the prolog of XML 1.0 [22]. *)
let skip_prolog st =
  skip_misc st;
  if looking_at st "<!DOCTYPE" then begin
    (* Skip to the matching '>', tolerating an internal subset. *)
    skip_string st "<!DOCTYPE";
    let depth = ref 1 in
    while !depth > 0 do
      match next st with
      | '<' -> incr depth
      | '>' -> decr depth
      | _ -> ()
    done;
    skip_misc st;
    if looking_at st "<!DOCTYPE" then fail st "a second DOCTYPE declaration"
  end

(* Scans the element that starts at the cursor and folds its events
   through [f], returning once it closes. The open elements live on an
   explicit stack, each with the character data seen so far, so depth
   costs heap, not OCaml stack. *)
let fold_element st ~init ~f =
  let acc = ref init in
  let emit e = acc := f !acc e in
  let stack = ref [] in
  let start_tag () =
    expect st '<';
    let name = parse_name st in
    let attrs = parse_attributes st in
    skip_spaces st;
    let empty = looking_at st "/>" in
    if empty then skip_string st "/>" else expect st '>';
    emit (Start_element (name, attrs));
    if empty then emit (End_element name) else stack := (name, Buffer.create 16) :: !stack
  in
  start_tag ();
  while !stack <> [] do
    let name, text = List.hd !stack in
    if eof st then fail st (Printf.sprintf "unterminated element <%s>" name)
    else if looking_at st "</" then begin
      skip_string st "</";
      let close = parse_name st in
      if close <> name then
        fail st (Printf.sprintf "mismatched end tag: expected </%s>, found </%s>" name close);
      skip_spaces st;
      expect st '>';
      let t = Buffer.contents text in
      if non_blank t then emit (Text (String.trim t));
      stack := List.tl !stack;
      emit (End_element name)
    end
    else if looking_at st "<!--" then begin
      skip_string st "<!--";
      skip_until st "-->" "comment"
    end
    else if looking_at st "<![CDATA[" then begin
      skip_string st "<![CDATA[";
      let start = st.pos in
      while not (looking_at st "]]>") do
        if eof st then fail st "unterminated CDATA section";
        advance st
      done;
      Buffer.add_string text (String.sub st.src start (st.pos - start));
      skip_string st "]]>"
    end
    else if looking_at st "<?" then begin
      skip_string st "<?";
      skip_until st "?>" "processing instruction"
    end
    else if peek st = '<' then start_tag ()
    else if peek st = '&' then begin
      advance st;
      Buffer.add_string text (parse_entity st)
    end
    else Buffer.add_char text (next st)
  done;
  !acc

let fold src ~init ~f =
  let st = { src; pos = 0; line = 1; col = 1 } in
  skip_prolog st;
  if eof st || peek st <> '<' then fail st "expected a root element";
  let acc = fold_element st ~init ~f in
  skip_misc st;
  if not (eof st) then fail st "trailing content after the root element";
  acc

let iter f src = fold src ~init:() ~f:(fun () e -> f e)

let events src = List.rev (fold src ~init:[] ~f:(fun acc e -> e :: acc))

let node_count src =
  fold src ~init:0 ~f:(fun acc -> function
    | Start_element (_, attrs) -> acc + 1 + List.length attrs
    | Text _ | End_element _ -> acc)

(* Builds fragments from events. Each open element is its name,
   attributes, value and children so far (reversed); the bottom entry is
   a sentinel that collects the finished root. *)
let build stack event =
  match (event, stack) with
  | Start_element (name, attrs), _ -> (name, attrs, None, []) :: stack
  | Text t, (name, attrs, _, kids) :: rest -> (name, attrs, Some t, kids) :: rest
  | End_element _, (name, attrs, value, kids) :: (pn, pa, pv, pkids) :: rest ->
    let attrs = List.map (fun (n, v) -> Tree.attr n v) attrs in
    (pn, pa, pv, Tree.elt ?value name (attrs @ List.rev kids) :: pkids) :: rest
  | _ -> invalid_arg "Parser.build: unbalanced events"

let built = function
  | [ (_, _, _, [ root ]) ] -> root
  | _ -> invalid_arg "Parser.built: not one element"

let sentinel = [ ("", [], None, []) ]

let parse_frag s = built (fold s ~init:sentinel ~f:build)

let parse_frag_at s pos =
  if pos < 0 || pos > String.length s then invalid_arg "Parser.parse_frag_at: bad offset";
  let st = { src = s; pos = 0; line = 1; col = 1 } in
  (* advance through the prefix so line/column reporting stays right *)
  while st.pos < pos do
    advance st
  done;
  skip_spaces st;
  if eof st || peek st <> '<' then fail st "expected an element";
  let frag = built (fold_element st ~init:sentinel ~f:build) in
  (frag, st.pos)

let parse s = Tree.create (parse_frag s)

let parse_result s = try Ok (parse s) with Parse_error e -> Error e
