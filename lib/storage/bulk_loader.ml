open Repro_xml

let load pack src =
  (* The root element starts the document; every later element is an
     append under the innermost open element. *)
  let session = ref None in
  let stack = ref [] in
  let handle event =
    match (event, !session, !stack) with
    | Parser.Start_element (name, attrs), None, [] ->
      let frag = Tree.elt name (List.map (fun (n, v) -> Tree.attr n v) attrs) in
      let doc = Tree.create frag in
      let s = Core.Session.make pack doc in
      session := Some s;
      stack := [ Tree.root doc ]
    | Parser.Start_element (name, attrs), Some s, parent :: _ ->
      let frag = Tree.elt name (List.map (fun (n, v) -> Tree.attr n v) attrs) in
      let node = s.Core.Session.insert_last parent frag in
      stack := node :: !stack
    | Parser.Text t, Some s, node :: _ -> Tree.set_value s.Core.Session.doc node (Some t)
    | Parser.End_element _, Some _, _ :: rest -> stack := rest
    | _ ->
      (* unreachable: the parser enforces well-formedness *)
      invalid_arg "Bulk_loader: event outside any open element"
  in
  Parser.iter handle src;
  match !session with
  | Some s -> s
  | None -> invalid_arg "Bulk_loader: empty document"

let load_via_tree pack src = Core.Session.make pack (Parser.parse src)
