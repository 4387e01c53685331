(* Tests for the XML substrate: tree, parser, serializer, oracle. *)

open Repro_xml

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Tree                                                                *)
(* ------------------------------------------------------------------ *)

let names doc = List.map (fun (n : Tree.node) -> n.Tree.name) (Tree.preorder doc)

let tree_build_and_query () =
  let doc = Samples.book () in
  check Alcotest.int "size" 10 (Tree.size doc);
  check (Alcotest.list Alcotest.string) "document order"
    [ "book"; "title"; "genre"; "author"; "publisher"; "editor"; "name"; "address";
      "edition"; "year" ]
    (names doc);
  let root = Tree.root doc in
  check Alcotest.int "root level" 0 (Tree.level root);
  let title = List.nth (Tree.children root) 0 in
  let publisher = List.nth (Tree.children root) 2 in
  check Alcotest.string "title" "title" title.Tree.name;
  check Alcotest.int "title level" 1 (Tree.level title);
  check Alcotest.int "title position" 0 (Tree.sibling_position title);
  check Alcotest.bool "prev of first" true (Tree.prev_sibling title = None);
  (match Tree.next_sibling title with
  | Some n -> check Alcotest.string "next sibling" "author" n.Tree.name
  | None -> Alcotest.fail "expected a next sibling");
  let editor = List.nth (Tree.children publisher) 0 in
  check Alcotest.int "editor level" 2 (Tree.level editor);
  check Alcotest.int "descendants of publisher" 5 (List.length (Tree.descendants publisher));
  check (Alcotest.result Alcotest.unit Alcotest.string) "validate" (Ok ()) (Tree.validate doc)

let tree_updates () =
  let doc = Samples.book () in
  let root = Tree.root doc in
  let title = List.nth (Tree.children root) 0 in
  let x = Tree.insert_before doc title (Tree.elt "isbn" []) in
  check Alcotest.int "inserted before" 0 (Tree.sibling_position x);
  check Alcotest.int "title shifted" 1 (Tree.sibling_position title);
  let y = Tree.insert_after doc title (Tree.elt "subtitle" []) in
  check Alcotest.int "inserted after" 2 (Tree.sibling_position y);
  let z = Tree.insert_last_child doc root (Tree.elt "price" [ Tree.attr "cur" "EUR" ]) in
  check Alcotest.int "subtree size" 14 (Tree.size doc);
  Tree.delete doc z;
  check Alcotest.int "delete removes subtree" 12 (Tree.size doc);
  check Alcotest.bool "deleted id gone" false (Tree.mem doc z.Tree.id);
  check (Alcotest.result Alcotest.unit Alcotest.string) "validate after updates" (Ok ())
    (Tree.validate doc);
  Alcotest.check_raises "no sibling of root"
    (Invalid_argument "Tree: cannot insert a sibling of the root") (fun () ->
      ignore (Tree.insert_before doc root (Tree.elt "x" [])));
  Alcotest.check_raises "cannot delete root"
    (Invalid_argument "Tree.delete: cannot delete the root") (fun () -> Tree.delete doc root)

let tree_content_updates () =
  let doc = Samples.book () in
  let title = List.nth (Tree.children (Tree.root doc)) 0 in
  let rev0 = Tree.revision doc in
  Tree.set_value doc title (Some "Wayfarer II");
  Tree.rename doc title "booktitle";
  check Alcotest.string "renamed" "booktitle" title.Tree.name;
  check (Alcotest.option Alcotest.string) "value" (Some "Wayfarer II") title.Tree.value;
  check Alcotest.bool "revision advanced" true (Tree.revision doc > rev0)

let tree_frag_checks () =
  check Alcotest.int "frag_size" 3 (Tree.frag_size (Tree.elt "a" [ Tree.elt "b" []; Tree.attr "c" "v" ]));
  Alcotest.check_raises "attribute root rejected"
    (Invalid_argument "Tree.create: root must be an element") (fun () ->
      ignore (Tree.create (Tree.attr "a" "v")))

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let parse_book () =
  let doc = Parser.parse Samples.book_text in
  check Alcotest.int "node count" 10 (Tree.size doc);
  let title = List.nth (Tree.children (Tree.root doc)) 0 in
  check (Alcotest.option Alcotest.string) "text value" (Some "Wayfarer") title.Tree.value;
  let genre = List.nth (Tree.children title) 0 in
  check Alcotest.bool "attribute kind" true (genre.Tree.kind = Tree.Attribute);
  check (Alcotest.option Alcotest.string) "attr value" (Some "Fantasy") genre.Tree.value

(* A document using every construct the parser accepts. *)
let features_text =
  {|<?xml version="1.0"?><!-- prolog comment --><!DOCTYPE r [<!ELEMENT r ANY>]>
        <r a="1 &amp; 2">
          <!-- inner comment --><?pi data?>
          <sub>x &lt;y&gt; &#65;&#x42;</sub>
          <empty/>
          <cdata><![CDATA[raw <stuff> &amp; here]]></cdata>
        </r>|}

let parse_features () =
  let doc = Parser.parse features_text in
  check Alcotest.int "nodes" 5 (Tree.size doc);
  let kids = Tree.children (Tree.root doc) in
  let attr = List.nth kids 0 and sub = List.nth kids 1 and cdata = List.nth kids 3 in
  check (Alcotest.option Alcotest.string) "entity in attribute" (Some "1 & 2") attr.Tree.value;
  check (Alcotest.option Alcotest.string) "entities in text" (Some "x <y> AB") sub.Tree.value;
  check (Alcotest.option Alcotest.string) "cdata verbatim" (Some "raw <stuff> &amp; here")
    cdata.Tree.value

(* Comments, PIs and blanks may come in any order around the root; an
   element's value is all of its text, trimmed once. *)
let parse_misc_and_mixed () =
  List.iter
    (fun s ->
      match Parser.parse_result s with
      | Ok doc -> check Alcotest.int s 1 (Tree.size doc)
      | Error e -> Alcotest.failf "%s: %a" s Parser.pp_error e)
    [ "<a/> <!--x--> <!--y-->"; "<a/><?p?> <?q?>" ];
  let root = Tree.root (Parser.parse "<a> x <b/> y </a>") in
  check (Alcotest.option Alcotest.string) "mixed value" (Some "x  y") root.Tree.value

let parse_errors () =
  let fails s =
    match Parser.parse_result s with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail ("expected a parse error for: " ^ s)
  in
  fails "";
  fails "<a>";
  fails "<a></b>";
  fails "<a><b></a></b>";
  fails "<a x='1' x='2'/>";
  fails "<a>&bogus;</a>";
  fails "<a>text</a><b/>";
  fails "<a x=1/>";
  fails "<1tag/>";
  fails "<a/><!DOCTYPE x>";
  fails "<!DOCTYPE a><!-- c --><!DOCTYPE b><a/>";
  (match Parser.parse_result "<!DOCTYPE a><!DOCTYPE b><a/>" with
  | Error e -> check Alcotest.(pair int int) "second DOCTYPE" (1, 13) (e.Parser.line, e.Parser.col)
  | Ok _ -> Alcotest.fail "two DOCTYPEs accepted");
  (* a negative code point is a positioned parse error *)
  fails "<a>&#-5;</a>";
  fails "<a b='&#-1;'/>";
  match Parser.parse_result "<a><b></a>" with
  | Error e -> check Alcotest.bool "error has a position" true (e.Parser.line >= 1)
  | Ok _ -> Alcotest.fail "expected mismatch error"

(* ------------------------------------------------------------------ *)
(* Serializer: parse . serialize = identity on fragments               *)
(* ------------------------------------------------------------------ *)

let rec frag_equal (a : Tree.frag) (b : Tree.frag) =
  a.f_kind = b.f_kind && a.f_name = b.f_name && a.f_value = b.f_value
  && List.length a.f_children = List.length b.f_children
  && List.for_all2 frag_equal a.f_children b.f_children

let arb_frag =
  let gen =
    QCheck.Gen.(
      sized_size (int_bound 20) (fix (fun self size ->
          let name = map (fun i -> Printf.sprintf "n%d" i) (int_bound 6) in
          let text = map (fun i -> Printf.sprintf "text %d <&>" i) (int_bound 50) in
          if size <= 1 then
            map2 (fun n v -> Tree.elt ?value:v n []) name (option text)
          else
            map2
              (fun n children ->
                (* attributes first to satisfy the tree model *)
                let attrs, elts =
                  List.partition (fun (f : Tree.frag) -> f.Tree.f_kind = Tree.Attribute) children
                in
                (* rename duplicate attributes to keep the document valid *)
                let attrs =
                  List.mapi (fun i (a : Tree.frag) -> Tree.attr (Printf.sprintf "%s_%d" a.Tree.f_name i)
                      (Option.value a.Tree.f_value ~default:"")) attrs
                in
                Tree.elt n (attrs @ elts))
              name
              (list_size (int_bound 4)
                 (frequency
                    [ (1, map2 (fun n v -> Tree.attr n v) name text);
                      (3, self (size / 2)) ])))))
  in
  QCheck.make ~print:(Serializer.frag_to_string ~indent:2) gen

let serializer_roundtrip =
  QCheck.Test.make ~name:"parse (serialize frag) = frag" ~count:300 arb_frag (fun f ->
      frag_equal f (Parser.parse_frag (Serializer.frag_to_string f)))

let serializer_roundtrip_pretty =
  QCheck.Test.make ~name:"pretty-printed serialization also roundtrips" ~count:300 arb_frag
    (fun f -> frag_equal f (Parser.parse_frag (Serializer.frag_to_string ~indent:2 f)))

let escaping () =
  check Alcotest.string "text escape" "a&lt;b&gt;c&amp;d" (Serializer.escape_text "a<b>c&d");
  check Alcotest.string "attr escape" "&quot;x&apos;" (Serializer.escape_attr "\"x'");
  let f = Tree.elt ~value:"1 < 2 & 3" "t" [ Tree.attr "q" "say \"hi\"" ] in
  let doc = Parser.parse (Serializer.frag_to_string f) in
  check (Alcotest.option Alcotest.string) "escaped text survives" (Some "1 < 2 & 3")
    (Tree.root doc).Tree.value

(* ------------------------------------------------------------------ *)
(* Oracle                                                              *)
(* ------------------------------------------------------------------ *)

let oracle_against_preorder () =
  let doc = Samples.book () in
  let nodes = Array.of_list (Tree.preorder doc) in
  let n = Array.length nodes in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let got = Oracle.document_order nodes.(i) nodes.(j) in
      if Stdlib.compare got 0 <> Stdlib.compare (compare i j) 0 then
        Alcotest.failf "document_order disagrees at (%d, %d)" i j
    done
  done

let oracle_axes () =
  let doc = Samples.book () in
  let by_name name =
    List.find (fun (n : Tree.node) -> n.Tree.name = name) (Tree.preorder doc)
  in
  let editor = by_name "editor" and book = by_name "book" and name = by_name "name" in
  check Alcotest.bool "ancestor" true (Oracle.is_ancestor book name);
  check Alcotest.bool "not ancestor of self" false (Oracle.is_ancestor book book);
  check Alcotest.bool "parent" true (Oracle.is_parent editor name);
  check Alcotest.bool "sibling" true (Oracle.is_sibling name (by_name "address"));
  check Alcotest.int "level of name" 3 (Oracle.level name);
  check (Alcotest.list Alcotest.string) "following of editor"
    [ "edition"; "year" ]
    (List.map (fun (n : Tree.node) -> n.Tree.name) (Oracle.following doc editor));
  check (Alcotest.list Alcotest.string) "preceding of editor"
    [ "title"; "genre"; "author" ]
    (List.map (fun (n : Tree.node) -> n.Tree.name) (Oracle.preceding doc editor))

let suite =
  [
    ("tree build and query", `Quick, tree_build_and_query);
    ("tree updates", `Quick, tree_updates);
    ("tree content updates", `Quick, tree_content_updates);
    ("tree fragment checks", `Quick, tree_frag_checks);
    ("parse the sample book", `Quick, parse_book);
    ("parser features", `Quick, parse_features);
    ("parser errors", `Quick, parse_errors);
    ("parser misc and mixed content", `Quick, parse_misc_and_mixed);
    ("escaping", `Quick, escaping);
    ("oracle vs preorder ranks", `Quick, oracle_against_preorder);
    ("oracle axes", `Quick, oracle_axes);
    qcheck serializer_roundtrip;
    qcheck serializer_roundtrip_pretty;
  ]
