(* Tests for the XQuery-Update-style update language. *)

open Repro_xml
open Repro_encoding

let check = Alcotest.check

let fresh () =
  let doc =
    Parser.parse
      {|<auctions>
          <auction id="a1"><initial>10</initial><current>12</current></auction>
          <auction id="a2"><initial>5</initial><current>9</current></auction>
          <auction id="a3"><initial>7</initial><current>7</current></auction>
        </auctions>|}
  in
  Core.Session.make (module Repro_schemes.Qed : Core.Scheme.S) doc

let q session path =
  let enc = Encoding.of_doc session.Core.Session.doc in
  Xpath.eval enc path

let count session path = List.length (q session path)

let insert_forms () =
  let s = fresh () in
  let r =
    Update_lang.run s
      {|insert <bidder seq="1"/> before //auction[@id='a1']/current;
        insert <bidder seq="2"/> after //auction[@id='a1']/initial;
        insert <opened/> as first into //auction[@id='a2'];
        insert <closed/> as last into //auction[@id='a2'];
        insert <note><by>admin</by></note> into //auction[@id='a3']|}
  in
  check Alcotest.int "statements" 5 r.Update_lang.executed;
  check Alcotest.int "inserted nodes" 8 r.Update_lang.inserted; (* attributes are nodes *)
  check Alcotest.int "bidders placed" 2 (count s "//auction[@id='a1']/bidder");
  (* positions *)
  let names =
    List.map
      (fun (r : Encoding.row) -> r.name)
      (q s "//auction[@id='a2']/*")
  in
  check (Alcotest.list Alcotest.string) "first/last placement"
    [ "opened"; "initial"; "current"; "closed" ] names;
  check Alcotest.int "subtree payload" 1 (count s "//note/by");
  check Alcotest.bool "order still consistent" true (Core.Session.order_consistent s)

let delete_many () =
  let s = fresh () in
  let r = Update_lang.run s {|delete //auction[initial > 6]|} in
  check Alcotest.int "two auctions deleted (subtrees counted)" 8 r.Update_lang.deleted;
  check Alcotest.int "one auction left" 1 (count s "//auction")

let content_updates () =
  let s = fresh () in
  let r =
    Update_lang.run s
      {|replace value of //auction[@id='a1']/current with "99.99";
        rename //auction[@id='a3'] as closed_auction|}
  in
  check Alcotest.int "modified" 2 r.Update_lang.modified;
  check Alcotest.int "renamed" 1 (count s "//closed_auction");
  match q s "//auction[@id='a1']/current" with
  | [ row ] -> check (Alcotest.option Alcotest.string) "value" (Some "99.99") row.value
  | _ -> Alcotest.fail "expected the current element"

let move_statement () =
  let s = fresh () in
  ignore (Update_lang.run s {|move //auction[@id='a3'] before //auction[@id='a1']|});
  let ids =
    List.filter_map (fun (r : Encoding.row) -> r.value) (q s "//auction/@id")
  in
  check (Alcotest.list Alcotest.string) "new order" [ "a3"; "a1"; "a2" ] ids;
  check Alcotest.bool "order consistent after move" true
    (Core.Session.order_consistent ~all_pairs:true s)

let errors () =
  let fails script msg =
    let s = fresh () in
    match Update_lang.run s script with
    | exception Update_lang.Error _ -> ()
    | _ -> Alcotest.fail ("expected an error for " ^ msg)
  in
  fails "insert <x/> before //nothing" "empty target";
  fails "insert <x/> before //auction" "multi-node target";
  fails "delete //nothing" "empty delete";
  fails "bogus //x" "unknown statement";
  fails "insert <x before //auction[1]" "bad payload";
  fails "insert <x/> before //auction[" "bad xpath";
  fails "replace value of //auction[1] without-quotes" "missing with";
  fails "move //auctions into //auction[1]" "destination inside source";
  fails "move /auctions before //auction[1]" "moving the root";
  (* the entity sits in a quoted attribute: an unquoted ';' ends a statement *)
  match Update_lang.parse "insert <x a='&#-5;'/> before //auction[1]" with
  | exception Update_lang.Error _ -> ()
  | _ -> Alcotest.fail "expected an error for a negative code point"

(* The ';' closing a reference in a payload does not end the statement. *)
let references_in_payloads () =
  let s = fresh () in
  ignore
    (Update_lang.run s
       {|insert <x>&#65;</x> before //auction[@id='a1'];
         insert <y>a&amp;b</y> into //auction[@id='a2']|});
  let values path = List.map (fun (r : Encoding.row) -> r.value) (q s path) in
  check Alcotest.(list (option string)) "character reference" [ Some "A" ] (values "//x");
  check Alcotest.(list (option string)) "entity reference" [ Some "a&b" ] (values "//y");
  (* a bare '&' in CDATA or a comment opens no reference: the ';' after
     it still separates *)
  let r =
    Update_lang.run s
      {|insert <z><![CDATA[a & b]]></z> before //auction[@id='a1'];
        insert <w><!-- & --></w> into //auction[@id='a2']; delete //x|}
  in
  check Alcotest.int "three statements" 3 r.Update_lang.executed;
  check Alcotest.(list (option string)) "CDATA kept" [ Some "a & b" ] (values "//z");
  check Alcotest.int "commented payload placed" 1 (count s "//w");
  check Alcotest.int "third statement ran" 0 (count s "//x")

let parse_roundtrip () =
  let script =
    {|insert <a x="1"/> before //b; delete //c[d > 2]; replace value of //e with "v;1"; rename //f as g; move //h after //i|}
  in
  let statements = Update_lang.parse script in
  check Alcotest.int "five statements" 5 (List.length statements);
  (* re-parsing the printed form yields the same statements *)
  let printed =
    String.concat "; " (List.map Update_lang.statement_to_string statements)
  in
  let reparsed = Update_lang.parse printed in
  check Alcotest.bool "printer/parser stable" true (statements = reparsed)

(* Every scheme supports the same script with identical structural
   outcomes. *)
let cross_scheme () =
  let outcome pack =
    let doc =
      Parser.parse
        {|<r><a><b/><b/></a><c><d/></c></r>|}
    in
    let s = Core.Session.make pack doc in
    ignore
      (Update_lang.run s
         {|insert <x/> as first into //a; delete //c/d; move //a/b[1] into //c|});
    Serializer.to_string s.Core.Session.doc
  in
  let reference = outcome (module Repro_schemes.Qed : Core.Scheme.S) in
  List.iter
    (fun pack ->
      check Alcotest.string
        (Printf.sprintf "same outcome under %s" (Core.Scheme.name pack))
        reference (outcome pack))
    Repro_schemes.Registry.well_behaved

let suite =
  [
    ("insert forms", `Quick, insert_forms);
    ("delete selects many", `Quick, delete_many);
    ("content updates", `Quick, content_updates);
    ("move", `Quick, move_statement);
    ("script errors", `Quick, errors);
    ("references in payloads", `Quick, references_in_payloads);
    ("parse/print roundtrip", `Quick, parse_roundtrip);
    ("cross-scheme agreement", `Quick, cross_scheme);
  ]

(* Random scripts: generate syntactically valid statements over known
   names; execution either succeeds (tree stays valid, labels ordered) or
   fails with Update_lang.Error — never any other exception. *)
let gen_script st =
  let open QCheck.Gen in
  let name () = [| "a"; "b"; "c"; "d" |].(int_bound 3 st) in
  let path () =
    match int_bound 3 st with
    | 0 -> "//" ^ name ()
    | 1 -> Printf.sprintf "//%s[%d]" (name ()) (1 + int_bound 2 st)
    | 2 -> Printf.sprintf "//%s/%s" (name ()) (name ())
    | _ -> Printf.sprintf "(//%s)[1]" (name ())
  in
  let stmt () =
    match int_bound 4 st with
    | 0 ->
      let pos = [| "before"; "after"; "as first into"; "as last into"; "into" |].(int_bound 4 st) in
      Printf.sprintf "insert <%s/> %s %s" (name ()) pos (path ())
    | 1 -> Printf.sprintf "delete %s" (path ())
    | 2 -> Printf.sprintf "replace value of %s with \"v%d\"" (path ()) (int_bound 9 st)
    | 3 -> Printf.sprintf "rename %s as %s" (path ()) (name ())
    | _ -> Printf.sprintf "move %s before %s" (path ()) (path ())
  in
  String.concat "; " (List.init (1 + int_bound 4 st) (fun _ -> stmt ()))

let random_scripts =
  QCheck.Test.make ~name:"random scripts never break invariants" ~count:200
    (QCheck.pair (QCheck.make ~print:Fun.id gen_script) (QCheck.int_bound 10_000))
    (fun (script, seed) ->
      ignore seed;
      let doc =
        Parser.parse "<r><a><b/><c/></a><b><d/></b><c/><d><a/></d></r>"
      in
      let s = Core.Session.make (module Repro_schemes.Qed : Core.Scheme.S) doc in
      match Update_lang.run s script with
      | _ ->
        Tree.validate doc = Ok ()
        && Core.Session.order_consistent ~all_pairs:true s
        && not (Core.Session.has_duplicate_labels s)
      | exception Update_lang.Error _ -> true
      | exception _ -> false)

let suite = suite @ [ QCheck_alcotest.to_alcotest random_scripts ]
