(* Robustness and edge-case tests: degenerate documents, deep nesting,
   wide fanout, cost-model bracketing, and error surfaces. *)

open Repro_xml

let check = Alcotest.check

let single_node_everywhere () =
  let doc = Tree.create (Tree.elt "only" []) in
  List.iter
    (fun pack ->
      let session = Core.Session.make pack doc in
      let root = Tree.root doc in
      ignore (session.Core.Session.label_string root);
      check Alcotest.bool "single node order" true (Core.Session.order_consistent session);
      check Alcotest.bool "codec" true (session.Core.Session.codec_roundtrips root))
    Repro_schemes.Registry.all

let deep_document () =
  (* 800 levels: parser, serializer, labelling, encoding and storage must
     all survive the depth. *)
  let depth = 800 in
  let rec build k = if k = 0 then Tree.elt ~value:"leaf" "d0" [] else Tree.elt (Printf.sprintf "d%d" k) [ build (k - 1) ] in
  let doc = Tree.create (build depth) in
  check Alcotest.int "size" (depth + 1) (Tree.size doc);
  (* parser/serializer roundtrip at depth *)
  let text = Serializer.to_string doc in
  let reparsed = Parser.parse text in
  check Alcotest.int "reparsed size" (depth + 1) (Tree.size reparsed);
  check Alcotest.int "stream node count" (depth + 1) (Parser.node_count text);
  (* deep labelling for a few representative schemes *)
  List.iter
    (fun name ->
      let pack = Option.get (Repro_schemes.Registry.find name) in
      let session = Core.Session.make pack doc in
      let deepest =
        List.nth (Tree.preorder doc) depth
      in
      check Alcotest.int (name ^ " level") depth
        (match session.Core.Session.level_of with
        | Some lvl -> lvl deepest
        | None -> depth);
      check Alcotest.bool (name ^ " codec at depth") true
        (session.Core.Session.codec_roundtrips deepest))
    [ "QED"; "CDQS"; "XPath Accelerator"; "DDE" ];
  (* the encoding + reconstruction at depth *)
  let enc = Repro_encoding.Encoding.of_doc doc in
  check Alcotest.int "encoding rows" (depth + 1) (Repro_encoding.Encoding.size enc);
  let rebuilt = Tree.create (Repro_encoding.Encoding.reconstruct enc) in
  check Alcotest.int "reconstructed size" (depth + 1) (Tree.size rebuilt);
  (* storage roundtrip at depth *)
  let session = Core.Session.make (module Repro_schemes.Qed : Core.Scheme.S) doc in
  let reloaded = Repro_storage.Store.load (Repro_storage.Store.save session) in
  check Alcotest.int "store roundtrip size" (depth + 1)
    (Tree.size reloaded.Core.Session.doc)

let wide_document () =
  let fanout = 3000 in
  let doc = Tree.create (Tree.elt "r" (List.init fanout (fun i -> Tree.elt (Printf.sprintf "c%d" i) []))) in
  List.iter
    (fun name ->
      let pack = Option.get (Repro_schemes.Registry.find name) in
      let session = Core.Session.make pack doc in
      check Alcotest.bool (name ^ " wide order") true (Core.Session.order_consistent session))
    [ "QED"; "ImprovedBinary"; "Vector"; "DeweyID"; "ORDPATH" ]

let costmodel_bracketing () =
  Core.Costmodel.reset ();
  let (), outer = Core.Costmodel.counting (fun () -> ignore (Core.Costmodel.div_int 10 3)) in
  check Alcotest.int "inner count" 1 outer.Core.Costmodel.divisions;
  (* counting restores and accumulates into the enclosing scope *)
  let (_, inner), total =
    Core.Costmodel.counting (fun () ->
        ignore (Core.Costmodel.div_int 1 1);
        Core.Costmodel.counting (fun () -> ignore (Core.Costmodel.div_int 2 1)))
  in
  check Alcotest.int "nested inner" 1 inner.Core.Costmodel.divisions;
  check Alcotest.int "outer total includes inner" 2 total.Core.Costmodel.divisions

let session_api_errors () =
  let doc = Samples.book () in
  let session = Core.Session.make (module Repro_schemes.Qed : Core.Scheme.S) doc in
  let root = Tree.root doc in
  Alcotest.check_raises "no sibling of root"
    (Invalid_argument "Tree: cannot insert a sibling of the root") (fun () ->
      ignore (session.Core.Session.insert_before root (Tree.elt "x" [])));
  Alcotest.check_raises "cannot delete root"
    (Invalid_argument "Tree.delete: cannot delete the root") (fun () ->
      session.Core.Session.delete root)

let empty_update_patterns () =
  (* patterns behave on a single-node document *)
  let doc = Tree.create (Tree.elt "r" []) in
  let session = Core.Session.make (module Repro_schemes.Cdqs : Core.Scheme.S) doc in
  List.iter
    (fun pattern -> Repro_workload.Updates.run pattern ~seed:1 ~ops:10 session)
    Repro_workload.Updates.all_patterns;
  check Alcotest.bool "still consistent" true (Core.Session.order_consistent session)

let interval_gap_parameter () =
  Repro_schemes.Interval_gap.set_gap 64;
  let doc = Samples.book () in
  let session = Core.Session.make (module Repro_schemes.Interval_gap : Core.Scheme.S) doc in
  Repro_schemes.Interval_gap.set_gap 16;
  (* with gap 64, first labels are multiples of 64 *)
  let root_label = session.Core.Session.label_string (Tree.root doc) in
  check Alcotest.string "gap applied" "[64,1280]@0" root_label

(* Mutation fuzz over the five text parsers: served query shapes and
   test scripts, each mutated by seeded bit flips, truncations and
   inserted punctuation. Whatever the input, the only exception that may
   escape a parser is the one its interface declares. *)
module Topology = Repro_cluster.Topology

let xpath_corpus =
  [
    "//item"; "//section//field"; "//entry[field]"; "//group/@*"; "/*/*"; "//record[2]";
    "//item/following-sibling::*"; "//list[count(item) > 0]";
    "//editor[name='Destiny Image']/address"; "//a[@d != 3.5]"; "/book/title/@genre";
    "/descendant::item[position() <= 2]/ancestor-or-self::node()"; "//b[. >= 1.25]/..";
  ]

let twig_corpus =
  [ "item[field]"; "section[//field]"; "entry[field][//meta]"; "book[title][publisher//name]" ]

let update_corpus =
  [
    {|insert <a x="1"/> before //b; delete //c[d > 2]; replace value of //e with "v;1"; rename //f as g; move //h after //i|};
    "insert <note>x</note> as last into /book; delete //note";
    "delete //publisher; rename //author as writer";
  ]

let topology_corpus =
  let node port = { Topology.n_host = "127.0.0.1"; n_port = port } in
  [
    Topology.render
      {
        Topology.version = 3;
        shards =
          [|
            { Topology.s_primary = node 7001; s_replicas = [ node 7002; node 7003 ] };
            { Topology.s_primary = node 7004; s_replicas = [] };
          |];
      };
  ]

let mutate rng text =
  let n = String.length text in
  let at = Repro_codes.Prng.int rng (n + 1) in
  match Repro_codes.Prng.int rng 3 with
  | 0 when n > 0 ->
    let at = min at (n - 1) in
    let b = Bytes.of_string text in
    Bytes.set b at (Char.chr (Char.code text.[at] lxor (1 lsl Repro_codes.Prng.int rng 8)));
    Bytes.to_string b
  | 1 -> String.sub text 0 at
  | _ ->
    let punct = "[]()/@*.:,=!<>'\";0123456789 -" in
    String.sub text 0 at
    ^ String.make 1 punct.[Repro_codes.Prng.int rng (String.length punct)]
    ^ String.sub text at (n - at)

let parsers_raise_only_declared_errors () =
  let fuzz name corpus parse declared =
    let rng = Repro_codes.Prng.create 23 in
    List.iter
      (fun text ->
        for _ = 1 to 20000 do
          (* up to three stacked mutations per input *)
          let input = ref text in
          for _ = 0 to Repro_codes.Prng.int rng 3 do input := mutate rng !input done;
          match parse !input with
          | () -> ()
          | exception e when declared e -> ()
          | exception e ->
            Alcotest.failf "%s %S raised %s" name !input (Printexc.to_string e)
        done)
      corpus
  in
  fuzz "Xpath.parse" xpath_corpus
    (fun s -> ignore (Repro_encoding.Xpath.parse s))
    (function Repro_encoding.Xpath.Parse_error _ -> true | _ -> false);
  fuzz "Twig.parse" twig_corpus
    (fun s -> ignore (Repro_encoding.Twig.parse s))
    (function Repro_encoding.Twig.Parse_error _ -> true | _ -> false);
  fuzz "Update_lang.parse" update_corpus
    (fun s -> ignore (Repro_encoding.Update_lang.parse s))
    (function Repro_encoding.Update_lang.Error _ -> true | _ -> false);
  fuzz "Topology.parse" topology_corpus
    (fun s -> ignore (Topology.parse s))
    (function Topology.Bad_topology _ -> true | _ -> false);
  fuzz "Parser.parse" [ Samples.book_text; Test_xml.features_text ]
    (fun s -> ignore (Parser.parse s))
    (function Parser.Parse_error _ -> true | _ -> false)

(* A number token takes digits, at most one '.', then digits; a second
   '.' is a positioned parse error, and over the wire a query error the
   client can point at, not an internal one. *)
let malformed_number () =
  let bad = "//a[@d != 3.5.]" in
  (match Repro_encoding.Xpath.parse bad with
  | _ -> Alcotest.fail "a malformed number parsed"
  | exception Repro_encoding.Xpath.Parse_error { position; _ } ->
    check Alcotest.int "positioned at the number" 10 position);
  let module P = Repro_server.Protocol in
  let module Q = Repro_server.Query_eval in
  let inc = Repro_encoding.Axis_inc.create (Samples.book ()) in
  let snap = Repro_encoding.Axis_inc.snapshot inc in
  (match
     Q.serve (Repro_server.Metrics.create ()) ~paranoid:false
       ~doc_rev:(Repro_encoding.Axis_inc.rev snap) ~inc ~pub_time:0. ~snap (Q.Q_xpath bad)
       ~limit:10
   with
  | P.Query_error { qe_parse = true; qe_pos; _ } ->
    check Alcotest.int "query error position" 10 qe_pos
  | _ -> Alcotest.fail "a malformed number was not served as a parse error");
  Repro_encoding.Axis_inc.detach inc

let suite =
  [
    ("single-node document for every scheme", `Quick, single_node_everywhere);
    ("deep document end to end", `Quick, deep_document);
    ("wide document", `Quick, wide_document);
    ("cost-model bracketing", `Quick, costmodel_bracketing);
    ("session error surfaces", `Quick, session_api_errors);
    ("patterns on a degenerate document", `Quick, empty_update_patterns);
    ("interval gap parameter", `Quick, interval_gap_parameter);
    ("parsers raise only their declared errors", `Quick, parsers_raise_only_declared_errors);
    ("malformed xpath number is a parse error", `Quick, malformed_number);
  ]
