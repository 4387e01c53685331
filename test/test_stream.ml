(* Tests for the parser's event fold and the one-pass bulk loader. *)

open Repro_xml

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

let event_to_string = function
  | Parser.Start_element (n, attrs) ->
    Printf.sprintf "<%s%s>" n
      (String.concat "" (List.map (fun (k, v) -> Printf.sprintf " %s=%S" k v) attrs))
  | Parser.Text t -> Printf.sprintf "%S" t
  | Parser.End_element n -> Printf.sprintf "</%s>" n

let book_events () =
  let events = Parser.events Samples.book_text in
  let starts =
    List.filter_map
      (function Parser.Start_element (n, _) -> Some n | _ -> None)
      events
  in
  check (Alcotest.list Alcotest.string) "start order"
    [ "book"; "title"; "author"; "publisher"; "editor"; "name"; "address"; "edition" ]
    starts;
  check Alcotest.int "node count" 10 (Parser.node_count Samples.book_text);
  (* balanced *)
  let depth =
    List.fold_left
      (fun d -> function
        | Parser.Start_element _ -> d + 1
        | Parser.End_element _ -> d - 1
        | Parser.Text _ -> d)
      0 events
  in
  check Alcotest.int "balanced events" 0 depth

(* Streaming and recursive parsing agree on every generated document. *)
let stream_agrees_with_parser =
  QCheck.Test.make ~name:"stream events reconstruct exactly the parsed tree" ~count:60
    (QCheck.int_bound 100_000) (fun seed ->
      let frag =
        Repro_workload.Docgen.generate_frag ~seed
          { Repro_workload.Docgen.default_shape with target_nodes = 60 }
      in
      let text = Serializer.frag_to_string ~indent:2 frag in
      (* rebuild a frag from the stream *)
      let rebuild events =
        let rec element = function
          | Parser.Start_element (n, attrs) :: rest ->
            let rec children acc value rest =
              match rest with
              | Parser.End_element m :: rest' ->
                assert (m = n);
                (Tree.elt ?value n (List.map (fun (k, v) -> Tree.attr k v) attrs @ List.rev acc), rest')
              | Parser.Text t :: rest' ->
                assert (value = None);
                children acc (Some t) rest'
              | (Parser.Start_element _ :: _) as rest' ->
                let child, rest'' = element rest' in
                children (child :: acc) value rest''
              | [] -> assert false
            in
            children [] None rest
          | _ -> assert false
        in
        fst (element events)
      in
      let rec frag_equal (a : Tree.frag) (b : Tree.frag) =
        a.f_kind = b.f_kind && a.f_name = b.f_name && a.f_value = b.f_value
        && List.length a.f_children = List.length b.f_children
        && List.for_all2 frag_equal a.f_children b.f_children
      in
      frag_equal (Parser.parse_frag text) (rebuild (Parser.events text)))

let stream_errors () =
  let fails s =
    match Parser.events s with
    | exception Parser.Parse_error _ -> ()
    | _ -> Alcotest.fail ("expected a parse error for " ^ s)
  in
  fails "";
  fails "<a>";
  fails "<a></b>";
  fails "<a/><b/>";
  fails "<a>&bad;</a>"

let bulk_load_schemes () =
  let xmark = Serializer.to_string ~indent:2 (Repro_workload.Xmark_lite.generate ~seed:3 Repro_workload.Xmark_lite.small) in
  (* mixed content: an element's value is all of its text, trimmed once *)
  let mixed = "<r> x <b/> y <c>z</c> w </r>" in
  List.iter
    (fun (text, pack) ->
      let streamed = Repro_storage.Bulk_loader.load pack text in
      let parsed = Repro_storage.Bulk_loader.load_via_tree pack text in
      check Alcotest.string
        (Printf.sprintf "same document under %s" streamed.Core.Session.scheme_name)
        (Serializer.to_string parsed.Core.Session.doc)
        (Serializer.to_string streamed.Core.Session.doc);
      check Alcotest.bool "order consistent" true (Core.Session.order_consistent streamed);
      check Alcotest.bool "no duplicates" false (Core.Session.has_duplicate_labels streamed))
    (List.concat_map
       (fun pack -> [ (xmark, pack); (mixed, pack) ])
       [ (module Repro_schemes.Qed : Core.Scheme.S);
         (module Repro_schemes.Dewey);
         (module Repro_schemes.Ordpath);
         (module Repro_schemes.Vector_scheme) ])

let bulk_load_appends_only () =
  (* streaming ingestion is pure append: no relabelling for any prefix
     scheme, DeweyID included *)
  let text = Serializer.to_string (Samples.book ()) in
  let s = Repro_storage.Bulk_loader.load (module Repro_schemes.Dewey : Core.Scheme.S) text in
  check Alcotest.int "appends never relabel" 0
    (s.Core.Session.stats ()).Core.Stats.s_relabelled

let suite =
  [
    ("book events", `Quick, book_events);
    ("stream errors", `Quick, stream_errors);
    ("bulk load across schemes", `Quick, bulk_load_schemes);
    ("bulk load is append-only", `Quick, bulk_load_appends_only);
    qcheck stream_agrees_with_parser;
  ]
