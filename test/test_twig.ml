(* Twig matching: unit cases on the sample document, plus the differential
   property — join-based matching equals navigational XPath. *)

open Repro_encoding

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

let enc_of doc = Encoding.of_doc doc

let names rows = List.map (fun (r : Encoding.row) -> r.Encoding.name) rows

let book_patterns () =
  let enc = enc_of (Repro_xml.Samples.book ()) in
  let idx = Axis_index.build enc in
  let m p = names (Twig.matches idx (Twig.parse p)) in
  check (Alcotest.list Alcotest.string) "single name" [ "book" ] (m "book");
  check (Alcotest.list Alcotest.string) "one child branch" [ "book" ] (m "book[title]");
  check (Alcotest.list Alcotest.string) "deep branch" [ "book" ]
    (m "book[publisher/editor/name]");
  check (Alcotest.list Alcotest.string) "descendant branch" [ "book" ]
    (m "book[//address]");
  check (Alcotest.list Alcotest.string) "failing branch" [] (m "book[isbn]");
  check (Alcotest.list Alcotest.string) "two branches" [ "editor" ]
    (m "editor[name][address]");
  check (Alcotest.list Alcotest.string) "nested brackets" [ "publisher" ]
    (m "publisher[editor[name]/address]")

let parse_and_print () =
  let cases =
    [ "book[title][publisher//name]"; "a[b][//c]"; "x[y[z]/w]" ]
  in
  List.iter
    (fun p ->
      let t = Twig.parse p in
      check Alcotest.string "stable print/parse" (Twig.to_string t)
        (Twig.to_string (Twig.parse (Twig.to_string t))))
    cases;
  (match Twig.parse "a[b/c]" with
  | { Twig.name = "a"; branches = [ (Twig.Child, { name = "b"; branches = [ (Twig.Child, { name = "c"; _ }) ] }) ] } ->
    ()
  | _ -> Alcotest.fail "unexpected parse of a[b/c]");
  (* each bad input is refused at the offset of its fault, counted in the
     text as given *)
  List.iter
    (fun (bad, at) ->
      match Twig.parse bad with
      | exception Twig.Parse_error { Twig.position; _ } ->
        check Alcotest.int (Printf.sprintf "error offset in %S" bad) at position
      | _ -> Alcotest.failf "expected a parse error for %s" bad)
    [ ("", 0); ("a[", 2); ("a[]", 2); ("a]", 1); ("a[b]c", 4); ("[a]", 0); ("  a[b", 5); ("a[b] x", 5) ]

(* The join-based matcher equals the navigational XPath evaluation. *)
let twig_equals_xpath =
  let patterns =
    [| "item[field]"; "item[//field]"; "section[item][group]"; "entry[meta/data]";
       "record[list[node]]"; "group[//data][item]"; "data[field][//meta]" |]
  in
  QCheck.Test.make ~name:"twig matching equals navigational XPath" ~count:60
    (QCheck.pair (QCheck.int_bound 100_000) (QCheck.int_bound (Array.length patterns - 1)))
    (fun (seed, pi) ->
      let doc =
        Repro_workload.Docgen.generate ~seed
          { Repro_workload.Docgen.default_shape with target_nodes = 80 }
      in
      let enc = enc_of doc in
      let idx = Axis_index.build enc in
      let t = Twig.parse patterns.(pi) in
      let by_join =
        List.map (fun (r : Encoding.row) -> r.Encoding.pre) (Twig.matches idx t)
      in
      let by_xpath =
        List.map
          (fun (r : Encoding.row) -> r.Encoding.pre)
          (Xpath.eval enc (Twig.matches_xpath_equivalent t))
      in
      by_join = by_xpath)

let xmark_twig () =
  let doc = Repro_workload.Xmark_lite.generate ~seed:9 Repro_workload.Xmark_lite.small in
  let enc = enc_of doc in
  let idx = Axis_index.build enc in
  let auctions_with_bids =
    Twig.matches idx (Twig.parse "open_auction[bidder/increase][current]")
  in
  let by_xpath = Xpath.eval enc "//open_auction[bidder/increase][current]" in
  check Alcotest.int "same count as XPath" (List.length by_xpath)
    (List.length auctions_with_bids)

let suite =
  [
    ("book patterns", `Quick, book_patterns);
    ("parse and print", `Quick, parse_and_print);
    ("xmark twig", `Quick, xmark_twig);
    qcheck twig_equals_xpath;
  ]
