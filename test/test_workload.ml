(* Tests for the workload generators and the experiment runner. *)

open Repro_xml
open Repro_workload

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

let docgen_deterministic () =
  let d1 = Docgen.generate ~seed:99 Docgen.default_shape in
  let d2 = Docgen.generate ~seed:99 Docgen.default_shape in
  check Alcotest.string "same seed, same document" (Serializer.to_string d1)
    (Serializer.to_string d2);
  let d3 = Docgen.generate ~seed:100 Docgen.default_shape in
  check Alcotest.bool "different seed, different document" true
    (Serializer.to_string d1 <> Serializer.to_string d3)

let docgen_respects_bounds =
  QCheck.Test.make ~name:"generated documents respect size and depth bounds" ~count:40
    (QCheck.int_bound 100_000) (fun seed ->
      let shape = { Docgen.default_shape with target_nodes = 120; max_depth = 5 } in
      let doc = Docgen.generate ~seed shape in
      Tree.size doc <= 130
      && List.for_all (fun n -> Tree.level n <= 5 + 1) (Tree.preorder doc)
      && Tree.validate doc = Ok ())

let patterns_keep_tree_valid =
  QCheck.Test.make ~name:"every update pattern preserves tree invariants" ~count:20
    (QCheck.int_bound 100_000) (fun seed ->
      List.for_all
        (fun pattern ->
          let doc = Docgen.generate ~seed { Docgen.default_shape with target_nodes = 40 } in
          let session = Core.Session.make (module Repro_schemes.Qed : Core.Scheme.S) doc in
          Updates.run pattern ~seed ~ops:40 session;
          Tree.validate doc = Ok ())
        Updates.all_patterns)

let patterns_grow_or_churn () =
  List.iter
    (fun pattern ->
      let doc = Docgen.generate ~seed:5 { Docgen.default_shape with target_nodes = 40 } in
      let before = Tree.size doc in
      let session = Core.Session.make (module Repro_schemes.Qed : Core.Scheme.S) doc in
      Updates.run pattern ~seed:5 ~ops:50 session;
      let stats = session.Core.Session.stats () in
      check Alcotest.bool
        (Printf.sprintf "%s performed work" (Updates.pattern_name pattern))
        true
        (stats.Core.Stats.s_inserts + stats.Core.Stats.s_deletes >= 50
        || Tree.size doc > before))
    Updates.all_patterns

let runner_series_shape () =
  let samples =
    Runner.series
      (module Repro_schemes.Qed : Core.Scheme.S)
      ~make_doc:(fun () -> Docgen.generate ~seed:7 { Docgen.default_shape with target_nodes = 30 })
      ~pattern:Updates.Append_only ~seed:7 ~ops:100 ~sample_every:25
  in
  check Alcotest.int "sample count" 5 (List.length samples);
  let ops = List.map (fun s -> s.Runner.ops_done) samples in
  check (Alcotest.list Alcotest.int) "sample points" [ 0; 25; 50; 75; 100 ] ops;
  let nodes = List.map (fun s -> s.Runner.nodes) samples in
  check Alcotest.bool "node count grows" true (List.sort compare nodes = nodes)

let xmark_structure () =
  let doc = Xmark_lite.generate ~seed:1 Xmark_lite.small in
  let enc = Repro_encoding.Encoding.of_doc doc in
  let count q = List.length (Repro_encoding.Xpath.eval enc q) in
  check Alcotest.int "regions" Xmark_lite.small.regions (count "/site/regions/*");
  check Alcotest.int "people" Xmark_lite.small.people (count "/site/people/person");
  check Alcotest.int "auctions" Xmark_lite.small.auctions
    (count "/site/open_auctions/open_auction");
  check Alcotest.bool "items exist" true (count "//item" > 0);
  check Alcotest.bool "every person has an id" true
    (count "//person" = count "//person[@id]")

let xmark_bid_feed () =
  let doc = Xmark_lite.generate ~seed:2 Xmark_lite.small in
  let session = Core.Session.make (module Repro_schemes.Cdqs : Core.Scheme.S) doc in
  let before = Tree.size doc in
  let rng = Repro_codes.Prng.create 3 in
  for _ = 1 to 50 do
    Xmark_lite.new_bid rng session
  done;
  check Alcotest.int "50 bidders appended" (before + (50 * 4)) (Tree.size doc);
  check Alcotest.bool "order maintained" true (Core.Session.order_consistent session)

(* The pickers index revision-stamped preorder snapshots; the reference
   is the list-building form they replaced, [Prng.choose] over the
   filtered [Tree.preorder] list, drawing from a twin of the driver's
   generator. A second driver mutates the same document between rounds,
   so the snapshots are rebuilt across inserts and deletes and reused
   within a round. *)
let pickers_match_list_reference () =
  let seed = 41 in
  let pack = Option.get (Repro_schemes.Registry.find "QED") in
  let session =
    Core.Session.make pack
      (Docgen.generate ~seed { Docgen.default_shape with target_nodes = 80 })
  in
  let picker = Updates.start Updates.Uniform_random ~seed session in
  let mutator = Updates.start Updates.Mixed_with_deletes ~seed:(seed + 1) session in
  let twin = Repro_codes.Prng.create seed in
  let filtered keep = Array.of_list (List.filter keep (Tree.preorder session.doc)) in
  for round = 1 to 150 do
    for pick = 1 to 3 do
      let where = Printf.sprintf "round %d pick %d" round pick in
      let want =
        Repro_codes.Prng.choose twin
          (filtered (fun (n : Tree.node) -> n.kind = Tree.Element))
      in
      check Alcotest.int (where ^ ": element") want.Tree.id
        (Updates.random_element picker).Tree.id;
      let want =
        match filtered (fun n -> Tree.parent n <> None) with
        | [||] -> None
        | a -> Some (Repro_codes.Prng.choose twin a).Tree.id
      in
      check
        Alcotest.(option int)
        (where ^ ": non-root") want
        (Option.map (fun (n : Tree.node) -> n.id) (Updates.random_non_root picker))
    done;
    Updates.step mutator
  done

let suite =
  [
    ("docgen is deterministic", `Quick, docgen_deterministic);
    ("patterns perform work", `Quick, patterns_grow_or_churn);
    ("runner series shape", `Quick, runner_series_shape);
    ("xmark-lite structure", `Quick, xmark_structure);
    ("xmark-lite bid feed", `Quick, xmark_bid_feed);
    ("pickers draw what Prng.choose draws over preorder", `Quick,
     pickers_match_list_reference);
    qcheck docgen_respects_bounds;
    qcheck patterns_keep_tree_valid;
  ]
