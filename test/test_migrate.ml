(* Schema migration: the six-operator algebra compiles to the existing
   journal primitives, so every structural rewrite rides the same
   journal / incremental-stats / index-maintenance path as a plain
   update. Covered here: the Tree.move_subtree helper it leans on,
   per-operator shapes against handcrafted documents, validation
   refusals, oracle-replay agreement across every well-behaved scheme
   (a byte-identical twin replays each compiled plan), incremental
   index equivalence under a migration storm, and the wire path
   including an exactly-once retry through a lost reply. *)

open Repro_xml
open Repro_journal
module M = Repro_migrate.Migrate
module Gen = Repro_migrate.Mig_gen
module Run = Repro_migrate.Mig_run
module P = Repro_server.Protocol
module Server = Repro_server.Server
module Client = Repro_server.Server_client
module Netsim = Repro_io.Netsim
module Io = Repro_io.Io

let check = Alcotest.check

let xml doc = Serializer.to_string doc
let same_xml msg want doc = check Alcotest.string msg (xml (Parser.parse want)) (xml doc)

(* first preorder element named [name] — handcrafted docs keep names unique *)
let find doc name =
  match
    List.find_opt
      (fun n -> n.Tree.name = name)
      (Array.to_list (Tree.preorder_array doc))
  with
  | Some n -> n
  | None -> Alcotest.failf "no element %S" name

let session_of doc =
  match Repro_schemes.Registry.find "QED" with
  | Some pack -> Core.Session.make pack doc
  | None -> Alcotest.fail "QED not registered"

let applier doc =
  let session = session_of doc in
  let r = Journal.Resolver.create session in
  { M.ap_session = session; ap_run = (fun o -> Journal.Resolver.apply r o) }

(* ---- the move helper ------------------------------------------------- *)

let move_subtree_roundtrip () =
  let doc = Parser.parse "<r><a><x><k/></x><y/></a><b/></r>" in
  let before = xml doc in
  let b = find doc "b" in
  let moved = Tree.move_subtree doc (find doc "x") (Tree.Into_last b) in
  check Alcotest.string "moved node keeps its name" "x" moved.Tree.name;
  same_xml "subtree relocated whole" "<r><a><y/></a><b><x><k/></x></b></r>" doc;
  (match Tree.validate doc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invalid after move: %s" e);
  ignore (Tree.move_subtree doc moved (Tree.Into_first (find doc "a")));
  check Alcotest.string "round-trip restores the document" before (xml doc)

let move_subtree_guards () =
  let doc = Parser.parse "<r><a><x/></a></r>" in
  let refuses what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s was not refused" what
  in
  refuses "moving the root" (fun () ->
      Tree.move_subtree doc (Tree.root doc) (Tree.Into_last (find doc "a")));
  refuses "moving into the moved subtree" (fun () ->
      Tree.move_subtree doc (find doc "a") (Tree.Into_last (find doc "x")));
  refuses "placing a sibling of the root" (fun () ->
      Tree.move_subtree doc (find doc "x") (Tree.After (Tree.root doc)))

(* ---- operator shapes -------------------------------------------------- *)

let wrap_then_unwrap () =
  let doc = Parser.parse "<r><a/><b/><c/></r>" in
  let ap = applier doc in
  let prims = M.apply ap (M.Wrap ([ find doc "a"; find doc "b" ], "g")) in
  check Alcotest.int "wrap of 2 targets = 1 insert + 2 moves" 5 prims;
  same_xml "wrap groups a contiguous run" "<r><g><a/><b/></g><c/></r>" doc;
  ignore (M.apply ap (M.Unwrap (find doc "g")));
  same_xml "unwrap is wrap's inverse" "<r><a/><b/><c/></r>" doc

let hoist_shapes () =
  let doc = Parser.parse "<r><p><q><x><k/></x></q></p></r>" in
  let ap = applier doc in
  ignore (M.apply ap (M.Hoist (find doc "x", 1)));
  same_xml "hoist by one level" "<r><p><q/><x><k/></x></p></r>" doc;
  ignore (M.apply ap (M.Hoist (find doc "k", 2)));
  same_xml "hoist by two levels" "<r><p><q/><x/></p><k/></r>" doc

let split_then_merge () =
  let doc = Parser.parse "<r><p><a/><b/><c/></p></r>" in
  let ap = applier doc in
  ignore (M.apply ap (M.Split (find doc "p", 1)));
  same_xml "split at 1" "<r><p><a/></p><p><b/><c/></p></r>" doc;
  ignore (M.apply ap (M.Merge (find doc "p")));
  same_xml "merge is split's inverse" "<r><p><a/><b/><c/></p></r>" doc

let rename_all_scoped () =
  let doc = Parser.parse "<r><a><i/></a><b><i/><j/></b><i/></r>" in
  let ap = applier doc in
  let prims = M.apply ap (M.Rename_all (find doc "b", "i", "z")) in
  check Alcotest.int "renames only in scope" 1 prims;
  same_xml "scoped bulk rename" "<r><a><i/></a><b><z/><j/></b><i/></r>" doc;
  let prims = M.apply ap (M.Rename_all (Tree.root doc, "i", "z")) in
  check Alcotest.int "root scope reaches the rest" 2 prims;
  same_xml "document-wide rename" "<r><a><z/></a><b><z/><j/></b><z/></r>" doc

let validation_refusals () =
  let doc = Parser.parse "<r><a/><b/><c/></r>" in
  let ap = applier doc in
  let before = xml doc in
  let refuses what op =
    match M.apply ap op with
    | exception M.Migrate_error _ -> ()
    | _ -> Alcotest.failf "%s was not refused" what
  in
  refuses "wrap of non-contiguous siblings" (M.Wrap ([ find doc "a"; find doc "c" ], "g"));
  refuses "wrap of the root" (M.Wrap ([ Tree.root doc ], "g"));
  refuses "unwrap of the root" (M.Unwrap (Tree.root doc));
  refuses "hoist past the root" (M.Hoist (find doc "a", 2));
  refuses "split outside the child range" (M.Split (find doc "a", 1));
  refuses "merge without a same-named sibling" (M.Merge (find doc "a"));
  refuses "rename to the empty name" (M.Rename_all (Tree.root doc, "a", ""));
  check Alcotest.string "refused operators left no partial edits" before (xml doc)

(* ---- oracle replay across schemes ------------------------------------ *)

let oracle_agrees_everywhere () =
  let cfg = { Run.seed = 11; nodes = 120; steps = 24; queries = 12 } in
  let rows = Run.run cfg Repro_schemes.Registry.well_behaved in
  check Alcotest.bool "ran every well-behaved scheme" true (List.length rows >= 8);
  List.iter
    (fun (r : Run.row) ->
      (match r.Run.r_error with
      | None -> ()
      | Some e -> Alcotest.failf "%s: storm died: %s" r.Run.r_scheme e);
      check Alcotest.int (r.Run.r_scheme ^ ": oracle replay agrees") 0
        r.Run.r_disagreements;
      check Alcotest.int (r.Run.r_scheme ^ ": survival kept no stale answer") 0
        r.Run.r_mismatches;
      check Alcotest.bool (r.Run.r_scheme ^ ": incremental index verifies") true
        r.Run.r_axis_ok;
      check Alcotest.bool (r.Run.r_scheme ^ ": storm made progress") true
        (r.Run.r_steps - r.Run.r_skipped > 0);
      check Alcotest.int (r.Run.r_scheme ^ ": verdicts cover the pool")
        r.Run.r_queries
        (r.Run.r_survived + r.Run.r_changed + r.Run.r_broken))
    rows

(* ---- incremental index equivalence under a storm ---------------------- *)

let axis_inc_survives_storm () =
  let doc = Repro_workload.Docgen.generate ~seed:23 Repro_workload.Docgen.default_shape in
  let ap = applier doc in
  let inc = Repro_encoding.Axis_inc.create doc in
  let rng = Repro_codes.Prng.create 0xA51 in
  let applied = ref 0 in
  for step = 0 to 39 do
    match Gen.next rng doc ~step with
    | None -> ()
    | Some op ->
      incr applied;
      ignore (M.apply ap op)
  done;
  check Alcotest.bool "storm applied operators" true (!applied > 20);
  (match Repro_encoding.Axis_inc.verify inc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "incremental index diverged from rebuild: %s" e);
  Repro_encoding.Axis_inc.detach inc

(* ---- standing-query survival keeps only answers that still hold -------- *)

module Survival = Repro_migrate.Mig_survival
module Prng = Repro_codes.Prng

(* Shapes no signature covers ride along: a step must re-evaluate them
   every time. *)
let unsigned_queries = [ "//*"; "//@id"; "//section[@kind]"; "/*//field" ]

(* Positional, counting and value-comparing predicates over name paths
   have signatures too: the storm checks every answer they keep. *)
let signed_queries =
  [ ("//item[2]", [ "item" ]);
    ("//entry[field = 'alpha']", [ "entry"; "field" ]);
    ("//list[count(item) > 0]", [ "item"; "list" ]);
    ("//section[not(field) or position() = last()]", [ "field"; "section" ]);
    ("//group//record[1]", [ "group"; "record" ]) ]

(* Wildcard, attribute and sibling steps after a name path are signed
   by the children's stamps of the names involved; a sibling signature
   names the parents of the context nodes at the snapshot. Expected
   stamps at [signature_doc], "name" for a [Name] and "name/" for a
   [Kids] stamp. *)
let snapshot_signed_queries =
  [ ("//item/following-sibling::entry",
      [ "doc"; "doc/"; "entry"; "group"; "group/"; "item"; "list"; "list/" ]);
    ("//group/node()", [ "group"; "group/" ]);
    ("//group/@*", [ "group"; "group/" ]);
    ("/*/*", [ "doc"; "doc/" ]) ]

let signature_doc =
  "<doc><list><item/><entry/></list><group id='g'><item/><entry/></group><item/></doc>"

(* A seeded storm over a fresh document: plain primitives through the
   journal resolver — inserts of pooled names, deletes, renames (the
   document element included) and value changes — interleaved with all
   six migration operators. [setup doc inc] runs once before the first
   operation and returns what to do after each of the 40. *)
let storm scheme seed setup =
  let pack =
    match Repro_schemes.Registry.find scheme with
    | Some p -> p
    | None -> Alcotest.failf "%s not registered" scheme
  in
  let doc =
    Repro_workload.Docgen.generate ~seed
      { Repro_workload.Docgen.default_shape with target_nodes = 80 }
  in
  let session = Core.Session.make pack doc in
  let r = Journal.Resolver.create session in
  let ap = { M.ap_session = session; ap_run = (fun o -> Journal.Resolver.apply r o) } in
  let inc = Repro_encoding.Axis_inc.create doc in
  let names = Survival.element_names doc in
  let after = setup doc inc in
  let rng = Prng.create (seed lxor 0x5e7) in
  let pick a = a.(Prng.int rng (Array.length a)) in
  let lab n =
    let l_bytes, l_bits = session.Core.Session.label_encoded n in
    { Oplog.l_bytes; l_bits }
  in
  let prim o = ignore (Journal.Resolver.apply r o) in
  for step = 0 to 39 do
    let nodes = Tree.preorder_array doc in
    let elements =
      Array.of_list (List.filter (fun n -> n.Tree.kind = Tree.Element) (Array.to_list nodes))
    in
    (match Prng.int rng 6 with
    | 0 -> prim (Oplog.Insert_last (lab (pick elements), Tree.elt ~value:"alpha" (pick names) []))
    | 1 when Array.length nodes > 10 ->
      prim (Oplog.Delete (lab nodes.(1 + Prng.int rng (Array.length nodes - 1))))
    | 2 ->
      let n = if Prng.int rng 3 = 0 then Tree.root doc else pick elements in
      prim (Oplog.Rename (lab n, pick names))
    | 3 -> prim (Oplog.Replace_value (lab (pick nodes), Some (pick [| "alpha"; "bravo" |])))
    | _ -> Option.iter (fun op -> ignore (M.apply ap op)) (Gen.next rng doc ~step));
    after ()
  done;
  Repro_encoding.Axis_inc.detach inc

let storm_pool seed doc =
  Survival.pool ~seed ~count:12 doc
  @ List.map Survival.parse_xpath
      (unsigned_queries @ List.map fst signed_queries @ List.map fst snapshot_signed_queries)
  @ [ Survival.parse_twig "section[field//meta]" ]

(* The survival pool stepped after every operation with the full
   re-evaluation on: the summed tally of answers re-evaluated, kept, and
   kept but stale. *)
let survival_storm scheme seed =
  let tally = Survival.tally () in
  storm scheme seed (fun doc inc ->
      let src () = Repro_encoding.Axis_inc.source (Repro_encoding.Axis_inc.snapshot inc) in
      let tracked = Survival.track (src ()) (storm_pool seed doc) in
      fun () -> ignore (Survival.step ~check:true ~tally (src ()) tracked));
  tally

let survival_matches_reevaluation scheme =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:12
       ~name:(scheme ^ ": every kept survival answer equals a full re-evaluation")
       QCheck.(int_bound 100_000)
       (fun seed ->
         let t = survival_storm scheme seed in
         if t.Survival.mismatches > 0 then
           QCheck.Test.fail_reportf "seed %d: %d stale kept answer(s)" seed t.Survival.mismatches;
         true))

(* The property above holds vacuously if nothing is ever kept. *)
let survival_skips () =
  let t = survival_storm "QED" 7 in
  check Alcotest.int "no stale kept answer" 0 t.Survival.mismatches;
  check Alcotest.bool "some answers kept unevaluated" true (t.Survival.skipped > 0);
  check Alcotest.bool "some answers re-evaluated" true (t.Survival.evaluated > 0);
  let doc = Repro_xml.Parser.parse signature_doc in
  let inc = Repro_encoding.Axis_inc.create doc in
  let src = Repro_encoding.Axis_inc.source (Repro_encoding.Axis_inc.snapshot inc) in
  let signature q =
    Option.map
      (List.map (function
        | Repro_encoding.Axis_source.Name n -> n
        | Repro_encoding.Axis_source.Kids n -> n ^ "/"))
      (Repro_encoding.Xpath.signature src (Repro_encoding.Xpath.parse q))
  in
  List.iter
    (fun q -> check Alcotest.(option (list string)) (q ^ " has no signature") None (signature q))
    unsigned_queries;
  List.iter
    (fun (q, stamps) ->
      check
        Alcotest.(option (list string))
        (q ^ " signature") (Some stamps)
        (Option.map (List.sort String.compare) (signature q)))
    (signed_queries @ snapshot_signed_queries);
  Repro_encoding.Axis_inc.detach inc

(* ---- the wire path ---------------------------------------------------- *)

let with_server f = Fixture.with_server "xmig" f
let count_name = Fixture.count_name

let insert_child c ~doc lab name =
  match Client.update c ~doc [ Oplog.Insert_last (lab, Tree.elt name []) ] with
  | Ok (P.Updated { up_fresh = [ l ]; _ }) -> l
  | _ -> Alcotest.fail "insert failed"

let migrate_over_the_wire () =
  with_server (fun t ->
      let c = Client.connect ~host:"127.0.0.1" ~port:(Server.port t) () in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      let root_lab =
        match Client.open_doc c ~doc:"d" ~scheme:"QED" ~nodes:2 ~seed:5 with
        | Ok (P.Opened { ok_root; _ }) -> ok_root
        | _ -> Alcotest.fail "open failed"
      in
      let l = insert_child c ~doc:"d" root_lab "a" in
      (match Client.migrate c ~doc:"d" [ M.S_wrap ([ l ], "w") ] with
      | Ok (P.Updated { up_applied = 3; up_fresh = []; up_dedup = false; _ }) -> ()
      | Ok _ -> Alcotest.fail "unexpected migrate reply"
      | Error e -> Alcotest.fail ("migrate failed: " ^ e));
      check Alcotest.int "wrapper applied once" 1 (count_name c ~doc:"d" "w");
      check Alcotest.int "target moved, not duplicated" 1 (count_name c ~doc:"d" "a");
      (* an unresolvable label is a typed protocol error *)
      (match
         Client.migrate c ~doc:"d" [ M.S_unwrap { P.l_bytes = "\xff\xff"; l_bits = 16 } ]
       with
      | Ok (P.Err (P.Unknown_label, _)) -> ()
      | _ -> Alcotest.fail "bogus label was not refused");
      (* an invalid operator mid-batch: typed error naming the operator,
         with the batch prefix before it applied and journaled *)
      let l2 = insert_child c ~doc:"d" root_lab "b" in
      (match
         Client.migrate c ~doc:"d"
           [ M.S_wrap ([ l2 ], "w2"); M.S_hoist (root_lab, 1) ]
       with
      | Ok (P.Err (P.Bad_request, msg)) ->
        check Alcotest.bool "error names the failing operator" true
          (String.length msg >= 10 && String.sub msg 0 9 = "operator ")
      | _ -> Alcotest.fail "hoisting the root was not refused"))

let oversized_batch_refused () =
  with_server (fun t ->
      let c = Client.connect ~host:"127.0.0.1" ~port:(Server.port t) () in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      let root_lab =
        match Client.open_doc c ~doc:"d" ~scheme:"QED" ~nodes:2 ~seed:5 with
        | Ok (P.Opened { ok_root; _ }) -> ok_root
        | _ -> Alcotest.fail "open failed"
      in
      match
        Client.migrate c ~doc:"d"
          (List.init 65 (fun _ -> M.S_rename_all (root_lab, "never", "mind")))
      with
      | Ok (P.Err (P.Bad_request, _)) -> ()
      | _ -> Alcotest.fail "oversized batch was not refused")

(* the PR 8 contract, transitively: an identified client's migrate retry
   after a lost reply is answered from the dedup window, not re-applied *)
let migrate_retry_exactly_once () =
  with_server (fun t ->
      let ns, m = Netsim.wrap Io.unix_sock in
      let sock = Io.pack_sock m in
      let c =
        Client.connect ~sock ~timeout:1.0 ~client:"mig" ~retries:6 ~backoff:0.005
          ~host:"127.0.0.1" ~port:(Server.port t) ()
      in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      Netsim.clear ns;
      let root_lab =
        match Client.open_doc c ~doc:"d" ~scheme:"QED" ~nodes:2 ~seed:5 with
        | Ok (P.Opened { ok_root; _ }) -> ok_root
        | _ -> Alcotest.fail "open failed"
      in
      let l = insert_child c ~doc:"d" root_lab "a" in
      (* the connection dies under the reply: the stamped resend must be
         a dedup hit, and the wrap must have run exactly once *)
      Netsim.arm ns [ (Netsim.At 2, Netsim.Drop) ];
      (match Client.migrate c ~doc:"d" [ M.S_wrap ([ l ], "w") ] with
      | Ok (P.Updated { up_applied = 3; up_dedup; _ }) ->
        check Alcotest.bool "resend hit the dedup window" true up_dedup
      | Ok _ -> Alcotest.fail "unexpected reply"
      | Error e -> Alcotest.fail ("migrate through dropped reply failed: " ^ e));
      Netsim.clear ns;
      check Alcotest.int "wrapper applied exactly once" 1 (count_name c ~doc:"d" "w");
      check Alcotest.int "target wrapped exactly once" 1 (count_name c ~doc:"d" "a");
      check Alcotest.bool "the retry actually happened" true
        ((Client.counters c).Client.c_retries >= 1))

(* ---- the served-query answer cache ------------------------------------ *)

module Qe = Repro_server.Query_eval
module Axis_inc = Repro_encoding.Axis_inc

let serve ?cache metrics inc snap q ~limit =
  Qe.serve metrics ~paranoid:false ~doc_rev:(Axis_inc.rev snap) ~inc ~pub_time:0. ~snap ?cache q
    ~limit

let count metrics key =
  List.fold_left
    (fun n (m : P.metric) -> if m.P.m_key = key then m.P.m_count else n)
    0 (Repro_server.Metrics.snapshot metrics)

(* Every reply served through the cache after every storm operation —
   total, rows with their levels, and revision — equals a fresh
   evaluation at the same snapshot. Each query is served twice per step,
   so hits at the same revision are exercised as well as hits across
   revisions. Returns (differing replies, hits). *)
let cache_storm scheme seed =
  let metrics = Repro_server.Metrics.create () in
  let bad = ref 0 in
  storm scheme seed (fun doc inc ->
      let cache = Qe.cache () in
      let qs =
        List.map
          (function
            | Survival.Q_xpath (s, _) -> Qe.Q_xpath s | Survival.Q_twig (s, _) -> Qe.Q_twig s)
          (storm_pool seed doc)
        @ [ Qe.Q_xpath "//record[2]"; Qe.Q_xpath "//group/@*"; Qe.Q_xpath "/*/*";
            Qe.Q_xpath "//item/following-sibling::*"; Qe.Q_xpath "//item/preceding-sibling::*";
            Qe.Q_xpath "//group/*"; Qe.Q_xpath "//list/node()";
            Qe.Q_twig "entry[field][//meta]" ]
      in
      fun () ->
        let snap = Axis_inc.snapshot inc in
        List.iter
          (fun q ->
            List.iter
              (fun limit ->
                let fresh = serve metrics inc snap q ~limit in
                for _ = 1 to 2 do
                  if serve ~cache metrics inc snap q ~limit <> fresh then incr bad
                done)
              [ 3; 32 ])
          qs);
  (!bad, count metrics "query/cache_hit")

let cache_matches_fresh scheme =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:8
       ~name:(scheme ^ ": every cached reply equals a fresh evaluation")
       QCheck.(int_bound 100_000)
       (fun seed ->
         let bad, _ = cache_storm scheme seed in
         if bad > 0 then QCheck.Test.fail_reportf "seed %d: %d stale cached reply(ies)" seed bad;
         true))

(* The property above holds vacuously if nothing ever hits. *)
let cache_hits_under_storm () =
  let bad, hits = cache_storm "QED" 7 in
  check Alcotest.int "no stale reply" 0 bad;
  check Alcotest.bool "some replies came from the cache" true (hits > 0)

let cache_doc () =
  let doc =
    Repro_workload.Docgen.generate ~seed:5
      { Repro_workload.Docgen.default_shape with target_nodes = 600 }
  in
  (doc, Axis_inc.create doc)

(* Workers serve older snapshots concurrently: an older snapshot must
   not hit an entry taken later, nor replace it. *)
let cache_older_snapshot () =
  let doc, inc = cache_doc () in
  let metrics = Repro_server.Metrics.create () in
  let cache = Qe.cache () in
  let q = Qe.Q_xpath "/*/*" in
  let old_snap = Axis_inc.snapshot inc in
  ignore (Tree.insert_last_child doc (Tree.root doc) (Tree.elt "fresh" []));
  let new_snap = Axis_inc.snapshot inc in
  let total resp = match resp with P.Query_r r -> (r.P.qy_total, r.P.qy_rev) | _ -> (-1, -1) in
  let newer = serve ~cache metrics inc new_snap q ~limit:5 in
  let older = serve ~cache metrics inc old_snap q ~limit:5 in
  check Alcotest.int "nothing hit yet" 0 (count metrics "query/cache_hit");
  check Alcotest.(pair int int) "the older snapshot's own answer"
    (total (serve metrics inc old_snap q ~limit:5)) (total older);
  check Alcotest.bool "the answers differ" true (total older <> total newer);
  check Alcotest.bool "the newer entry survived" true
    (serve ~cache metrics inc new_snap q ~limit:5 = newer);
  check Alcotest.int "and answered from the cache" 1 (count metrics "query/cache_hit");
  Axis_inc.detach inc

(* Each of these mutations changes the children or siblings a signed
   answer reads, so it must move a stamp of the signature and miss as
   stale; the reply served afterwards is a fresh evaluation's. A
   mutation elsewhere keeps the entry; an unsigned one misses at every
   new revision. *)
let cache_misses_when_kids_change () =
  let doc =
    Repro_xml.Parser.parse
      "<doc><p><item/><entry/></p><group id='g'><item/></group><other><x/></other></doc>"
  in
  let inc = Axis_inc.create doc in
  let metrics = Repro_server.Metrics.create () in
  let cache = Qe.cache () in
  let node name =
    List.find (fun n -> n.Tree.name = name) (Array.to_list (Tree.preorder_array doc))
  in
  let served q =
    let snap = Axis_inc.snapshot inc in
    check Alcotest.bool "the reply equals a fresh evaluation" true
      (serve ~cache metrics inc snap q ~limit:32 = serve metrics inc snap q ~limit:32)
  in
  (* [miss] is the cause the miss must be counted under, if any *)
  let expect what ?miss q mutate =
    served q;
    let misses () = List.map (count metrics) ("query/cache_miss" :: Option.to_list miss) in
    let before = misses () in
    mutate ();
    served q;
    List.iter2
      (fun b a -> check Alcotest.int what (Bool.to_int (miss <> None)) (a - b))
      before (misses ())
  in
  let stale = "query/cache_miss_stale" in
  let siblings = Qe.Q_xpath "//item/following-sibling::*" in
  let attributes = Qe.Q_xpath "//group/@*" in
  expect "an insert under an unrelated parent hits" siblings (fun () ->
      ignore (Tree.insert_last_child doc (node "other") (Tree.elt "y" [])));
  expect "an element inserted after an item misses" ~miss:stale siblings (fun () ->
      ignore (Tree.insert_after doc (node "item") (Tree.elt "fresh" [])));
  expect "a rename of the items' parent misses" ~miss:stale siblings (fun () ->
      Tree.rename doc (node "p") "q");
  expect "an unrelated revalue hits" attributes (fun () -> Tree.set_value doc (node "x") (Some "v"));
  expect "a group attribute revalued misses" ~miss:stale attributes (fun () ->
      Tree.set_value doc (node "id") (Some "h"));
  expect "an unsigned answer misses at a new revision" ~miss:"query/cache_miss_unsigned"
    (Qe.Q_xpath "//*") (fun () -> Tree.set_value doc (node "x") (Some "w"));
  check Alcotest.int "one cold miss per text" 3 (count metrics "query/cache_miss_cold");
  Axis_inc.detach inc

(* Distinct query texts evict, they do not grow the cache past its
   bounds: neither in entries nor in rows. *)
let cache_stays_bounded () =
  let _doc, inc = cache_doc () in
  let metrics = Repro_server.Metrics.create () in
  let cache = Qe.cache () in
  let snap = Axis_inc.snapshot inc in
  for k = 1 to 3 * Qe.max_cached_entries do
    let q = Qe.Q_xpath (Printf.sprintf "/descendant::*[position() > %d]" k) in
    ignore (serve ~cache metrics inc snap q ~limit:Qe.max_rows);
    let entries, rows = Qe.cache_size cache in
    if entries > Qe.max_cached_entries || rows > Qe.max_cached_rows then
      Alcotest.failf "after %d texts: %d entries, %d rows" k entries rows
  done;
  let entries, rows = Qe.cache_size cache in
  check Alcotest.bool "the cache holds something" true (entries > 0 && rows > 0);
  Axis_inc.detach inc

let suite =
  [
    Alcotest.test_case "move_subtree round-trips" `Quick move_subtree_roundtrip;
    Alcotest.test_case "move_subtree refuses bad moves" `Quick move_subtree_guards;
    Alcotest.test_case "wrap then unwrap" `Quick wrap_then_unwrap;
    Alcotest.test_case "hoist shapes" `Quick hoist_shapes;
    Alcotest.test_case "split then merge" `Quick split_then_merge;
    Alcotest.test_case "rename_all respects scope" `Quick rename_all_scoped;
    Alcotest.test_case "invalid operators are refused whole" `Quick validation_refusals;
    Alcotest.test_case "oracle replay agrees on every scheme" `Quick
      oracle_agrees_everywhere;
    Alcotest.test_case "incremental index survives a storm" `Quick
      axis_inc_survives_storm;
    Alcotest.test_case "migrate over the wire" `Quick migrate_over_the_wire;
    Alcotest.test_case "oversized batch refused" `Quick oversized_batch_refused;
    Alcotest.test_case "migrate retry is exactly-once" `Quick migrate_retry_exactly_once;
    survival_matches_reevaluation "QED";
    survival_matches_reevaluation "Vector";
    Alcotest.test_case "survival keeps answers under a storm" `Quick survival_skips;
    cache_matches_fresh "QED";
    cache_matches_fresh "Vector";
    Alcotest.test_case "the answer cache hits under a storm" `Quick cache_hits_under_storm;
    Alcotest.test_case "an older snapshot neither hits nor overwrites" `Quick
      cache_older_snapshot;
    Alcotest.test_case "distinct texts cannot grow the cache" `Quick cache_stays_bounded;
    Alcotest.test_case "a change to the children read misses" `Quick cache_misses_when_kids_change;
  ]
