(* Tests for the incrementally-maintained axis index: after every op of a
   seeded 1k-op mixed workload per registered scheme the incremental
   structure must be order-isomorphic to a fresh rebuild; query answers
   through its snapshots must agree with both the scan evaluator and the
   dense batch index; and snapshots must be genuinely immutable under
   further mutation. *)

open Repro_workload
open Repro_encoding

let base_doc seed = Docgen.generate ~seed { Docgen.default_shape with target_nodes = 60 }

(* The tentpole invariant at the finest grain: incremental == rebuilt
   after every single operation, for every registered scheme (each drives
   its own relabelling machinery over the same mutating tree). *)
let incremental_matches_rebuild () =
  List.iter
    (fun pack ->
      let name = Core.Scheme.name pack in
      let session = Core.Session.make pack (base_doc 47) in
      let inc = Axis_inc.create session.Core.Session.doc in
      (match Axis_inc.verify inc with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s: diverged before any operation: %s" name msg);
      let d = Updates.start Updates.Mixed_with_deletes ~seed:47 session in
      for op = 1 to 1000 do
        Updates.step d;
        match Axis_inc.verify inc with
        | Ok () -> ()
        | Error msg -> Alcotest.failf "%s: diverged after op %d: %s" name op msg
      done;
      Axis_inc.detach inc)
    Repro_schemes.Registry.all

(* Sparse ranks are only ordered, not dense, so cross-engine comparisons
   project rows onto their rank-free content. *)
let shape (r : Encoding.row) = (r.kind, r.level, r.name, r.value)

let queries =
  [
    "//item";
    "//section//field";
    "//entry[field]";
    "//*";
    "//group/@*";
    "//record[2]";
    "/*/*";
    "//item/following-sibling::*";
    "//field/ancestor::*";
    "//list[count(item) > 0]";
    "//meta/../*";
    "/descendant-or-self::node()";
  ]

let twigs = [ "item[field]"; "section[//field]"; "entry[field][//meta]" ]

(* Under a mutating workload, every wire-servable answer path must agree:
   eval_src over the incremental snapshot == the scan reference over the
   same snapshot rows (identical sparse rows), and both isomorphic to the
   dense batch index over a fresh encoding. *)
let snapshot_queries_agree () =
  let session = Core.Session.make (module Repro_schemes.Qed : Core.Scheme.S) (base_doc 91) in
  let doc = session.Core.Session.doc in
  let inc = Axis_inc.create doc in
  let d = Updates.start Updates.Mixed_with_deletes ~seed:91 session in
  for round = 1 to 20 do
    for _ = 1 to 25 do
      Updates.step d
    done;
    let snap = Axis_inc.snapshot inc in
    let src = Axis_inc.source snap in
    let enc = Encoding.of_doc doc in
    Alcotest.(check int)
      (Printf.sprintf "round %d: snapshot rev tracks the document" round)
      (Repro_xml.Tree.revision doc) (Axis_inc.rev snap);
    List.iter
      (fun q ->
        let served = Xpath.eval_src src q in
        let scanned = Xpath.eval_scan_rows (Axis_inc.rows snap) (Xpath.parse q) in
        if served <> scanned then
          Alcotest.failf "round %d: %s: incremental and scan answers differ" round q;
        let dense = Xpath.eval enc q in
        Alcotest.(check int)
          (Printf.sprintf "round %d: %s: answer size vs dense index" round q)
          (List.length dense) (List.length served);
        if List.map shape served <> List.map shape dense then
          Alcotest.failf "round %d: %s: incremental and dense answers differ" round q)
      queries;
    List.iter
      (fun pat ->
        let t = Twig.parse pat in
        let inc_rows = Twig.matches_src src t in
        let dense_rows = Twig.matches (Axis_index.build enc) t in
        if List.map shape inc_rows <> List.map shape dense_rows then
          Alcotest.failf "round %d: twig %s: incremental and dense matches differ" round pat)
      twigs
  done;
  Axis_inc.detach inc

(* A snapshot taken before a mutation must not see it (persistent maps,
   the lock-free publication story of the server). *)
let snapshots_are_immutable () =
  let session = Core.Session.make (module Repro_schemes.Qed : Core.Scheme.S) (base_doc 7) in
  let doc = session.Core.Session.doc in
  let inc = Axis_inc.create doc in
  let before = Axis_inc.snapshot inc in
  let frozen = Axis_inc.rows before in
  let d = Updates.start Updates.Mixed_with_deletes ~seed:7 session in
  for _ = 1 to 200 do
    Updates.step d
  done;
  Alcotest.(check bool) "old snapshot rows unchanged" true (Axis_inc.rows before = frozen);
  Alcotest.(check bool) "new snapshot differs" true
    (Axis_inc.rows (Axis_inc.snapshot inc) <> frozen);
  Alcotest.(check bool) "maintenance was counted" true ((Axis_inc.stats inc).Axis_inc.ops >= 200);
  Axis_inc.detach inc

(* After detach the index stops following the document — and says so. *)
let detach_stops_maintenance () =
  let session = Core.Session.make (module Repro_schemes.Qed : Core.Scheme.S) (base_doc 3) in
  let inc = Axis_inc.create session.Core.Session.doc in
  Axis_inc.detach inc;
  let d = Updates.start Updates.Mixed_with_deletes ~seed:3 session in
  for _ = 1 to 20 do
    Updates.step d
  done;
  match Axis_inc.verify inc with
  | Ok () -> Alcotest.fail "detached index still tracked the document"
  | Error _ -> ()

(* ---- per-name change stamps ------------------------------------------ *)

module Survival = Repro_migrate.Mig_survival
module Tree = Repro_xml.Tree

let find doc name =
  match List.find_opt (fun n -> n.Tree.name = name) (Array.to_list (Tree.preorder_array doc)) with
  | Some n -> n
  | None -> Alcotest.failf "no node %S" name

(* One survival step over [src], returning the step's tally. *)
let step src tracked =
  let tally = Survival.tally () in
  ignore (Survival.step ~check:true ~tally src tracked);
  Alcotest.(check int) "kept answers match a full re-evaluation" 0 tally.Survival.mismatches;
  tally

let value_change_forces_reevaluation () =
  let doc = Repro_xml.Parser.parse "<r><a><b>x</b></a><c>y</c></r>" in
  let inc = Axis_inc.create doc in
  let src () = Axis_inc.source (Axis_inc.snapshot inc) in
  let tracked = Survival.track (src ()) (List.map Survival.parse_xpath [ "//a/b"; "//c" ]) in
  Tree.set_value doc (find doc "b") (Some "z");
  let t = step (src ()) tracked in
  Alcotest.(check (pair int int)) "the //a/b query re-evaluated, //c kept" (1, 1)
    (t.Survival.evaluated, t.Survival.skipped);
  Alcotest.(check bool) "the new value reached the kept answer" true
    ((List.hd tracked).Survival.t_answer = [ (Encoding.Element, "b", Some "z") ]);
  Tree.rename doc (Tree.root doc) "s";
  let t = step (src ()) tracked in
  Alcotest.(check (pair int int)) "a root rename touches neither query" (0, 2)
    (t.Survival.evaluated, t.Survival.skipped);
  Axis_inc.detach inc

(* Renumbering moves the ranks of nodes nobody touched: it must stamp
   none of their names. *)
let renumbering_stamps_nothing () =
  let doc = Repro_xml.Parser.parse "<r><a><b/><c/></a><d/></r>" in
  let inc = Axis_inc.create doc in
  let before = Axis_inc.snapshot inc in
  let a = find doc "a" in
  for _ = 1 to 200 do
    ignore (Tree.insert_first_child doc a (Tree.elt "u" []))
  done;
  let after = Axis_inc.snapshot inc in
  Alcotest.(check bool) "the inserts renumbered rank windows" true
    ((Axis_inc.stats inc).Axis_inc.renumbered > 0);
  List.iter
    (fun name ->
      Alcotest.(check int) (name ^ " keeps its stamp") (Axis_inc.changed_at before name)
        (Axis_inc.changed_at after name))
    [ "r"; "a"; "b"; "c"; "d" ];
  List.iter
    (fun name ->
      Alcotest.(check int) (name ^ " keeps its children's stamp")
        (Axis_inc.kids_changed_at before name) (Axis_inc.kids_changed_at after name))
    [ "r"; "b"; "c"; "d" ];
  Alcotest.(check int) "the inserted name is stamped at the last insert" (Axis_inc.rev after)
    (Axis_inc.changed_at after "u");
  Axis_inc.detach inc

(* Every primitive stamps the children of the parent it acts under, at
   the new revision, and no other name's stamps. *)
let kids_stamps_follow_primitives () =
  let doc = Repro_xml.Parser.parse "<r><p><a/><b>v</b></p><q><c/></q></r>" in
  let inc = Axis_inc.create doc in
  let stamps snap name = (Axis_inc.changed_at snap name, Axis_inc.kids_changed_at snap name) in
  let primitive what ~parent ~unrelated f =
    let before = Axis_inc.snapshot inc in
    f ();
    let after = Axis_inc.snapshot inc in
    Alcotest.(check bool) (what ^ ": a new revision") true (Axis_inc.rev after > Axis_inc.rev before);
    Alcotest.(check int) (what ^ ": " ^ parent ^ "'s children stamped") (Axis_inc.rev after)
      (Axis_inc.kids_changed_at after parent);
    List.iter
      (fun name ->
        Alcotest.(check (pair int int)) (what ^ ": " ^ name ^ " keeps its stamps")
          (stamps before name) (stamps after name))
      unrelated
  in
  primitive "element insert" ~parent:"p" ~unrelated:[ "r"; "a"; "b"; "q"; "c" ] (fun () ->
      ignore (Tree.insert_after doc (find doc "a") (Tree.elt "n" [])));
  primitive "attribute insert" ~parent:"p" ~unrelated:[ "r"; "a"; "q"; "c" ] (fun () ->
      ignore (Tree.insert_first_child doc (find doc "p") (Tree.attr "k" "1")));
  primitive "attribute revalue" ~parent:"p" ~unrelated:[ "r"; "a"; "b"; "q"; "c" ] (fun () ->
      Tree.set_value doc (find doc "k") (Some "2"));
  primitive "element revalue" ~parent:"p" ~unrelated:[ "r"; "a"; "k"; "q"; "c" ] (fun () ->
      Tree.set_value doc (find doc "b") (Some "w"));
  primitive "rename" ~parent:"p" ~unrelated:[ "r"; "b"; "k"; "q"; "c" ] (fun () ->
      Tree.rename doc (find doc "a") "a2");
  primitive "delete" ~parent:"p" ~unrelated:[ "r"; "a2"; "k"; "q"; "c" ] (fun () ->
      Tree.delete doc (find doc "b"));
  primitive "root-child rename" ~parent:"r" ~unrelated:[ "p"; "a2"; "k"; "c" ] (fun () ->
      Tree.rename doc (find doc "q") "q2");
  (match Axis_inc.verify inc with Ok () -> () | Error msg -> Alcotest.fail msg);
  Axis_inc.detach inc

(* The batch index keeps no history, so nothing it answers is ever kept. *)
let of_index_never_skips () =
  let doc = base_doc 11 in
  let src = Axis_source.of_index (Axis_index.build (Encoding.of_doc doc)) in
  let pool = Survival.pool ~seed:11 ~count:12 doc in
  let tracked = Survival.track src pool in
  for _ = 1 to 2 do
    let t = step src tracked in
    Alcotest.(check (pair int int)) "every query re-evaluated" (List.length pool, 0)
      (t.Survival.evaluated, t.Survival.skipped)
  done

(* Names that come and go must not grow the stamp map without bound. *)
let stamps_stay_bounded () =
  let doc = base_doc 5 in
  let inc = Axis_inc.create doc in
  let root = Tree.root doc in
  for i = 1 to 10_000 do
    Tree.delete doc (Tree.insert_last_child doc root (Tree.elt (Printf.sprintf "n%d" i) []))
  done;
  let live = Hashtbl.create 16 in
  Tree.iter_preorder (fun n -> Hashtbl.replace live n.Tree.name ()) doc;
  let live = Hashtbl.length live and stamped = Axis_inc.stamped (Axis_inc.snapshot inc) in
  if stamped > (4 * live) + 64 then
    Alcotest.failf "%d stamps for %d live names after 10k fresh names" stamped live;
  (match Axis_inc.verify inc with Ok () -> () | Error e -> Alcotest.fail e);
  Axis_inc.detach inc

let suite =
  [
    ( "incremental index equals full rebuild after every op (all schemes)",
      `Slow,
      incremental_matches_rebuild );
    ("snapshot queries agree with scan and dense engines", `Slow, snapshot_queries_agree);
    ("snapshots are immutable under further mutation", `Quick, snapshots_are_immutable);
    ("detach stops maintenance", `Quick, detach_stops_maintenance);
    ( "a value change on a selected name forces re-evaluation",
      `Quick,
      value_change_forces_reevaluation );
    ("renumbering a rank window stamps nothing", `Quick, renumbering_stamps_nothing);
    ("every primitive stamps its parent's children", `Quick, kids_stamps_follow_primitives);
    ("of_index never skips", `Quick, of_index_never_skips);
    ("the stamp map stays bounded by the live names", `Quick, stamps_stay_bounded);
  ]
