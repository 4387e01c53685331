(** The survey's qualitative claims, made quantitative (experiments
    CL1-CL8 of DESIGN.md). Each experiment returns a rendered table plus a
    [holds] flag asserting the claim's shape, so the benchmark harness
    prints them and the test suite asserts them. *)

open Repro_xml
open Repro_workload

type result = { id : string; claim : string; table : string; holds : bool }

let buf_table header rows =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (header ^ "\n");
  List.iter (fun r -> Buffer.add_string buf (r ^ "\n")) rows;
  Buffer.contents buf

let seed = 7

(* ------------------------------------------------------------------ *)
(* CL1 — §3.1.1: "a global order approach ... is unsuitable for a
   dynamic labelling scheme because insertions modify the positional
   values of all nodes after the inserted node", while local/hybrid
   schemes touch only a neighbourhood.                                  *)
(* ------------------------------------------------------------------ *)

let insert_at_fraction session frac =
  let doc = session.Core.Session.doc in
  let nodes =
    List.filter (fun (n : Tree.node) -> Tree.parent n <> None) (Tree.preorder doc)
  in
  let idx = int_of_float (frac *. float_of_int (List.length nodes - 1)) in
  let anchor = List.nth nodes idx in
  ignore (session.Core.Session.insert_before anchor (Tree.elt "probe" []))

let cl1 () =
  let fractions = [ 0.1; 0.5; 0.9 ] in
  let schemes =
    [ "XPath Accelerator"; "XRel"; "Dietz-OM"; "DeweyID"; "ORDPATH"; "QED"; "Vector" ]
  in
  let row name =
    let pack = Option.get (Repro_schemes.Registry.find name) in
    let counts =
      List.map
        (fun frac ->
          let doc = Docgen.generate ~seed { Docgen.default_shape with target_nodes = 300 } in
          let session = Core.Session.make pack doc in
          insert_at_fraction session frac;
          (session.Core.Session.stats ()).Core.Stats.s_relabelled)
        fractions
    in
    (name, counts)
  in
  let rows = List.map row schemes in
  let global_heavy =
    List.for_all
      (fun (name, counts) ->
        let info = Core.Scheme.info (Option.get (Repro_schemes.Registry.find name)) in
        match (name, info.Core.Info.order) with
        | "Dietz-OM", _ ->
          (* global ORDER but local MAINTENANCE: Dietz's point *)
          List.for_all (fun c -> c < 100) counts
        | _, Core.Info.Global ->
          (* early insertion relabels more than late insertion, and lots *)
          (match counts with
          | [ a; _; c ] -> a > c && a > 100
          | _ -> false)
        | _ ->
          (* hybrid schemes relabel at most a neighbourhood *)
          List.for_all (fun c -> c < 100) counts)
      rows
  in
  {
    id = "CL1";
    claim = "global order relabels all following nodes; hybrid order stays local";
    table =
      buf_table
        (Printf.sprintf "%-18s %12s %12s %12s" "Scheme" "insert@10%" "insert@50%"
           "insert@90%")
        (List.map
           (fun (n, cs) ->
             Printf.sprintf "%-18s %12s" n
               (String.concat " " (List.map (Printf.sprintf "%12d") cs)))
           rows);
    holds = global_heavy;
  }

(* ------------------------------------------------------------------ *)
(* CL2 — §3.1.1: gaps "only postpone the relabelling process until the
   interval gaps have been consumed by the update process".            *)
(* ------------------------------------------------------------------ *)

let inserts_until_overflow pack ~make_doc ~pattern ~max_ops =
  let doc = make_doc () in
  let session = Core.Session.make pack doc in
  let driver = Updates.start pattern ~seed session in
  let rec go i =
    if i > max_ops then None
    else begin
      Updates.step driver;
      if (session.Core.Session.stats ()).Core.Stats.s_overflow > 0 then Some i else go (i + 1)
    end
  in
  go 1

let cl2 () =
  let gaps = [ 4; 16; 64; 256 ] in
  let onsets =
    List.map
      (fun g ->
        Repro_schemes.Interval_gap.set_gap g;
        let onset =
          inserts_until_overflow
            (module Repro_schemes.Interval_gap : Core.Scheme.S)
            ~make_doc:(fun () ->
              Docgen.generate ~seed { Docgen.default_shape with target_nodes = 60 })
            ~pattern:Updates.Skewed_after_anchor ~max_ops:10_000
        in
        (g, onset))
      gaps
  in
  Repro_schemes.Interval_gap.set_gap 16;
  let monotone =
    let values = List.map (fun (_, o) -> Option.value o ~default:max_int) onsets in
    List.for_all2 ( <= ) (List.filteri (fun i _ -> i < 3) values) (List.tl values)
    && List.for_all (fun (_, o) -> o <> None) onsets
  in
  {
    id = "CL2";
    claim = "interval gaps postpone but never avoid relabelling";
    table =
      buf_table
        (Printf.sprintf "%-10s %s" "gap" "skewed insertions until first relabelling storm")
        (List.map
           (fun (g, o) ->
             Printf.sprintf "%-10d %s" g
               (match o with Some i -> string_of_int i | None -> "never (within budget)"))
           onsets);
    holds = monotone;
  }

(* ------------------------------------------------------------------ *)
(* CL3 — §3.1.1 on QRS: "computers represent floating point numbers
   with a fixed number of bits and thus in practice the solution is
   similar to ... sparse allocation".                                  *)
(* ------------------------------------------------------------------ *)

let cl3 () =
  let onset =
    inserts_until_overflow
      (module Repro_schemes.Qrs : Core.Scheme.S)
      ~make_doc:(fun () ->
        Docgen.generate ~seed { Docgen.default_shape with target_nodes = 40 })
      ~pattern:Updates.Skewed_after_anchor ~max_ops:1_000
  in
  let holds = match onset with Some i -> i < 100 | None -> false in
  {
    id = "CL3";
    claim = "QRS float midpoints exhaust the mantissa after a few dozen skewed insertions";
    table =
      (match onset with
      | Some i ->
        Printf.sprintf "first precision-exhaustion relabelling after %d insertions\n" i
      | None -> "no exhaustion within 1000 insertions\n");
    holds;
  }

(* ------------------------------------------------------------------ *)
(* CL4 — §4: the overflow problem strikes every fixed field; QED and
   CDQS avoid it entirely; the Vector scheme's UTF-8 ceiling (2^21) is
   the survey's open question.                                          *)
(* ------------------------------------------------------------------ *)

let cl4 () =
  let schemes =
    [ "DeweyID"; "ORDPATH"; "DLN"; "ImprovedBinary"; "CDBS"; "QED"; "CDQS"; "Vector" ]
  in
  let adversarial pack =
    let run pattern ops =
      (Runner.final pack
         ~make_doc:(fun () ->
           Docgen.generate ~seed { Docgen.default_shape with target_nodes = 40 })
         ~pattern ~seed ~ops)
        .Runner.overflow
    in
    run Updates.Skewed_before_first 2000
    + run Updates.Skewed_after_anchor 2000
    + run Updates.Deep_chain 400
  in
  let rows =
    List.map
      (fun name ->
        let pack = Option.get (Repro_schemes.Registry.find name) in
        (name, adversarial pack))
      schemes
  in
  let holds =
    List.for_all
      (fun (name, events) ->
        match name with
        | "QED" | "CDQS" -> events = 0
        | "Vector" -> true (* the ceiling is the finding, either way *)
        | _ -> events > 0)
      rows
  in
  {
    id = "CL4";
    claim = "fixed fields overflow under adversarial updates; QED/CDQS never do";
    table =
      buf_table
        (Printf.sprintf "%-16s %s" "Scheme" "overflow events (skewed x2 + deep chain)")
        (List.map (fun (n, e) -> Printf.sprintf "%-16s %d" n e) rows);
    holds;
  }

(* ------------------------------------------------------------------ *)
(* CL5 — §4/§5: "under skewed insertions ... the vector label growth
   rate is much slower than QED under similar conditions".             *)
(* ------------------------------------------------------------------ *)

let cl5 () =
  let names = [ "ImprovedBinary"; "QED"; "CDQS"; "ORDPATH"; "Vector (prefix)" ] in
  let lookup = function
    | "Vector (prefix)" -> (module Repro_schemes.Vector_scheme : Core.Scheme.S)
    | n -> Option.get (Repro_schemes.Registry.find n)
  in
  let series =
    List.map
      (fun n ->
        let pack = lookup n in
        ( n,
          Runner.series pack
            ~make_doc:(fun () ->
              Docgen.generate ~seed { Docgen.default_shape with target_nodes = 30 })
            ~pattern:Updates.Skewed_before_first ~seed ~ops:1000 ~sample_every:200 ))
      names
  in
  let final_max n =
    match List.assoc_opt n series with
    | Some samples -> (List.nth samples (List.length samples - 1)).Runner.max_bits
    | None -> 0
  in
  let holds = final_max "Vector (prefix)" * 4 < final_max "QED" in
  let chart =
    Chart.plot ~title:"hot-label growth under 1000 skewed insertions" ~y_label:"bits"
      (List.map
         (fun (n, samples) ->
           (n, Array.of_list (List.map (fun s -> float_of_int s.Runner.max_bits) samples)))
         series)
  in
  {
    id = "CL5";
    claim = "vector labels grow far slower than QED under skewed insertion";
    table =
      buf_table
        (Printf.sprintf "%-16s %s" "Scheme" "max label bits after 0/200/.../1000 skewed inserts")
        (List.map
           (fun (n, samples) ->
             Printf.sprintf "%-16s %s" n
               (String.concat " "
                  (List.map (fun s -> Printf.sprintf "%6d" s.Runner.max_bits) samples)))
           series)
      ^ "\n" ^ chart;
    holds;
  }

(* ------------------------------------------------------------------ *)
(* CL6 — §3.1.2: LSDX "do[es] not always produce unique node labels".   *)
(* ------------------------------------------------------------------ *)

let cl6 () =
  let doc = Samples.abstract_tree [ 3 ] in
  let session = Core.Session.make (module Repro_schemes.Lsdx : Core.Scheme.S) doc in
  let c1 = List.nth (Tree.children (Tree.root doc)) 0 in
  let first = Option.get (Tree.first_child c1) in
  let m1 = session.Core.Session.insert_after first (Tree.elt "m1" []) in
  let m2 = session.Core.Session.insert_after first (Tree.elt "m2" []) in
  let l1 = session.Core.Session.label_string m1
  and l2 = session.Core.Session.label_string m2 in
  let holds = l1 = l2 && Core.Session.has_duplicate_labels session in
  {
    id = "CL6";
    claim = "LSDX produces duplicate labels on corner-case update sequences";
    table =
      Printf.sprintf
        "insert between b and c -> %s; insert between b and the new node -> %s (collision: %b)\n"
        l1 l2 holds;
    holds;
  }

(* ------------------------------------------------------------------ *)
(* CL8 — §5.1 Compact Encoding measurements for every scheme.           *)
(* ------------------------------------------------------------------ *)

let cl8 () =
  let rows =
    List.map
      (fun pack ->
        let m = Assay.compact_measure Assay.default pack in
        Printf.sprintf "%-18s %10.1f %10.1f %10d %12d" (Core.Scheme.name pack)
          m.Assay.initial_avg m.Assay.uniform_avg m.Assay.skewed_max m.Assay.skewed_relabelled)
      Repro_schemes.Registry.figure7
  in
  {
    id = "CL8";
    claim = "label storage under the three §5.1 update scenarios";
    table =
      buf_table
        (Printf.sprintf "%-18s %10s %10s %10s %12s" "Scheme" "init avg" "unif avg"
           "skew max" "relabelled")
        rows;
    holds = true;
  }

(* ------------------------------------------------------------------ *)
(* CL9 — §3.1.1 [Grust]: "the evaluation of a location step on a major
   XPath axis amounts to a rectangular region query in the pre/post
   labelled plane" — i.e., a labelled document answers axis steps far
   faster than a document scan, and the structural join of citation [1]
   beats the nested loop.                                               *)
(* ------------------------------------------------------------------ *)

let time_s f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Sub-millisecond calls are timed as the best of several: one call can
   lose its core to a neighbour mid-measurement. *)
let best_time_s f =
  let r, t = time_s f in
  let best = ref t in
  for _ = 2 to 7 do
    best := Float.min !best (snd (time_s f))
  done;
  (r, !best)

let cl9 () =
  let doc =
    Docgen.generate ~seed { Docgen.default_shape with target_nodes = 4000; max_depth = 10 }
  in
  let enc = Repro_encoding.Encoding.of_doc doc in
  let idx = Repro_encoding.Axis_index.build enc in
  let queries = [ "//item//field"; "//group/ancestor::*"; "//record/following-sibling::*" ] in
  let run evaluator = List.concat_map (fun q -> evaluator q) queries in
  let scan_res, scan_t = time_s (fun () -> run (Repro_encoding.Xpath.eval_scan enc)) in
  let idx_res, idx_t =
    time_s (fun () -> run (Repro_encoding.Xpath.eval_src (Repro_encoding.Axis_source.of_index idx)))
  in
  (* structural join vs nested loop on //item//field; both get their
     inputs built before the clock starts, and each side's best of
     several runs *)
  let src = Repro_encoding.Axis_source.of_index idx in
  let stream name = Repro_encoding.Rank_join.of_ranks src (src.ranks name) in
  let item_s = stream "item" and field_s = stream "field" in
  let join_res, join_t =
    best_time_s (fun () -> Repro_encoding.Rank_join.descendants ~ctx:item_s field_s)
  in
  let items = Repro_encoding.Axis_index.by_name idx "item" in
  let fields = Repro_encoding.Axis_index.by_name idx "field" in
  let contains (a : Repro_encoding.Encoding.row) (d : Repro_encoding.Encoding.row) =
    a.pre < d.pre && d.post < a.post
  in
  let nested_res, nested_t =
    best_time_s (fun () ->
        List.filter (fun d -> List.exists (fun a -> contains a d) items) fields)
  in
  let pres l = List.map (fun (r : Repro_encoding.Encoding.row) -> r.pre) l in
  let same l1 l2 = pres l1 = pres l2 in
  let holds =
    same scan_res idx_res && Array.to_list join_res.pre = pres nested_res && idx_t < scan_t
    && join_t <= nested_t
  in
  {
    id = "CL9";
    claim = "axis steps are region queries: indexed evaluation beats scanning";
    table =
      buf_table
        (Printf.sprintf "4000-node document; identical answers in every pair")
        [
          Printf.sprintf "three-axis query set : scan %.4fs  vs  region-query index %.4fs (%.0fx)"
            scan_t idx_t (scan_t /. Float.max idx_t 1e-9);
          Printf.sprintf "//item//field        : nested loop %.4fs  vs  structural join %.4fs (%.0fx), %d matches"
            nested_t join_t (nested_t /. Float.max join_t 1e-9)
            (Repro_encoding.Rank_join.length join_res);
        ];
    holds;
  }

(* ------------------------------------------------------------------ *)
(* CL10 — §3.1: the survey omits the schemes "that do not support the
   maintenance of document order under updates" [21, 4, 26]. The CKM
   bit-code labels of citation [4] are implemented faithfully; one
   insertion before an existing sibling breaks document order.          *)
(* ------------------------------------------------------------------ *)

let cl10 () =
  let rows =
    List.map
      (fun pack ->
        let doc = Repro_xml.Samples.figure3_tree () in
        let session = Core.Session.make pack doc in
        let ok_before = Core.Session.order_consistent ~all_pairs:true session in
        (* append-only updates keep order... *)
        Updates.run Updates.Append_only ~seed ~ops:20 session;
        let ok_appends = Core.Session.order_consistent ~all_pairs:true session in
        (* ...one insertion before the root's first child breaks it: the
           new node receives the parent's next unused code, which sorts
           after every existing sibling *)
        let first =
          Option.get (Repro_xml.Tree.first_child (Repro_xml.Tree.root doc))
        in
        ignore (session.Core.Session.insert_before first (Repro_xml.Tree.elt "grey" []));
        let ok_after = Core.Session.order_consistent ~all_pairs:true session in
        (Core.Scheme.name pack, ok_before, ok_appends, ok_after))
      Repro_schemes.Registry.omitted
  in
  {
    id = "CL10";
    claim = "the omitted schemes [4] lose document order on non-append insertion";
    table =
      buf_table
        (Printf.sprintf "%-14s %10s %10s %18s" "Scheme" "initial" "appends" "one before-first")
        (List.map
           (fun (n, a, b, c) ->
             Printf.sprintf "%-14s %10s %10s %18s" n
               (if a then "ordered" else "BROKEN")
               (if b then "ordered" else "BROKEN")
               (if c then "ordered" else "BROKEN"))
           rows);
    holds = List.for_all (fun (_, a, b, c) -> a && b && not c) rows;
  }

(* ------------------------------------------------------------------ *)
(* CL11 — §5.2 ingestion: streaming bulk load (every arrival an append)
   is linear for prefix schemes but quadratic for the containment
   family, whose every insertion renumbers the document — why bulk
   construction gets its own path.                                     *)
(* ------------------------------------------------------------------ *)

let cl11 () =
  let text size =
    Repro_xml.Serializer.frag_to_string
      (Docgen.generate_frag ~seed { Docgen.default_shape with target_nodes = size })
  in
  let small = text 400 and big = text 1600 in
  let rows =
    List.map
      (fun name ->
        let pack = Option.get (Repro_schemes.Registry.find name) in
        let t_of src = snd (time_s (fun () -> ignore (Repro_storage.Bulk_loader.load pack src))) in
        let t_small = t_of small and t_big = t_of big in
        (name, t_small, t_big, t_big /. Float.max t_small 1e-9))
      [ "XPath Accelerator"; "DeweyID"; "QED"; "Vector" ]
  in
  let ratio name = match List.find_opt (fun (n, _, _, _) -> n = name) rows with
    | Some (_, _, _, r) -> r
    | None -> 0.0
  in
  {
    id = "CL11";
    claim = "streaming ingestion: appends are linear for prefix schemes, quadratic for containment";
    table =
      buf_table
        (Printf.sprintf "%-18s %12s %12s %10s" "Scheme" "400 nodes" "1600 nodes" "scaling")
        (List.map
           (fun (n, a, b, r) -> Printf.sprintf "%-18s %10.4fs %10.4fs %9.1fx" n a b r)
           rows);
    (* 4x the input: linear schemes scale ~4x, the renumbering containment
       scheme super-linearly (~16x) *)
    holds = ratio "XPath Accelerator" > 2.0 *. ratio "QED";
  }

(* Every experiment seeds its own PRNGs and builds its own documents and
   sessions, so the pool can run them concurrently; results come back in
   this list's order either way. *)
let experiments = [ cl1; cl2; cl3; cl4; cl5; cl6; cl8; cl9; cl10; cl11 ]

let all ?(jobs = 1) () =
  if jobs <= 1 then List.map (fun f -> f ()) experiments
  else
    Repro_parallel.Pool.parallel_map_list
      (Repro_parallel.Pool.get ~jobs)
      (fun f -> f ())
      experiments

let render r =
  Printf.sprintf "%s — %s%s\n%s" r.id r.claim
    (if r.holds then " [holds]" else " [SHAPE VIOLATION]")
    r.table
