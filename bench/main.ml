(* The benchmark harness for what no [xmlrepro] command or tier-1 test
   runs. Three sections, each printing to stdout and failing through its
   exit code; none writes a file:

   - hotpath: timings of the incremental measurement path, then the
     label-order check and a paranoid statistics sweep over every
     registered scheme (part of [make check]);
   - query: the incremental axis index raced against rebuild-per-revision
     and scan evaluation on one seeded 95/5 query/mutation stream; fails
     on any answer disagreement or on a speedup below 5x over rebuild;
   - micro: Bechamel micro-benchmarks of the per-scheme core operations.

   Usage: dune exec bench/main.exe              (all three)
          dune exec bench/main.exe -- hotpath   (one or more sections)

   The paper's figures, matrix and claims are [xmlrepro report]; the
   torture, failover, loadgen, nettorture, cluster and migrate commands
   check their own verdicts (see DESIGN.md's per-experiment index). The
   gated performance benchmark is perfbench/, declared in BENCHMARK.json. *)

open Repro_xml
open Repro_workload

let section title =
  Printf.printf "\n============================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "============================================================\n"

(* ------------------------------------------------------------------ *)
(* Hot path: the incremental measurement path                          *)
(* ------------------------------------------------------------------ *)

(* Timings of the measurement path: incrementally tracked statistics,
   the materialised-label order check and the snapshot node pickers.
   That these agree with the O(n)-per-sample forms they replaced is a
   tier-1 verdict (test_session_stats, test_workload and test_algebra
   hold each one against a test-local reference). Here the order check must
   pass, and a closing paranoid sweep re-derives the tracked counters
   from a full recomputation at every statistics read for every
   registered scheme. *)

(* Runs one kernel and prints its wall-clock and allocation, the
   kernel's drain on [Gc.allocated_bytes] (all minor-heap traffic,
   promoted or not). *)
let hot_run name f =
  let a0 = Gc.allocated_bytes () and t0 = Unix.gettimeofday () in
  let v = f () in
  Printf.printf "%-18s %7.3fs %8.1f MB\n%!" name
    (Unix.gettimeofday () -. t0)
    ((Gc.allocated_bytes () -. a0) /. 1048576.0);
  v

(* Kernel 1 — dense workload sampling: a 600-op uniform-random workload
   over a 300-node base document, sampled after every operation. *)
let hotpath_sampling () =
  let ops = 600 in
  let pack = Option.get (Repro_schemes.Registry.find "QED") in
  hot_run "workload-sampling" (fun () ->
      ignore
        (Runner.series pack
           ~make_doc:(fun () ->
             Docgen.generate ~seed:7 { Docgen.default_shape with target_nodes = 300 })
           ~pattern:Updates.Uniform_random ~seed:7 ~ops ~sample_every:1))

(* Kernel 2 — the full sequential evaluation matrix, whose assays lean on
   the runner, the order check and the label cache. *)
let hotpath_matrix () =
  hot_run "matrix-j1" (fun () ->
      ignore (Repro_framework.Matrix.render (Repro_framework.Matrix.compute ~jobs:1 ())))

(* Kernel 3 — the all-pairs order-consistency check over a grown document,
   repeated: cells of one materialised label array compared pairwise. *)
let hotpath_order () =
  let reps = 5 in
  let pack = Option.get (Repro_schemes.Registry.find "QED") in
  let doc = Docgen.generate ~seed:9 { Docgen.default_shape with target_nodes = 400 } in
  let session = Core.Session.make pack doc in
  Updates.run Updates.Uniform_random ~seed:9 ~ops:100 session;
  hot_run "order-check" (fun () ->
      let ok = ref true in
      for _ = 1 to reps do
        ok := !ok && Core.Session.order_consistent ~all_pairs:true session
      done;
      !ok)

(* Mixed inserts and deletes under every registered scheme with the
   cross-check on: each sampled read compares the tracked counters against
   a full recomputation and raises on the first divergence. *)
let hotpath_paranoid () =
  Core.Session.paranoid := true;
  Fun.protect
    ~finally:(fun () -> Core.Session.paranoid := false)
    (fun () ->
      List.iter
        (fun pack ->
          let doc =
            Docgen.generate ~seed:11 { Docgen.default_shape with target_nodes = 60 }
          in
          let session = Core.Session.make pack doc in
          let driver = Updates.start Updates.Mixed_with_deletes ~seed:11 session in
          for i = 1 to 120 do
            Updates.step driver;
            if i mod 10 = 0 then ignore (Core.Session.avg_bits session)
          done;
          ignore (Core.Session.max_bits session);
          ignore (Core.Session.total_bits session))
        Repro_schemes.Registry.all;
      List.length Repro_schemes.Registry.all)

let run_hotpath () =
  section "HOT PATH — the incremental measurement path";
  Printf.printf
    "Allocation is the kernel's Gc.allocated_bytes drain. Agreement with the\n\
     O(n)-per-sample reference forms is checked by the tier-1 tests.\n\n";
  hotpath_sampling ();
  hotpath_matrix ();
  let order_ok = hotpath_order () in
  Printf.printf "order check: %s\n" (if order_ok then "consistent" else "INCONSISTENT");
  let paranoid_schemes =
    try hotpath_paranoid ()
    with Invalid_argument msg ->
      prerr_endline ("hotpath: " ^ msg);
      exit 1
  in
  Printf.printf "\nparanoid cross-check: %d scheme(s), every sampled read verified\n"
    paranoid_schemes;
  if not order_ok then begin
    prerr_endline "hotpath: label order diverged from document order";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Query serving: incremental index vs rebuild-per-revision vs scan    *)
(* ------------------------------------------------------------------ *)

(* The §3.1.1 region-query claim made operational under updates: one
   seeded 95/5 query/mutation stream — the canonical web-traffic ratio —
   over a 30k-node document, replayed identically against three engines.
   The query pool is point reads on a sparse "needle" vocabulary planted
   through the document, the shape index-served traffic actually has; the
   generator's own names each occur ~n/12 times, so a broad //name scan
   would measure answer materialisation, not index maintenance.

   The incremental engine pays O(log n) maintenance per mutation and
   answers from persistent-map snapshots; the rebuild-per-revision engine
   re-encodes and re-indexes the document the first time each new
   revision is queried (what serving the batch Axis_index over the wire
   would cost); the scan engine answers every query by predicate scans
   over a per-revision re-encoding — quadratic per step, so it serves a
   1-in-10 subsample and its query time is extrapolated. All three run
   identical mutation sequences; per-query answer row counts are compared
   across engines; the run fails on any disagreement, or unless
   incremental beats rebuild-per-revision by at least 5x. *)
let run_query () =
  section "QUERY — incremental axis index vs rebuild-per-revision vs scan";
  let module E = Repro_encoding in
  let nodes = 30_000 and ops = 2_000 and query_pct = 95 and seed = 11 in
  let queries =
    [|
      "//needle";
      "//needle[@tag = 't3']";
      "//needle/@tag";
      "//needle[@tag]";
      "//needle/ancestor::section";
      "/*/*";
      "//needle/parent::*";
      "//needle[count(@tag) > 0]";
    |]
  in
  let parsed = Array.map E.Xpath.parse queries in
  (* the scan baseline gets the collapsed form too — the as-written
     '//' expansion would make each step quadratic in the document *)
  let scan_parsed = Array.map E.Xpath.collapse parsed in
  (* one seeded plan shared by every engine: Some qi = serve query qi,
     None = apply the next workload mutation *)
  let plan =
    let rng = Repro_codes.Prng.create seed in
    Array.init ops (fun _ ->
        if Repro_codes.Prng.int rng 100 < query_pct then
          Some (Repro_codes.Prng.int rng (Array.length queries))
        else None)
  in
  let mk_doc () =
    let doc = Docgen.generate ~seed { Docgen.default_shape with target_nodes = nodes } in
    (* plant the sparse vocabulary: one needle child under every 150th
       element, deterministically, before any engine builds its index *)
    let i = ref 0 in
    let hosts =
      Tree.fold_preorder
        (fun acc n ->
          incr i;
          if !i mod 300 = 0 && n.Tree.kind = Tree.Element then n :: acc else acc)
        [] doc
    in
    List.iteri
      (fun j n ->
        ignore
          (Tree.insert_last_child doc n
             (Tree.elt "needle" [ Tree.attr "tag" (Printf.sprintf "t%d" (j mod 7)) ])))
      hosts;
    doc
  in
  (* subsample = serve every [sub]-th query (mutations always run).
     Returns the engine's query-serving seconds (extrapolated by [sub]),
     the raw mutation-application seconds — identical work in every
     engine, reported but excluded from the serving comparison — and the
     per-op answer row counts (-1 = mutation or skipped). *)
  let race name sub mk_engine =
    let doc = mk_doc () in
    let pack = Option.get (Repro_schemes.Registry.find "QED") in
    let session = Core.Session.make pack doc in
    let d = Updates.start Updates.Mixed_with_deletes ~seed session in
    let query, cleanup = mk_engine doc in
    let counts = Array.make ops (-1) in
    let q_s = ref 0.0 and m_s = ref 0.0 and served = ref 0 and qi_seen = ref 0 in
    Array.iteri
      (fun i op ->
        match op with
        | Some qi ->
          incr qi_seen;
          if !qi_seen mod sub = 0 then begin
            let t0 = Unix.gettimeofday () in
            counts.(i) <- List.length (query qi);
            q_s := !q_s +. (Unix.gettimeofday () -. t0);
            incr served
          end
        | None ->
          let t0 = Unix.gettimeofday () in
          Updates.step d;
          m_s := !m_s +. (Unix.gettimeofday () -. t0))
      plan;
    cleanup ();
    let serving = !q_s *. float_of_int sub in
    Printf.printf "  %-22s %8.3fs serving%s  (%d queries served, %.3fs mutations)\n%!" name
      serving
      (if sub > 1 then " (extrapolated)" else "")
      !served !m_s;
    (serving, counts)
  in
  let inc_stats = ref None in
  let inc_s, inc_counts =
    race "incremental" 1 (fun doc ->
        let clock () = Int64.of_float (Unix.gettimeofday () *. 1e9) in
        let inc = E.Axis_inc.create ~clock doc in
        ( (fun qi ->
            E.Xpath.eval_src_ast (E.Axis_inc.source (E.Axis_inc.snapshot inc)) parsed.(qi)),
          fun () ->
            inc_stats := Some (E.Axis_inc.stats inc);
            E.Axis_inc.detach inc ))
  in
  let rebuild_s, rebuild_counts =
    race "rebuild-per-revision" 1 (fun doc ->
        let cache = ref None in
        ( (fun qi ->
            let rev = Tree.revision doc in
            let src =
              match !cache with
              | Some (r, src) when r = rev -> src
              | _ ->
                let src = E.Axis_source.of_index (E.Axis_index.build (E.Encoding.of_doc doc)) in
                cache := Some (rev, src);
                src
            in
            E.Xpath.eval_src_ast src parsed.(qi)),
          ignore ))
  in
  let scan_s, scan_counts =
    race "scan" 10 (fun doc ->
        let cache = ref None in
        ( (fun qi ->
            let rev = Tree.revision doc in
            let enc =
              match !cache with
              | Some (r, enc) when r = rev -> enc
              | _ ->
                let enc = E.Encoding.of_doc doc in
                cache := Some (rev, enc);
                enc
            in
            E.Xpath.eval_scan_ast enc scan_parsed.(qi)),
          ignore ))
  in
  let disagreements = ref 0 in
  Array.iteri
    (fun i c ->
      if c >= 0 && c <> rebuild_counts.(i) then incr disagreements;
      if scan_counts.(i) >= 0 && c >= 0 && scan_counts.(i) <> c then incr disagreements)
    inc_counts;
  let st = Option.get !inc_stats in
  (* the incremental side pays its index maintenance (priced by the
     observer's clock) on top of evaluation; rebuilds are inside the
     rebuild engine's serving time already *)
  let maint_s = Int64.to_float st.E.Axis_inc.ns /. 1e9 in
  let inc_s = inc_s +. maint_s in
  let vs_rebuild = rebuild_s /. inc_s and vs_scan = scan_s /. inc_s in
  Printf.printf
    "\nincremental maintenance: %d mutations folded in, %d ranks renumbered, %.4fs\n\
     serving speedup: %.1fx vs rebuild-per-revision, %.1fx vs scan (%d nodes, %d ops, %d%% queries)\n\
     answer disagreements between engines: %d\n"
    st.E.Axis_inc.ops st.E.Axis_inc.renumbered maint_s vs_rebuild vs_scan nodes ops
    query_pct !disagreements;
  if !disagreements > 0 then begin
    Printf.printf "FAIL: %d per-query answer disagreements between engines\n" !disagreements;
    exit 1
  end;
  if vs_rebuild < 5.0 then begin
    Printf.printf "FAIL: incremental only %.1fx over rebuild-per-revision (need >= 5x)\n"
      vs_rebuild;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks (Bechamel)                                         *)
(* ------------------------------------------------------------------ *)

let bench_doc =
  lazy (Docgen.generate_frag ~seed:4 { Docgen.default_shape with target_nodes = 150 })

let micro_tests () =
  let open Bechamel in
  let schemes =
    [ "XPath Accelerator"; "DeweyID"; "ORDPATH"; "ImprovedBinary"; "QED"; "CDQS"; "Vector";
      "Prime"; "DDE" ]
  in
  let per_scheme name =
    let pack = Option.get (Repro_schemes.Registry.find name) in
    let initial =
      Test.make
        ~name:(Printf.sprintf "initial-labelling/%s" name)
        (Staged.stage (fun () ->
             let doc = Tree.create (Lazy.force bench_doc) in
             ignore (Core.Session.make pack doc)))
    in
    (* One prepared session per measurement family; the insertion bench
       appends under a rotating parent so list costs stay stable. *)
    let session =
      let doc = Tree.create (Lazy.force bench_doc) in
      Core.Session.make pack doc
    in
    let parents =
      Array.of_list
        (List.filter
           (fun (n : Tree.node) -> n.Tree.kind = Tree.Element)
           (Tree.preorder session.Core.Session.doc))
    in
    let cursor = ref 0 in
    let insertion =
      Test.make
        ~name:(Printf.sprintf "insert-last/%s" name)
        (Staged.stage (fun () ->
             let parent = parents.(!cursor mod Array.length parents) in
             incr cursor;
             ignore (session.Core.Session.insert_last parent (Tree.elt "b" []))))
    in
    (* Read benches get their own untouched session: the insertion bench
       above grows its document by tens of thousands of nodes. *)
    let session =
      let doc = Tree.create (Lazy.force bench_doc) in
      Core.Session.make pack doc
    in
    let nodes = Array.of_list (Tree.preorder session.Core.Session.doc) in
    let i = ref 0 in
    let order =
      Test.make
        ~name:(Printf.sprintf "order-compare/%s" name)
        (Staged.stage (fun () ->
             let a = nodes.(!i mod Array.length nodes)
             and b = nodes.(!i * 7 mod Array.length nodes) in
             incr i;
             ignore (session.Core.Session.order a b)))
    in
    let ancestor =
      match session.Core.Session.is_ancestor with
      | None -> []
      | Some anc ->
        [
          Test.make
            ~name:(Printf.sprintf "ancestor-test/%s" name)
            (Staged.stage (fun () ->
                 let a = nodes.(!i mod Array.length nodes)
                 and b = nodes.(!i * 11 mod Array.length nodes) in
                 incr i;
                 ignore (anc a b)));
        ]
    in
    [ initial; insertion; order ] @ ancestor
  in
  List.concat_map per_scheme schemes

let run_micro () =
  section "TIME — Bechamel micro-benchmarks (ns per operation)";
  let open Bechamel in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:None () in
  let results = Hashtbl.create 64 in
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let b = Benchmark.run cfg [ instance ] elt in
          Hashtbl.replace results (Test.Elt.name elt) b)
        (Test.elements test))
    (micro_tests ());
  let analyzed = Analyze.all ols instance results in
  let names = Hashtbl.fold (fun k _ acc -> k :: acc) analyzed [] in
  List.iter
    (fun name ->
      match Analyze.OLS.estimates (Hashtbl.find analyzed name) with
      | Some (ns :: _) -> Printf.printf "%-40s %12.1f ns/op\n" name ns
      | _ -> Printf.printf "%-40s (no estimate)\n" name)
    (List.sort String.compare names)

(* ------------------------------------------------------------------ *)

let sections = [ ("hotpath", run_hotpath); ("query", run_query); ("micro", run_micro) ]

let () =
  (* argv = zero or more section names; none = all three, in order *)
  let wanted = List.tl (Array.to_list Sys.argv) in
  List.iter
    (fun s ->
      if not (List.mem_assoc s sections) then begin
        Printf.eprintf "bench: unknown section %S (sections: %s)\n" s
          (String.concat ", " (List.map fst sections));
        exit 2
      end)
    wanted;
  Printf.printf
    "Reproduction harness for \"Desirable Properties for XML Update Mechanisms\"\n\
     (O'Connor & Roantree, EDBT 2010 workshops). All workloads are seeded and\n\
     deterministic; see DESIGN.md for the experiment index.\n";
  List.iter (fun (s, run) -> if wanted = [] || List.mem s wanted then run ()) sections
