(* The benchmark harness: regenerates every figure and claim of the paper
   (see DESIGN.md's per-experiment index) and finishes with Bechamel
   micro-benchmarks of the per-scheme core operations.

   Usage: dune exec bench/main.exe              (everything)
          dune exec bench/main.exe -- figures   (one section)
          dune exec bench/main.exe -- matrix -j 4
          sections: figures, matrix, claims, parallel, hotpath, journal,
                    torture, server, query, nettorture, cluster, migrate,
                    micro

   [-j N | --jobs N] evaluates the matrix and claims sections on N domains
   (results are identical at any N). Machine-readable outputs:
   BENCH_matrix.json and BENCH_claims.json (per-section wall-clock and
   agreement) and BENCH_parallel.json (sequential vs parallel speedup
   curves), which are rewritten on every run and not committed — the
   gated performance benchmark is perfbench/, declared in BENCHMARK.json
   — then BENCH_hotpath.json (measurement-path
   kernel timings and allocation), BENCH_journal.json (append
   ops/sec and recovery ms per checkpoint interval, per scheme) and
   BENCH_torture.json (crash-consistency coverage: boundaries, images,
   recoveries, violations), BENCH_server.json (loopback server
   throughput and p50/p99 latency per op class under the seeded
   multi-client load generator), BENCH_nettorture.json (the same load
   over a seeded 5% drop / 5% delay network: zero client-visible errors
   plus the retry/reconnect/dedup counters that absorbed the faults) and
   BENCH_cluster.json (3-shard replicated cluster: routed throughput,
   replication lag p50/p99 and kill-to-first-request failover time) and
   BENCH_migrate.json (schema-migration storms per labelling scheme:
   blast radius per operator kind — nodes relabelled, label-size drift,
   journal bytes, index maintenance — oracle-replay agreement and
   standing-query survival). *)

open Repro_xml
open Repro_workload

let section title =
  Printf.printf "\n============================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "============================================================\n"

let write_json path json =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc json);
  Printf.printf "\nwrote %s\n" path

(* ------------------------------------------------------------------ *)
(* Figures 1-6                                                         *)
(* ------------------------------------------------------------------ *)

let run_figures () =
  section "Figures 1-6 — the paper's worked examples";
  List.iter
    (fun f -> print_endline (Repro_framework.Figures.render f))
    (Repro_framework.Figures.all ())

(* ------------------------------------------------------------------ *)
(* Figure 7                                                            *)
(* ------------------------------------------------------------------ *)

let time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

let run_matrix ~jobs () =
  section "Figure 7 — the evaluation framework (computed by assays)";
  let t, seconds = time (fun () -> Repro_framework.Matrix.compute ~jobs ()) in
  print_endline (Repro_framework.Matrix.render t);
  print_newline ();
  print_string (Repro_framework.Matrix.render_agreement t);
  print_newline ();
  print_endline "Evidence per cell:";
  print_string (Repro_framework.Matrix.render_evidence t);
  section "Figure 7 extension rows (schemes beyond the paper's matrix)";
  let ext =
    Repro_framework.Matrix.compute ~jobs ~schemes:Repro_schemes.Registry.extensions ()
  in
  print_endline (Repro_framework.Matrix.render ext);
  let agree, total, mismatches = Repro_framework.Matrix.agreement t in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\n  \"benchmark\": \"matrix\",\n  \"jobs\": %d,\n  \"seconds\": %.3f,\n\
       \  \"agree\": %d,\n  \"total\": %d,\n  \"mismatches\": [" jobs seconds agree
       total);
  List.iteri
    (fun i (scheme, p, got, want) ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf
        (Printf.sprintf
           "{\"scheme\": %S, \"property\": %S, \"computed\": %S, \"paper\": %S}" scheme
           (Repro_framework.Property.name p)
           (Repro_framework.Property.compliance_letter got)
           (Repro_framework.Property.compliance_letter want)))
    mismatches;
  Buffer.add_string buf "]\n}\n";
  write_json "BENCH_matrix.json" (Buffer.contents buf)

(* ------------------------------------------------------------------ *)
(* Claims CL1-CL11                                                     *)
(* ------------------------------------------------------------------ *)

let run_claims ~jobs () =
  section "Claims CL1-CL11 — the survey's qualitative claims, quantified";
  let results, seconds = time (fun () -> Repro_framework.Claims.all ~jobs ()) in
  List.iter (fun r -> print_endline (Repro_framework.Claims.render r)) results;
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\n  \"benchmark\": \"claims\",\n  \"jobs\": %d,\n  \"seconds\": %.3f,\n\
       \  \"claims\": [" jobs seconds);
  List.iteri
    (fun i (r : Repro_framework.Claims.result) ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf
        (Printf.sprintf "{\"id\": %S, \"holds\": %b}" r.id r.holds))
    results;
  Buffer.add_string buf "]\n}\n";
  write_json "BENCH_claims.json" (Buffer.contents buf)

(* ------------------------------------------------------------------ *)
(* Parallel runtime: sequential vs domain-pool wall-clock              *)
(* ------------------------------------------------------------------ *)

(* The first tracked perf trajectory of the repo: the matrix and the
   claims at j in {1, 2, 4, cores}, with the j=1 run as the speedup
   baseline. "identical" asserts the determinism contract — the parallel
   matrix renders to the same bytes as the sequential one, and the claim
   verdict list (ids in order) matches; CL9/CL11 embed wall-clock numbers
   in their tables, so claims are compared on ids, not bytes. *)

let parallel_job_counts () =
  let cores = Repro_parallel.Pool.cores () in
  List.sort_uniq compare [ 1; 2; 4; cores ]

type parallel_point = {
  pp_jobs : int;
  pp_seconds : float;
  pp_speedup : float;
  pp_identical : bool;
}

let parallel_sweep ~label ~render ~compute =
  let baseline = ref "" in
  let base_seconds = ref 0.0 in
  List.map
    (fun j ->
      let v, seconds = time (fun () -> compute ~jobs:j) in
      let rendered = render v in
      if j = 1 then begin
        baseline := rendered;
        base_seconds := seconds
      end;
      let p =
        {
          pp_jobs = j;
          pp_seconds = seconds;
          pp_speedup = (if seconds > 0.0 then !base_seconds /. seconds else 1.0);
          pp_identical = String.equal !baseline rendered;
        }
      in
      Printf.printf "%-8s j=%-3d %8.2fs  speedup %5.2fx  %s\n%!" label p.pp_jobs
        p.pp_seconds p.pp_speedup
        (if p.pp_identical then "output identical" else "OUTPUT DIVERGED");
      p)
    (parallel_job_counts ())

let parallel_point_json p =
  Printf.sprintf
    "{\"jobs\": %d, \"seconds\": %.3f, \"speedup\": %.3f, \"identical\": %b}" p.pp_jobs
    p.pp_seconds p.pp_speedup p.pp_identical

let run_parallel () =
  section "PARALLEL — domain-pool speedup for the matrix and the claims";
  Printf.printf "%d core(s) recommended by the runtime\n\n"
    (Repro_parallel.Pool.cores ());
  let matrix_points =
    parallel_sweep ~label:"matrix"
      ~render:Repro_framework.Matrix.render
      ~compute:(fun ~jobs -> Repro_framework.Matrix.compute ~jobs ())
  in
  let claims_points =
    parallel_sweep ~label:"claims"
      ~render:(fun rs ->
        String.concat ";"
          (List.map (fun (r : Repro_framework.Claims.result) -> r.id) rs))
      ~compute:(fun ~jobs -> Repro_framework.Claims.all ~jobs ())
  in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "{\n  \"benchmark\": \"parallel\",\n  \"cores\": %d,\n"
       (Repro_parallel.Pool.cores ()));
  Buffer.add_string buf "  \"matrix\": [";
  List.iteri
    (fun i p ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf (parallel_point_json p))
    matrix_points;
  Buffer.add_string buf "],\n  \"claims\": [";
  List.iteri
    (fun i p ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf (parallel_point_json p))
    claims_points;
  Buffer.add_string buf "]\n}\n";
  write_json "BENCH_parallel.json" (Buffer.contents buf)

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

type hot_kernel = {
  k_name : string;
  k_ops : int;
  k_seconds : float;
  k_ops_per_sec : float;
  k_alloc_mb : float;
}

(* Allocation is the kernel's drain on [Gc.allocated_bytes] (all
   minor-heap traffic, promoted or not). *)
let hot_run ~name ~ops f =
  let a0 = Gc.allocated_bytes () in
  let v, seconds = time f in
  let alloc = Gc.allocated_bytes () -. a0 in
  ( v,
    {
      k_name = name;
      k_ops = ops;
      k_seconds = seconds;
      k_ops_per_sec = (if seconds > 0.0 then float_of_int ops /. seconds else 0.0);
      k_alloc_mb = alloc /. 1048576.0;
    } )

(* Kernel 1 — dense workload sampling: a 600-op uniform-random workload
   over a 300-node base document, sampled after every operation. *)
let hotpath_sampling () =
  let ops = 600 in
  let pack = Option.get (Repro_schemes.Registry.find "QED") in
  snd
    (hot_run ~name:"workload-sampling" ~ops (fun () ->
         ignore
           (Runner.series pack
              ~make_doc:(fun () ->
                Docgen.generate ~seed:7 { Docgen.default_shape with target_nodes = 300 })
              ~pattern:Updates.Uniform_random ~seed:7 ~ops ~sample_every:1)))

(* Kernel 2 — the full sequential evaluation matrix, whose assays lean on
   the runner, the order check and the label cache. *)
let hotpath_matrix () =
  snd
    (hot_run ~name:"matrix-j1" ~ops:1 (fun () ->
         ignore (Repro_framework.Matrix.render (Repro_framework.Matrix.compute ~jobs:1 ()))))

(* Kernel 3 — the all-pairs order-consistency check over a grown document,
   repeated: cells of one materialised label array compared pairwise. *)
let hotpath_order () =
  let reps = 5 in
  let pack = Option.get (Repro_schemes.Registry.find "QED") in
  let doc = Docgen.generate ~seed:9 { Docgen.default_shape with target_nodes = 400 } in
  let session = Core.Session.make pack doc in
  Updates.run Updates.Uniform_random ~seed:9 ~ops:100 session;
  hot_run ~name:"order-check" ~ops:reps (fun () ->
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
  let sampling = hotpath_sampling () in
  let matrix = hotpath_matrix () in
  let order_ok, order = hotpath_order () in
  let kernels = [ sampling; matrix; order ] in
  List.iter
    (fun k ->
      Printf.printf "%-18s %7.3fs %8.1f MB\n%!" k.k_name k.k_seconds k.k_alloc_mb)
    kernels;
  Printf.printf "order check: %s\n" (if order_ok then "consistent" else "INCONSISTENT");
  let paranoid_schemes =
    try hotpath_paranoid ()
    with Invalid_argument msg ->
      prerr_endline ("hotpath: " ^ msg);
      exit 1
  in
  Printf.printf "\nparanoid cross-check: %d scheme(s), every sampled read verified\n"
    paranoid_schemes;
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"benchmark\": \"hotpath\",\n  \"kernels\": [\n";
  List.iteri
    (fun i k ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"kernel\": %S, \"ops\": %d, \"seconds\": %.4f, \"ops_per_sec\": %.2f, \
            \"allocated_mb\": %.2f}"
           k.k_name k.k_ops k.k_seconds k.k_ops_per_sec k.k_alloc_mb))
    kernels;
  Buffer.add_string buf
    (Printf.sprintf
       "\n  ],\n  \"order_consistent\": %b,\n  \"paranoid\": {\"ok\": true, \"schemes\": %d}\n}\n"
       order_ok paranoid_schemes);
  write_json "BENCH_hotpath.json" (Buffer.contents buf);
  if not order_ok then begin
    prerr_endline "hotpath: label order diverged from document order";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Durability: journal append throughput and recovery time             *)
(* ------------------------------------------------------------------ *)

(* The journal's two costs, per scheme: how fast updates can be made
   durable (append throughput, with and without per-record fsync), and
   how long a restart takes as a function of the checkpoint interval
   (recovery replays the log tail, so longer intervals mean longer
   replays). Machine-readable results go to BENCH_journal.json. *)

let journal_schemes = [ "QED"; "CDQS"; "Vector"; "ORDPATH" ]
let journal_append_ops = 1200
let journal_recovery_ops = 1500
let journal_checkpoint_intervals = [ 200; 600; 1800 ]

let with_journal_base f =
  let base = Filename.temp_file "xjbench" "" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        (base
        :: List.concat_map
             (fun e ->
               [
                 Repro_journal.Journal.snapshot_path ~base ~epoch:e;
                 Repro_journal.Journal.log_path ~base ~epoch:e;
               ])
             (List.init ((journal_recovery_ops / List.hd journal_checkpoint_intervals) + 2)
                (fun i -> i + 1))))
    (fun () -> f base)

let journal_doc seed =
  Docgen.generate ~seed { Docgen.default_shape with target_nodes = 300 }

type append_point = { a_fsync_every : int; a_ops : int; a_ops_per_sec : float }

type recovery_point = {
  p_interval : int;
  p_replayed : int;
  p_recover_ms : float;
  p_log_bytes : int;
}

let bench_append pack ~fsync_every =
  with_journal_base (fun base ->
      let session = Core.Session.make pack (journal_doc 31) in
      let d = Repro_journal.Durable_session.create ~fsync_every ~base session in
      let view = Repro_journal.Durable_session.session d in
      let driver = Updates.start Updates.Uniform_random ~seed:17 view in
      let (), seconds =
        time (fun () ->
            for _ = 1 to journal_append_ops do
              Updates.step driver
            done;
            Repro_journal.Durable_session.close d)
      in
      {
        a_fsync_every = fsync_every;
        a_ops = journal_append_ops;
        a_ops_per_sec = float_of_int journal_append_ops /. seconds;
      })

let bench_recovery pack ~interval =
  with_journal_base (fun base ->
      let session = Core.Session.make pack (journal_doc 32) in
      let d =
        Repro_journal.Durable_session.create ~fsync_every:64 ~checkpoint_every:interval
          ~base session
      in
      Updates.run Updates.Uniform_random ~seed:18 ~ops:journal_recovery_ops
        (Repro_journal.Durable_session.session d);
      Repro_journal.Durable_session.close d;
      let (t, _, r), seconds = time (fun () -> Repro_journal.Journal.recover ~base ()) in
      Repro_journal.Journal.close t;
      {
        p_interval = interval;
        p_replayed = r.Repro_journal.Journal.r_records;
        p_recover_ms = seconds *. 1000.0;
        p_log_bytes = r.Repro_journal.Journal.r_bytes;
      })

let journal_json results =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n  \"benchmark\": \"journal\",\n  \"schemes\": [\n";
  List.iteri
    (fun i (scheme, appends, recoveries) ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf (Printf.sprintf "    {\n      \"scheme\": %S,\n" scheme);
      Buffer.add_string buf "      \"append\": [";
      List.iteri
        (fun j a ->
          if j > 0 then Buffer.add_string buf ", ";
          Buffer.add_string buf
            (Printf.sprintf
               "{\"fsync_every\": %d, \"ops\": %d, \"ops_per_sec\": %.1f}"
               a.a_fsync_every a.a_ops a.a_ops_per_sec))
        appends;
      Buffer.add_string buf "],\n      \"recovery\": [";
      List.iteri
        (fun j p ->
          if j > 0 then Buffer.add_string buf ", ";
          Buffer.add_string buf
            (Printf.sprintf
               "{\"checkpoint_interval\": %d, \"replayed_records\": %d, \
                \"log_bytes\": %d, \"recover_ms\": %.2f}"
               p.p_interval p.p_replayed p.p_log_bytes p.p_recover_ms))
        recoveries;
      Buffer.add_string buf "]\n    }")
    results;
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf

let run_journal () =
  section "DURABILITY — journal append throughput and crash-recovery time";
  Printf.printf
    "%d update ops per append run; recovery replays the log tail left by a\n\
     %d-op run under each auto-checkpoint interval.\n\n"
    journal_append_ops journal_recovery_ops;
  let results =
    List.map
      (fun name ->
        let pack = Option.get (Repro_schemes.Registry.find name) in
        let appends =
          [ bench_append pack ~fsync_every:1; bench_append pack ~fsync_every:64 ]
        in
        List.iter
          (fun a ->
            Printf.printf "%-10s append  fsync-every=%-3d %10.0f ops/sec\n" name
              a.a_fsync_every a.a_ops_per_sec)
          appends;
        let recoveries =
          List.map (fun interval -> bench_recovery pack ~interval)
            journal_checkpoint_intervals
        in
        List.iter
          (fun p ->
            Printf.printf
              "%-10s recover checkpoint-every=%-4d %5d record(s) %10.2f ms\n" name
              p.p_interval p.p_replayed p.p_recover_ms)
          recoveries;
        (name, appends, recoveries))
      journal_schemes
  in
  write_json "BENCH_journal.json" (journal_json results)

(* ------------------------------------------------------------------ *)
(* Robustness: the crash-consistency torture harness                   *)
(* ------------------------------------------------------------------ *)

(* Not a speed benchmark: the numbers that matter are how much crash
   surface one run covers (boundaries crashed at, disk images recovered
   from) and that the violation count is zero. The wall-clock is recorded
   so coverage per second is trackable across revisions. *)

let torture_seeds = 3
let torture_ops = 120

let torture_json (report : Repro_torture.Torture.report) seconds =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"benchmark\": \"torture\",\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"seeds\": %d,\n  \"ops\": %d,\n" torture_seeds torture_ops);
  Buffer.add_string buf "  \"cases\": [\n";
  List.iteri
    (fun i (c : Repro_torture.Torture.case) ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"scheme\": %S, \"seed\": %d, \"crash_points\": %d, \"images\": %d, \
            \"recoveries\": %d, \"violations\": %d}"
           c.c_scheme c.c_seed c.c_boundaries c.c_images c.c_recoveries c.c_violations))
    report.Repro_torture.Torture.t_cases;
  Buffer.add_string buf
    (Printf.sprintf
       "\n  ],\n  \"crash_points\": %d,\n  \"images\": %d,\n  \"recoveries\": %d,\n\
       \  \"violations\": %d,\n  \"seconds\": %.2f\n}\n"
       report.Repro_torture.Torture.t_boundaries report.t_images report.t_recoveries
       (List.length report.t_violations)
       seconds);
  Buffer.contents buf

let run_torture () =
  section "ROBUSTNESS — crash-consistency torture coverage";
  Printf.printf
    "%d seeds x {QED, Vector}, %d ops per workload: power cut at every\n\
     mutating-syscall boundary, recovery machine-checked on every image.\n\n"
    torture_seeds torture_ops;
  let report, seconds =
    time (fun () ->
        Repro_torture.Torture.run ~seeds:torture_seeds ~ops:torture_ops
          ~progress:(fun c ->
            Printf.printf "%-8s seed %-2d %5d crash points %7d images %d violation(s)\n%!"
              c.Repro_torture.Torture.c_scheme c.c_seed c.c_boundaries c.c_images
              c.c_violations)
          ())
  in
  Printf.printf "\n%d recoveries verified in %.1f s: %d violation(s)\n"
    report.Repro_torture.Torture.t_recoveries seconds
    (List.length report.Repro_torture.Torture.t_violations);
  write_json "BENCH_torture.json" (torture_json report seconds);
  if report.Repro_torture.Torture.t_violations <> [] then exit 1

(* ------------------------------------------------------------------ *)
(* Network server: loopback throughput under the seeded load mix       *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      (try Sys.rmdir path with Sys_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Sys_error _ -> ()

(* The in-process server with its default configuration (event loops,
   flusher-owned durability) under the seeded loadgen mix. The root
   prefers tmpfs when the host has one so the section measures server +
   commit-protocol overhead rather than the device's fsync latency. The
   report — throughput and p50/p99 per op class, plus the scraped
   commit/loop gauges — goes to BENCH_server.json. *)
let run_server () =
  section "SERVER-GROUPCOMMIT — event-loop server, group commit";
  let base =
    let shm = "/dev/shm" in
    if (try Sys.is_directory shm with Sys_error _ -> false) then shm
    else Filename.get_temp_dir_name ()
  in
  let root = Filename.concat base (Printf.sprintf "xsrv-bench-gc-%d" (Unix.getpid ())) in
  rm_rf root;
  let t = Repro_server.Server.start (Repro_server.Server.default_config ~root) in
  let report =
    Fun.protect
      ~finally:(fun () -> ignore (Repro_server.Server.stop t))
      (fun () ->
        Repro_server.Loadgen.run
          {
            (Repro_server.Loadgen.default_config ~port:(Repro_server.Server.port t)) with
            Repro_server.Loadgen.g_clients = 4;
            g_ops = 20_000;
            g_seed = 1;
            g_nodes = 120;
            g_docs = 0;
          })
  in
  rm_rf root;
  Printf.printf "event loop, flusher-owned durability, root on %s:\n" base;
  print_string (Repro_server.Loadgen.render report);
  write_json "BENCH_server.json" (Repro_server.Loadgen.to_json report);
  if report.Repro_server.Loadgen.r_errors > 0 then exit 1

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
   across engines. BENCH_query.json; the run fails unless incremental
   beats rebuild-per-revision by at least 5x. *)
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
     serving speedup: %.1fx vs rebuild-per-revision, %.1fx vs scan (%d nodes, %d ops, %d%% queries)\n"
    st.E.Axis_inc.ops st.E.Axis_inc.renumbered maint_s vs_rebuild vs_scan nodes ops
    query_pct;
  write_json "BENCH_query.json"
    (Printf.sprintf
       "{\n\
       \  \"benchmark\": \"query\",\n\
       \  \"nodes\": %d,\n\
       \  \"ops\": %d,\n\
       \  \"query_pct\": %d,\n\
       \  \"incremental_s\": %.3f,\n\
       \  \"maintenance_s\": %.4f,\n\
       \  \"rebuild_per_revision_s\": %.3f,\n\
       \  \"scan_s\": %.3f,\n\
       \  \"scan_subsample\": 10,\n\
       \  \"speedup_vs_rebuild\": %.1f,\n\
       \  \"speedup_vs_scan\": %.1f,\n\
       \  \"maintenance_ops\": %d,\n\
       \  \"ranks_renumbered\": %d,\n\
       \  \"answer_disagreements\": %d\n\
        }\n"
       nodes ops query_pct inc_s maint_s rebuild_s scan_s vs_rebuild vs_scan
       st.E.Axis_inc.ops
       st.E.Axis_inc.renumbered !disagreements);
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
(* Server under a faulty network: retries hide a flaky 5% link         *)
(* ------------------------------------------------------------------ *)

(* The same seeded loadgen mix, but every worker dials through a Netsim
   wrap that drops 5% of data syscalls (ETIMEDOUT) and delays another 5%,
   with a per-request retry budget. Workers carry stable client
   identities, so every resend lands in the server's dedup window —
   the run must finish with zero client-visible errors, and the report's
   resilience counters (retries, reconnects, dedup hits) say what the
   retry layer absorbed to get there. BENCH_nettorture.json. *)
let run_nettorture () =
  section "NETTORTURE — loadgen over a seeded 5% drop / 5% delay network";
  let module L = Repro_server.Loadgen in
  let base =
    let shm = "/dev/shm" in
    if (try Sys.is_directory shm with Sys_error _ -> false) then shm
    else Filename.get_temp_dir_name ()
  in
  let root = Filename.concat base (Printf.sprintf "xsrv-bench-net-%d" (Unix.getpid ())) in
  rm_rf root;
  let t = Repro_server.Server.start (Repro_server.Server.default_config ~root) in
  let report =
    Fun.protect
      ~finally:(fun () -> ignore (Repro_server.Server.stop t))
      (fun () ->
        let ns, m = Repro_io.Netsim.wrap Repro_io.Io.unix_sock in
        Repro_io.Netsim.arm_mix ns ~seed:1 ~drop:0.05 ~delay:0.05 ();
        L.run
          {
            (L.default_config ~port:(Repro_server.Server.port t)) with
            L.g_clients = 4;
            g_ops = 8_000;
            g_seed = 1;
            g_nodes = 120;
            g_docs = 2;
            g_retries = 8;
            g_backoff = 0.01;
            g_sock = Repro_io.Io.pack_sock m;
          })
  in
  rm_rf root;
  print_string (L.render report);
  Printf.printf
    "\nabsorbed by the retry layer: %d retries, %d reconnects, %d dedup hits, %d sheds\n"
    report.L.r_retries report.L.r_reconnects report.L.r_dedup_hits report.L.r_overloaded;
  write_json "BENCH_nettorture.json" (L.to_json ~name:"nettorture" report);
  if report.L.r_errors > 0 then exit 1;
  if report.L.r_retries = 0 then begin
    (* a faulty-network drill where nothing ever failed did not test the
       retry layer — the wrap is not plumbed, or the mix is off *)
    Printf.printf "nettorture bench: fault mix injected nothing\n";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Cluster: sharded replication — throughput, lag, failover time       *)
(* ------------------------------------------------------------------ *)

(* A 3-shard, 1-replica-per-shard cluster, all six servers in-process:
   each primary ships every document's durable oplog to its replica, and
   the load generator routes per document through the shard map. While
   the load runs, a sampler thread polls every primary's [Stats] for the
   per-replica replication lag (durable-but-unacknowledged bytes). Once
   the load finishes and the lag drains, shard 0's primary is aborted —
   the in-process kill -9 — its replica is promoted, and the failover
   time is the span from the abort to the first successful request
   answered by the promoted primary. BENCH_cluster.json. *)
let run_cluster () =
  section "CLUSTER — 3-shard replication: throughput, lag, failover";
  let module S = Repro_server.Server in
  let module C = Repro_server.Server_client in
  let module P = Repro_server.Protocol in
  let module L = Repro_server.Loadgen in
  let module T = Repro_cluster.Topology in
  let n_shards = 3 and n_clients = 6 and n_ops = 6_000 in
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "xclu-bench-%d" (Unix.getpid ()))
  in
  let sub tag = Filename.concat root tag in
  let primaries =
    Array.init n_shards (fun i ->
        S.start (S.default_config ~root:(sub (Printf.sprintf "s%d" i))))
  in
  let replicas =
    Array.init n_shards (fun i ->
        S.start
          {
            (S.default_config ~root:(sub (Printf.sprintf "s%dr0" i))) with
            replica_of = Some ("127.0.0.1", S.port primaries.(i));
            replica_name = Printf.sprintf "s%dr0" i;
          })
  in
  let node_of srv = { T.n_host = "127.0.0.1"; n_port = S.port srv } in
  let topo =
    ref
      {
        T.version = 1;
        shards =
          Array.init n_shards (fun i ->
              { T.s_primary = node_of primaries.(i); s_replicas = [ node_of replicas.(i) ] });
      }
  in
  let docs = Array.init n_clients (fun i -> Printf.sprintf "doc-%d" i) in
  let shard_conns () =
    Array.map (fun s -> C.connect ~host:"127.0.0.1" ~port:s.T.s_primary.T.n_port ()) !topo.T.shards
  in
  (* Lag sampler: one thread, one connection per primary, ~100 Hz. *)
  let samples = ref [] in
  let sampling = Atomic.make true in
  let sampler =
    Thread.create
      (fun () ->
        let conns = shard_conns () in
        while Atomic.get sampling do
          Array.iter
            (fun doc ->
              match C.stats conns.(T.shard_of !topo doc) ~doc with
              | Ok (P.Stats_r st) ->
                  List.iter (fun (_, lag) -> samples := lag :: !samples) st.P.st_lag
              | _ -> ())
            docs;
          Thread.delay 0.01
        done;
        Array.iter C.close conns)
      ()
  in
  let aborted = ref [] in
  let finally () =
    Atomic.set sampling false;
    (try Thread.join sampler with _ -> ());
    Array.iter
      (fun s -> if not (List.memq s !aborted) then try ignore (S.stop s) with _ -> ())
      (Array.append primaries replicas);
    rm_rf root
  in
  Fun.protect ~finally (fun () ->
      let report =
        L.run
          {
            (L.default_config ~port:(S.port primaries.(0))) with
            L.g_clients = n_clients;
            g_ops = n_ops;
            g_seed = 1;
            g_nodes = 60;
            g_resolve =
              Some (fun doc -> let n = T.primary_for !topo doc in (n.T.n_host, n.T.n_port));
          }
      in
      print_string (L.render report);
      (* Let replication drain so the replica about to be promoted holds
         everything the clients were told is durable. *)
      let drain_t0 = Unix.gettimeofday () in
      let drained = ref false in
      let conns = shard_conns () in
      while (not !drained) && Unix.gettimeofday () -. drain_t0 < 30. do
        drained :=
          Array.for_all
            (fun doc ->
              match C.stats conns.(T.shard_of !topo doc) ~doc with
              | Ok (P.Stats_r st) ->
                  st.P.st_lag <> [] && List.for_all (fun (_, lag) -> lag = 0) st.P.st_lag
              | _ -> false)
            docs;
        if not !drained then Thread.delay 0.02
      done;
      Array.iter C.close conns;
      let drain_ms = (Unix.gettimeofday () -. drain_t0) *. 1_000. in
      Atomic.set sampling false;
      Thread.join sampler;
      Printf.printf "replication drained on %d shard(s) in %.0f ms: %s\n" n_shards drain_ms
        (if !drained then "yes" else "NO (30s timeout)");
      (* Failover: kill -9 shard 0's primary, promote its replica, and
         time until the promoted primary answers its first request. *)
      let t0 = Unix.gettimeofday () in
      S.abort primaries.(0);
      aborted := [ primaries.(0) ];
      let rc = C.connect ~host:"127.0.0.1" ~port:(S.port replicas.(0)) () in
      let followed =
        match C.docs rc with
        | Ok (P.Docs_r l) -> List.filter_map (fun (d, _, prim) -> if prim then None else Some d) l
        | _ -> []
      in
      List.iter (fun doc -> ignore (C.promote rc ~doc)) followed;
      topo :=
        {
          T.version = !topo.T.version + 1;
          shards =
            Array.mapi
              (fun i s ->
                if i = 0 then { T.s_primary = node_of replicas.(0); s_replicas = [] } else s)
              !topo.T.shards;
        };
      let served = ref false in
      (match followed with
      | [] -> ()
      | doc :: _ ->
          let deadline = t0 +. 10. in
          let rec first () =
            match C.stats rc ~doc with
            | Ok (P.Stats_r _) -> served := true
            | _ when Unix.gettimeofday () < deadline ->
                Thread.delay 0.002;
                first ()
            | _ -> ()
          in
          first ());
      let failover_ms = (Unix.gettimeofday () -. t0) *. 1_000. in
      C.close rc;
      Printf.printf
        "failover: promoted %d document(s) on shard 0, first request served in %.1f ms\n"
        (List.length followed) failover_ms;
      let lag = Array.of_list !samples in
      Array.sort compare lag;
      let pct p =
        if Array.length lag = 0 then 0
        else lag.(min (Array.length lag - 1) (int_of_float (p *. float (Array.length lag - 1))))
      in
      Printf.printf "replication lag (%d samples): p50=%d bytes, p99=%d bytes\n"
        (Array.length lag) (pct 0.5) (pct 0.99);
      let buf = Buffer.create 512 in
      Printf.bprintf buf "{\n  \"name\": \"cluster\",\n";
      Printf.bprintf buf "  \"shards\": %d,\n  \"replicas_per_shard\": 1,\n" n_shards;
      Printf.bprintf buf "  \"clients\": %d,\n  \"ops\": %d,\n" report.L.r_clients report.L.r_ops;
      Printf.bprintf buf "  \"errors\": %d,\n" report.L.r_errors;
      Printf.bprintf buf "  \"seconds\": %.3f,\n  \"ops_per_sec\": %.0f,\n" report.L.r_seconds
        report.L.r_ops_per_sec;
      Printf.bprintf buf "  \"lag_samples\": %d,\n" (Array.length lag);
      Printf.bprintf buf "  \"lag_p50_bytes\": %d,\n  \"lag_p99_bytes\": %d,\n" (pct 0.5)
        (pct 0.99);
      Printf.bprintf buf "  \"drained\": %b,\n  \"drain_ms\": %.0f,\n" !drained drain_ms;
      Printf.bprintf buf "  \"promoted_docs\": %d,\n" (List.length followed);
      Printf.bprintf buf "  \"promoted_serves\": %b,\n" !served;
      Printf.bprintf buf "  \"failover_ms\": %.1f\n}\n" failover_ms;
      write_json "BENCH_cluster.json" (Buffer.contents buf);
      if report.L.r_errors > 0 || not !served then exit 1)

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

(* ------------------------------------------------------------------ *)
(* Schema migration                                                    *)
(* ------------------------------------------------------------------ *)

let run_migrate () =
  section "MIGRATE — schema-migration blast radius and standing-query survival";
  let module M = Repro_migrate.Mig_run in
  let cfg = { M.default_config with M.seed = 42 } in
  let packs = Repro_schemes.Registry.well_behaved in
  let rows, seconds = time (fun () -> M.run cfg packs) in
  M.render Format.std_formatter cfg rows;
  Format.pp_print_flush Format.std_formatter ();
  Printf.printf "\n%d scheme(s) in %.2fs\n" (List.length rows) seconds;
  let disagreements = M.total_disagreements rows in
  if disagreements > 0 then
    Printf.printf "ORACLE DISAGREEMENTS: %d (compiled plans diverged from replay)\n"
      disagreements;
  let mismatches = M.total_mismatches rows in
  if mismatches > 0 then
    Printf.printf "SURVIVAL MISMATCHES: %d (kept answers differ from re-evaluation)\n" mismatches;
  write_json "BENCH_migrate.json" (M.to_json cfg rows)

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

let () =
  (* argv = zero or more section names, plus an optional [-j N | --jobs N]
     applying to the matrix and claims sections. No section names = all. *)
  let jobs = ref 1 in
  let sections = ref [] in
  let rec parse = function
    | [] -> ()
    | ("-j" | "--jobs") :: n :: rest ->
      (match int_of_string_opt n with
      | Some j when j >= 1 -> jobs := j
      | _ ->
        prerr_endline "bench: -j expects a positive integer";
        exit 2);
      parse rest
    | ("-j" | "--jobs") :: [] ->
      prerr_endline "bench: -j expects a positive integer";
      exit 2
    | s :: rest ->
      sections := s :: !sections;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let want s = !sections = [] || List.mem s !sections in
  Printf.printf
    "Reproduction harness for \"Desirable Properties for XML Update Mechanisms\"\n\
     (O'Connor & Roantree, EDBT 2010 workshops). All workloads are seeded and\n\
     deterministic; see DESIGN.md for the experiment index.\n";
  if want "figures" then run_figures ();
  if want "matrix" then run_matrix ~jobs:!jobs ();
  if want "claims" then run_claims ~jobs:!jobs ();
  if want "parallel" then run_parallel ();
  if want "hotpath" then run_hotpath ();
  if want "journal" then run_journal ();
  if want "torture" then run_torture ();
  if want "server" then run_server ();
  if want "query" then run_query ();
  if want "nettorture" then run_nettorture ();
  if want "cluster" then run_cluster ();
  if want "migrate" then run_migrate ();
  if want "micro" then run_micro ()
