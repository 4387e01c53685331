(* The server benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              --root DIR --out DIR [--provenance JSON]

   --trace 0: the measured run alone; the result line carries the
   end-to-end metrics. --trace 1: the measured run, then the replay of
   the same workload with spans on, taking turns round by round with the
   same replay with spans off; the result line carries the per-layer
   metrics.

   [--root] is a fresh directory for the run's journals, removed by the
   caller; [--out] receives the full result and the kept spans. The last
   line of standard output is the result object. A failed check exits 1
   after naming the check. *)

open Stat
module P = Repro_server.Protocol
module Axis_inc = Repro_encoding.Axis_inc
module M = Measured

let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1 --root DIR --out DIR"

(* ---- the measured run's figures ------------------------------------- *)

let group_latencies (r : M.result) group =
  let xs =
    List.concat_map
      (fun (cls, a) -> if Gen.group_of_class cls = group then Array.to_list a else [])
      r.M.lat
  in
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let all_latencies (r : M.result) =
  let a = Array.concat (List.map snd r.M.lat) in
  Array.sort compare a;
  a

(* A p99 is only reported from at least this many samples. *)
let p99_min_samples = 1000

let mean_us = M.mean_us

(* Each figure is the median over the window's rounds, so a stretch of
   the window slowed by something outside the program moves it only when
   it covers half the rounds. Latency is the rounds' mean: on a shared
   two-core host the median of a sub-millisecond round trip follows the
   host's wake-up latency more than the program (ten-seed quartile
   spreads of 0.2 to 0.6 of the median on write-large), while the mean,
   which also carries the stalls behind queries and migrations that
   users wait for, stays within the bound. *)
let round_median f (r : M.result) =
  median_float (List.filter (fun x -> not (Float.is_nan x)) (List.map f r.M.rounds))

let round_throughput (rd : M.round) = float_of_int rd.M.rd_requests /. rd.M.rd_s

let end_to_end (r : M.result) =
  [
    metric "throughput_ops_s" "1/s" (round_median round_throughput r);
    metric "update_mean_us" "us" (round_median (fun rd -> rd.M.rd_update_mean_us) r);
    metric "latency_mean_us" "us" (round_median (fun rd -> rd.M.rd_mean_us) r);
    metric "setup_s" "s" r.M.setup_s;
  ]

(* Figures a workload produces only when it has the request classes, or
   that spread too widely from run to run to gate a change (p50s, see
   above; tails set by a few migrations or renumbers per window; recovery
   time): printed and saved, not part of the result line. p50 and p99
   here are over every request of the window. *)
let class_figures (r : M.result) =
  let group name g =
    let a = group_latencies r g in
    let n = Array.length a in
    if n = 0 then []
    else
      metric (name ^ "_p50_us") "us" (percentile a 0.5 /. 1e3)
      :: metric (name ^ "_samples") "count" (float_of_int n)
      :: (if n >= p99_min_samples then [ metric (name ^ "_p99_us") "us" (percentile a 0.99 /. 1e3) ]
          else [])
  in
  let all = all_latencies r in
  group "update" Gen.Update
  @ group "read" Gen.Read
  @ [
      metric "latency_p99_us" "us" (percentile all 0.99 /. 1e3);
      metric "recover_s" "s" r.M.recover_s;
      metric "failed_frac" "ratio" (ratio r.M.failed (max 1 r.M.attempted));
    ]

let class_table (r : M.result) =
  String.concat ""
    (List.map
       (fun (cls, a) ->
         let n = Array.length a in
         Printf.sprintf "  %-11s %7d  p50 %10.1f us  p99 %s  mean %10.1f us\n" cls n
           (percentile a 0.5 /. 1e3)
           (if n >= p99_min_samples then Printf.sprintf "%10.1f us" (percentile a 0.99 /. 1e3)
            else "       n/a   ")
           (mean_us a))
       r.M.lat)

(* Server-side figures from the Metrics reply after the window. Counters
   are differenced against the scrape taken when the window opened. *)
let server_figures (r : M.result) =
  let b = r.M.server_before and a = r.M.server_after in
  let dcount k = M.m_count a k - M.m_count b k in
  let dtotal k = M.m_total a k - M.m_total b k in
  let gauge k = Option.value (M.m_gauge a k) ~default:0 in
  let service cls =
    let n = dcount ("req/" ^ cls) in
    if n = 0 then nan else us_of_ns (dtotal ("req/" ^ cls)) /. float_of_int n
  in
  let loops =
    Hashtbl.fold
      (fun k (m : P.metric) acc ->
        if String.starts_with ~prefix:"loop/" k && String.ends_with ~suffix:"/util_pct" k then
          float_of_int m.P.m_total_ns :: acc
        else acc)
      a []
  in
  let flushes = dcount "commit/flush" in
  let acked = dcount "req/update" + dcount "req/migrate" in
  let universal =
    [
      metric "server.update_service_us" "us" (service "update");
      metric "commit.flushes" "count" (float_of_int flushes);
      metric "commit.batch_p50" "count" (float_of_int (gauge "commit/batch_p50"));
      metric "commit.batch_p99" "count" (float_of_int (gauge "commit/batch_p99"));
      metric "commit.flush_us_p99" "us" (float_of_int (gauge "commit/flush_us_p99"));
      metric "commit.replies_per_flush" "ratio" (ratio acked flushes);
      metric "loop.util_pct" "%" (mean_float loops);
      metric "client.retries" "count" (float_of_int r.M.retries);
      metric "journal.recover_ms" "ms" (r.M.recover_s *. 1e3);
      metric "recover.records_replayed" "count" (float_of_int r.M.records_replayed);
    ]
  in
  let per_class =
    List.filter_map
      (fun cls ->
        let v = service cls in
        if Float.is_nan v then None else Some (metric ("server.service_us." ^ cls) "us" v))
      [ "update"; "migrate"; "query"; "stats"; "labels"; "checkpoint"; "xpath"; "twig" ]
  in
  let specific =
    (if dcount "query/eval" > 0 then
       [
         metric "query.pub_age_us" "us" (float_of_int (gauge "query/pub_age_us"));
         metric "query.rev_lag" "count" (float_of_int (gauge "query/rev_lag"));
       ]
     else [])
    @
    if dcount "req/migrate" > 0 then
      [
        metric "migrate.relabelled" "count"
          (float_of_int (M.m_total a "migrate/relabelled" - M.m_total b "migrate/relabelled"));
        metric "migrate.journal_bytes" "bytes"
          (float_of_int (M.m_total a "migrate/journal_bytes" - M.m_total b "migrate/journal_bytes"));
      ]
    else []
  in
  (universal, per_class @ specific)

(* ---- the traced replay's figures ------------------------------------ *)

let per op total count = if count = 0 then nan else op total /. float_of_int count
let per_us = per (fun ns -> ns /. 1e3)
let per_ms = per (fun ns -> ns /. 1e6)
let per_unit = per Fun.id

let replay_figures (w : Gen.workload) (r : M.result) (on : Replay.runner) ~overhead =
  let t = on.Replay.t in
  let tr = t.Replay.tr and k = t.Replay.k in
  let self name = float_of_int (Trace.self_ns tr name) in
  let incl name = float_of_int (Trace.incl_ns tr name) in
  let cnt name = Trace.count tr name in
  let us_per name = per_us (self name) (cnt name) in
  let reqs = k.Replay.requests in
  let axis =
    Hashtbl.fold
      (fun _ (d : Replay.doc) (ops, ren, ns) ->
        let s = Axis_inc.stats d.Replay.inc in
        (ops + s.Axis_inc.ops, ren + s.Axis_inc.renumbered, Int64.add ns s.Axis_inc.ns))
      t.Replay.docs (0, 0, 0L)
  in
  let ax_ops, ax_ren, ax_ns = axis in
  let bits_max =
    Hashtbl.fold
      (fun _ (d : Replay.doc) acc -> max acc (Core.Session.max_bits d.Replay.session))
      t.Replay.docs 0
  in
  let snapshot_bytes =
    Hashtbl.fold
      (fun _ (d : Replay.doc) acc ->
        acc + String.length (Repro_journal.Journal.snapshot_bytes d.Replay.journal))
      t.Replay.docs 0
  in
  (* the client's mean round trip less the mean layer sum: sockets, loop
     queueing, commit wait and send *)
  let residual g reqs ns =
    if reqs = 0 then nan else mean_us (group_latencies r g) -. (us_of_ns ns /. float_of_int reqs)
  in
  (* per set-up of the workload's documents; fresh-document rounds set up
     once per round *)
  let setup name = per_ms (incl name *. float_of_int (Array.length w.Gen.w_docs)) (cnt name) in
  let universal =
    [
      metric "wire.us_per_req" "us" (per_us (self "wire.frame" +. self "wire.unframe") reqs);
      metric "wire.bytes_per_req" "bytes" (per_unit (float_of_int k.Replay.wire_bytes) reqs);
      metric "protocol.codec_us" "us"
        (per_us
           (self "protocol.encode_req" +. self "protocol.decode_req" +. self "protocol.encode_resp"
          +. self "protocol.decode_resp")
           reqs);
      metric "resolver.resolve_us" "us" (us_per "resolver.resolve");
      metric "session.apply_us" "us" (us_per "session.apply");
      metric "session.relabelled_per_op" "count/op"
        (per_unit (float_of_int k.Replay.relabelled) k.Replay.prims);
      metric "session.label_bits_max" "bits" (float_of_int bits_max);
      metric "axis_inc.maint_us_per_op" "us" (per_us (Int64.to_float ax_ns) ax_ops);
      metric "axis_inc.renumbered_per_op" "count/op" (per_unit (float_of_int ax_ren) ax_ops);
      metric "oplog.encode_us" "us" (us_per "oplog.encode");
      metric "oplog.bytes_per_record" "bytes"
        (per_unit (float_of_int k.Replay.record_bytes) (cnt "oplog.encode"));
      metric "journal.append_us" "us" (us_per "journal.append");
      metric "journal.flush_us" "us" (us_per "journal.flush");
      metric "journal.checkpoint_ms" "ms"
        (per_ms (incl "journal.checkpoint") (cnt "journal.checkpoint"));
      metric "journal.snapshot_bytes" "bytes" (float_of_int snapshot_bytes);
      metric "setup.docgen_ms" "ms" (setup "setup.docgen");
      metric "setup.label_ms" "ms" (setup "setup.label");
      metric "setup.journal_create_ms" "ms" (setup "setup.journal_create");
      metric "setup.axis_inc_build_ms" "ms" (setup "setup.axis_inc_build");
      metric "residual.update_us" "us" (residual Gen.Update k.Replay.update_reqs k.Replay.update_ns);
      metric "trace_overhead_pct" "%" (100. *. overhead);
    ]
  in
  let specific =
    (if k.Replay.read_reqs > 0 then
       [ metric "residual.read_us" "us" (residual Gen.Read k.Replay.read_reqs k.Replay.read_ns) ]
     else [])
    @ (if k.Replay.queries > 0 then
         [
           metric "query.parse_us" "us" (us_per "query.parse");
           metric "query.eval_us" "us" (us_per "query.eval");
           metric "query.serve_us" "us" (us_per "query.serve");
           metric "query.rows_total_per_query" "rows"
             (per_unit (float_of_int k.Replay.rows_total) k.Replay.queries);
           metric "query.rows_sent_ratio" "ratio" (ratio k.Replay.rows_sent k.Replay.rows_total);
         ]
       else [])
    @
    if k.Replay.migrations > 0 then
      [
        metric "migrate.apply_ms" "ms" (per_ms (incl "migrate.apply") (cnt "migrate.apply"));
        metric "migrate.prims_per_op" "count/op"
          (per_unit (float_of_int k.Replay.mig_prims) k.Replay.migrations);
        metric "migrate.relabelled_per_op" "count/op"
          (per_unit (float_of_int k.Replay.mig_relabelled) k.Replay.migrations);
        metric "migrate.survival_ms" "ms" (per_ms (incl "migrate.survival") (cnt "migrate.survival"));
      ]
    else []
  in
  let info =
    [
      metric "replay.requests" "count" (float_of_int reqs);
      metric "replay.update_layer_us" "us"
        (per_us (float_of_int k.Replay.update_ns) k.Replay.update_reqs);
      metric "replay.read_layer_us" "us" (per_us (float_of_int k.Replay.read_ns) k.Replay.read_reqs);
    ]
  in
  (universal, specific @ info)

(* ---- output --------------------------------------------------------- *)

let result_line ~correct ~attempted ~failed ms =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}" correct
    (max 1 attempted) failed (json_metrics ms)

let write_file path s = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let root = ref "" and out = ref "" and provenance = ref "{}" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of mixed-small, read-large, write-large");
      ("--seed", Arg.Set_int seed, "N seed of the request stream");
      ("--seconds", Arg.Set_int seconds, "S length of the measured window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run, or also the traced replay");
      ("--root", Arg.Set_string root, "DIR fresh directory for the run's journals");
      ("--out", Arg.Set_string out, "DIR directory for the full result and spans");
      ("--provenance", Arg.Set_string provenance, "JSON conditions recorded by the caller");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match Gen.find_workload !workload with
    | Some w -> w
    | None ->
      prerr_endline ("unknown workload " ^ !workload ^ "\n" ^ usage);
      exit 2
  in
  if !seed < 0 || !seconds < 1 || !seconds > 600 || (!trace <> 0 && !trace <> 1) || !root = "" || !out = ""
  then begin
    prerr_endline usage;
    exit 2
  end;
  let log s = print_endline s in
  let tag = Printf.sprintf "%s-seed%d-trace%d" w.Gen.w_name !seed !trace in
  try
    let r = M.run w ~seed:!seed ~seconds:!seconds ~root:!root ~log in
    List.iter2
      (fun (d, o) (_, e) -> log (Printf.sprintf "end  %s: %d nodes (opened with %d)" d e o))
      r.M.open_nodes r.M.end_nodes;
    let e2e = end_to_end r in
    let srv_universal, srv_specific = server_figures r in
    let layers, layer_specific =
      if !trace = 0 then ([], [])
      else begin
        (* The traced and the untraced replay of the same requests take
           turns round by round, the first to go alternating, for half the
           window; the overhead is the median of the rounds' ratios, so
           drift in the host's speed falls on both sides alike. *)
        let on = Replay.start w ~seed:!seed ~dir:(Filename.concat !root "replay-on") ~traced:true in
        let off = Replay.start w ~seed:!seed ~dir:(Filename.concat !root "replay-off") ~traced:false in
        let until = now_ns () + max 1_000_000_000 (!seconds * 500_000_000) in
        let rec pairs i acc =
          if i > 0 && now_ns () >= until then acc
          else
            let t_on, t_off =
              if i mod 2 = 0 then
                let a = Replay.round on in
                (a, Replay.round off)
              else
                let b = Replay.round off in
                (Replay.round on, b)
            in
            pairs (i + 1) ((float_of_int (t_on - t_off) /. float_of_int t_off) :: acc)
        in
        let overhead = median_float (pairs 0 []) in
        Replay.finish on;
        let u, s = replay_figures w r on ~overhead in
        Trace.write_spans on.Replay.t.Replay.tr (Filename.concat !out ("spans-" ^ tag ^ ".jsonl"));
        Replay.close on;
        Replay.close off;
        (u @ srv_universal, s)
      end
    in
    let extra =
      List.filter (fun m -> not (Float.is_nan m.m_value)) (class_figures r @ srv_specific @ layer_specific)
    in
    let provenance =
      Printf.sprintf
        "{\"caller\": %s, \"ocaml\": %s, \"domains\": %d, \"workload\": %s, \"seed\": %d, \
         \"seconds\": %d, \"server\": {%s}}"
        !provenance (json_string Sys.ocaml_version)
        (Domain.recommended_domain_count ())
        (json_string w.Gen.w_name) !seed !seconds
        (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s: %d" (json_string k) v) r.M.config))
    in
    log ("provenance " ^ provenance);
    log
      (Printf.sprintf "window %.3f s in %d rounds, %d requests, %d failed" r.M.window_s
         (List.length r.M.rounds) r.M.attempted r.M.failed);
    log
      ("requests per second of each round: "
      ^ String.concat " "
          (List.map (fun rd -> Printf.sprintf "%.0f" (round_throughput rd)) r.M.rounds));
    print_string (class_table r);
    log "end-to-end:";
    print_string (render_metrics e2e);
    log "workload figures:";
    print_string (render_metrics extra);
    if layers <> [] then begin
      log "per layer:";
      print_string (render_metrics layers)
    end;
    let correct = r.M.failed = 0 && r.M.retries = 0 in
    write_file
      (Filename.concat !out (tag ^ ".json"))
      (Printf.sprintf
         "{\"provenance\": %s, \"end_to_end\": %s, \"per_layer\": %s, \"workload\": %s, \
          \"rounds\": [%s]}\n"
         provenance (json_metrics e2e) (json_metrics layers) (json_metrics extra)
         (String.concat ", "
            (List.map
               (fun (rd : M.round) ->
                 Printf.sprintf
                   "{\"s\": %s, \"requests\": %d, \"update_p50_us\": %s, \"update_mean_us\": %s, \
                    \"p50_us\": %s, \"mean_us\": %s}"
                   (json_float rd.M.rd_s) rd.M.rd_requests (json_float rd.M.rd_update_p50_us)
                   (json_float rd.M.rd_update_mean_us) (json_float rd.M.rd_p50_us)
                   (json_float rd.M.rd_mean_us))
               r.M.rounds)));
    if r.M.failed > 0 then prerr_endline "CHECK FAILED: no-failed-requests";
    if r.M.retries > 0 then prerr_endline "CHECK FAILED: client-retries";
    print_endline
      (result_line ~correct ~attempted:r.M.attempted ~failed:r.M.failed
         (if !trace = 0 then e2e else layers));
    exit (if correct then 0 else 1)
  with
  | M.Check_failed (check, detail) ->
    Printf.printf "CHECK FAILED: %s: %s\n%!" check detail;
    Printf.eprintf "CHECK FAILED: %s: %s\n%!" check detail;
    exit 1
  | Replay.Replay_failed msg ->
    Printf.printf "CHECK FAILED: replay: %s\n%!" msg;
    Printf.eprintf "CHECK FAILED: replay: %s\n%!" msg;
    exit 1
