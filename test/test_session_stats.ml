(* Tests for the incremental session statistics behind the measurement hot
   path: the tracked aggregates (node count, total/max bits, bit-width
   histogram) must equal a full recomputation after every operation of a
   seeded mixed workload for every registered scheme, and the parallel
   workload sweep must return byte-identical samples at any job count. *)

open Repro_workload

let check = Alcotest.check

let base_doc seed =
  Docgen.generate ~seed { Docgen.default_shape with target_nodes = 60 }

(* The tentpole invariant, checked at the finest possible grain: after
   every one of 1000 mixed insert/delete operations the incremental
   statistics agree with [Session.recount] — so the O(1) reads the runner
   samples can never drift from the labels actually stored. *)
let incremental_matches_recompute () =
  List.iter
    (fun pack ->
      let name = Core.Scheme.name pack in
      let session = Core.Session.make pack (base_doc 31) in
      (match Core.Session.verify_tracked session with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s: diverged before any operation: %s" name msg);
      let d = Updates.start Updates.Mixed_with_deletes ~seed:31 session in
      for op = 1 to 1000 do
        Updates.step d;
        match Core.Session.verify_tracked session with
        | Ok () -> ()
        | Error msg -> Alcotest.failf "%s: diverged after op %d: %s" name op msg
      done)
    Repro_schemes.Registry.all

(* Every sample field except wall-clock time, rendered exactly. *)
let sample_key (s : Runner.sample) =
  Printf.sprintf "%d/%d/%d/%.17g/%d/%d/%d" s.ops_done s.nodes s.total_bits s.avg_bits
    s.max_bits s.relabelled s.overflow

let sweep_jobs_identical () =
  let specs =
    List.concat_map
      (fun pack ->
        List.map
          (fun sp_pattern ->
            { Runner.sp_scheme = pack; sp_pattern; sp_seed = 13; sp_ops = 120; sp_nodes = 50 })
          [ Updates.Uniform_random; Updates.Mixed_with_deletes ])
      Repro_schemes.Registry.all
  in
  let sequential = Runner.sweep ~jobs:1 specs in
  let parallel = Runner.sweep ~jobs:4 specs in
  List.iter2
    (fun (sp, s1) ((_ : Runner.spec), s4) ->
      check Alcotest.string
        (Printf.sprintf "%s under %s"
           (Core.Scheme.name sp.Runner.sp_scheme)
           (Updates.pattern_name sp.Runner.sp_pattern))
        (sample_key s1) (sample_key s4))
    sequential parallel

(* Paranoid mode routes every statistics read through the divergence check
   and aborts on mismatch; a clean run is itself the assertion. *)
let paranoid_reads () =
  Fun.protect
    ~finally:(fun () -> Core.Session.paranoid := false)
    (fun () ->
      Core.Session.paranoid := true;
      let session =
        Core.Session.make (module Repro_schemes.Qed : Core.Scheme.S) (base_doc 17)
      in
      let d = Updates.start Updates.Mixed_with_deletes ~seed:17 session in
      for _ = 1 to 100 do
        Updates.step d;
        ignore (Core.Session.avg_bits session)
      done;
      check Alcotest.bool "max >= avg" true
        (float_of_int (Core.Session.max_bits session) >= Core.Session.avg_bits session))

(* [Session.order_consistent] reads one materialised label array; the
   reference is the naive walk it replaced — [t.order] called per pair,
   two label lookups each, over a fresh preorder list. Both verdicts, for
   adjacent and for all pairs, after a seeded mixed workload under every
   registered scheme. *)
let order_check_matches_per_pair_walk () =
  let reference (t : Core.Session.t) ~all_pairs =
    let nodes = Array.of_list (Repro_xml.Tree.preorder t.doc) in
    let n = Array.length nodes in
    let ok = ref true in
    if all_pairs then
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if compare (t.order nodes.(i) nodes.(j)) 0 <> compare i j then ok := false
        done
      done
    else
      for i = 0 to n - 2 do
        if t.order nodes.(i) nodes.(i + 1) >= 0 then ok := false
      done;
    !ok
  in
  List.iter
    (fun pack ->
      let name = Core.Scheme.name pack in
      let session = Core.Session.make pack (base_doc 23) in
      Updates.run Updates.Mixed_with_deletes ~seed:23 ~ops:120 session;
      List.iter
        (fun all_pairs ->
          check Alcotest.bool
            (Printf.sprintf "%s, all_pairs=%b" name all_pairs)
            (reference session ~all_pairs)
            (Core.Session.order_consistent ~all_pairs session))
        [ false; true ])
    Repro_schemes.Registry.all

let suite =
  [
    ( "incremental stats equal full recompute after every op (all schemes)",
      `Slow,
      incremental_matches_recompute );
    ("sweep samples are byte-identical at jobs 1 and 4", `Slow, sweep_jobs_identical);
    ("paranoid mode verifies every sampled read", `Quick, paranoid_reads);
    ( "order check matches the per-pair walk (all schemes)",
      `Quick,
      order_check_matches_per_pair_walk );
  ]
