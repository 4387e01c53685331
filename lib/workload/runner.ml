type sample = {
  ops_done : int;
  nodes : int;
  total_bits : int;
  avg_bits : float;
  max_bits : int;
  relabelled : int;
  overflow : int;
  elapsed_s : float;
}

let pp_sample ppf s =
  Format.fprintf ppf
    "ops=%d nodes=%d avg_bits=%.1f max_bits=%d total_bits=%d relabelled=%d overflow=%d (%.3fs)"
    s.ops_done s.nodes s.avg_bits s.max_bits s.total_bits s.relabelled s.overflow s.elapsed_s

(* One statistics sample. Every field is an O(1) read of the session's
   incrementally tracked state (node count included — the tree indexes its
   live nodes), so dense sampling ([sample_every = 1]) no longer turns an
   n-op workload into O(n^2) preorder walks. *)
let measure session ~ops_done ~t0 =
  let stats = session.Core.Session.stats () in
  {
    ops_done;
    nodes = Repro_xml.Tree.size session.Core.Session.doc;
    total_bits = Core.Session.total_bits session;
    avg_bits = Core.Session.avg_bits session;
    max_bits = Core.Session.max_bits session;
    relabelled = stats.Core.Stats.s_relabelled;
    overflow = stats.Core.Stats.s_overflow;
    elapsed_s = Unix.gettimeofday () -. t0;
  }

let series pack ~make_doc ~pattern ~seed ~ops ~sample_every =
  let doc = make_doc () in
  let session = Core.Session.make pack doc in
  let t0 = Unix.gettimeofday () in
  let driver = Updates.start pattern ~seed session in
  let samples = ref [ measure session ~ops_done:0 ~t0 ] in
  for i = 1 to ops do
    Updates.step driver;
    if i mod sample_every = 0 || i = ops then
      samples := measure session ~ops_done:i ~t0 :: !samples
  done;
  List.rev !samples

let final pack ~make_doc ~pattern ~seed ~ops =
  match List.rev (series pack ~make_doc ~pattern ~seed ~ops ~sample_every:max_int) with
  | last :: _ -> last
  | [] -> assert false

type spec = {
  sp_scheme : Core.Scheme.packed;
  sp_pattern : Updates.pattern;
  sp_seed : int;
  sp_ops : int;
  sp_nodes : int;
}

(* Each task regenerates its base document from its own seed and builds
   its own session inside [final], so a scheme's mutable label tables
   never cross a domain boundary and the samples are the same at any
   [jobs] (up to wall-clock fields). *)
let sweep ?(jobs = 1) specs =
  let one sp =
    ( sp,
      final sp.sp_scheme
        ~make_doc:(fun () ->
          Docgen.generate ~seed:sp.sp_seed
            { Docgen.default_shape with target_nodes = sp.sp_nodes })
        ~pattern:sp.sp_pattern ~seed:sp.sp_seed ~ops:sp.sp_ops )
  in
  if jobs <= 1 then List.map one specs
  else
    Repro_parallel.Pool.parallel_map_list (Repro_parallel.Pool.get ~jobs) one specs
