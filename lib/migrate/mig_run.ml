open Repro_xml
module Prng = Repro_codes.Prng
module Journal = Repro_journal.Journal
module Oplog = Repro_journal.Oplog
module Docgen = Repro_workload.Docgen
module Axis_inc = Repro_encoding.Axis_inc

(* The per-scheme migration matrix: a seeded storm of operators over a
   generated document, with three instruments attached:

   - a blast-radius accountant (per operator kind: primitives compiled,
     nodes relabelled, overflow events, journal bytes, incremental-index
     nanoseconds and renumber events);
   - an oracle twin — a second document built from the same seed, so its
     labels are byte-identical — that replays every emitted plan through
     the journal resolver and must land on the same serialized bytes;
   - the standing-query survival tracker over the incremental index's
     query engines, with every kept answer re-checked by a full
     re-evaluation.

   The twin is the whole correctness argument: if the plan a migration
   compiled to replays to the same document on a fresh resolver, then the
   journal entry the server writes for that migration recovers correctly,
   and a follower shipping the journal converges. *)

type cell = {
  mutable c_ops : int;  (** operators of this kind applied *)
  mutable c_prims : int;  (** journalable primitives compiled *)
  mutable c_relabelled : int;  (** existing nodes whose label changed *)
  mutable c_overflow : int;
  mutable c_journal_bytes : int;
  mutable c_axis_ns : int64;  (** incremental index maintenance time *)
  mutable c_renumbered : int;  (** rank-reassignment events in the index *)
}

let cell () =
  {
    c_ops = 0;
    c_prims = 0;
    c_relabelled = 0;
    c_overflow = 0;
    c_journal_bytes = 0;
    c_axis_ns = 0L;
    c_renumbered = 0;
  }

type row = {
  r_scheme : string;
  r_cells : cell array;  (** indexed by {!Migrate.kind_of_op} *)
  r_steps : int;  (** operators applied (all kinds) *)
  r_skipped : int;  (** storm steps with no valid target *)
  r_nodes0 : int;
  r_nodes1 : int;
  r_avg_bits0 : float;
  r_avg_bits1 : float;
  r_max_bits1 : int;
  r_disagreements : int;  (** oracle-replay divergences — must be 0 *)
  r_axis_ok : bool;  (** final [Axis_inc.verify] *)
  r_survived : int;
  r_changed : int;
  r_broken : int;
  r_queries : int;
  r_evaluated : int;  (** standing-query evaluations a step made *)
  r_kept : int;  (** answers a step kept without evaluation *)
  r_mismatches : int;  (** kept answers a full re-evaluation contradicted — must be 0 *)
  r_error : string option;  (** a scheme crash mid-storm, storm cut short *)
}

type config = { seed : int; nodes : int; steps : int; queries : int }

let default_config = { seed = 7; nodes = 200; steps = 48; queries = 24 }

let shape cfg = { Docgen.default_shape with target_nodes = cfg.nodes }

let journal_bytes_of plan =
  List.fold_left (fun acc o -> acc + String.length (Oplog.encode_record o)) 0 plan

let run_scheme cfg pack =
  let name = Core.Scheme.name pack in
  let doc = Docgen.generate ~seed:cfg.seed (shape cfg) in
  let session = Core.Session.make pack doc in
  let resolver = Journal.Resolver.create session in
  (* the twin: same seed, same scheme — byte-identical labels, so the
     plan's captured labels resolve on it too *)
  let twin_doc = Docgen.generate ~seed:cfg.seed (shape cfg) in
  let twin_session = Core.Session.make pack twin_doc in
  let twin_resolver = Journal.Resolver.create twin_session in
  let clock () = Int64.of_float (Unix.gettimeofday () *. 1e9) in
  let inc = Axis_inc.create ~clock doc in
  let queries = Mig_survival.pool ~seed:cfg.seed ~count:cfg.queries doc in
  let tracked = Mig_survival.track (Axis_inc.source (Axis_inc.snapshot inc)) queries in
  let tally = Mig_survival.tally () in
  let rng = Prng.create (cfg.seed lxor 0x6d69) in
  let cells = Array.init Migrate.kinds (fun _ -> cell ()) in
  let nodes0 = Core.Session.node_count session in
  let avg_bits0 = Core.Session.avg_bits session in
  let plan = ref [] in
  let applier =
    {
      Migrate.ap_session = session;
      ap_run =
        (fun o ->
          plan := o :: !plan;
          Journal.Resolver.apply resolver o);
    }
  in
  let disagreements = ref 0 in
  let steps = ref 0 in
  let skipped = ref 0 in
  let error = ref None in
  (try
     for step = 0 to cfg.steps - 1 do
       match Mig_gen.next rng doc ~step with
       | None -> incr skipped
       | Some op ->
         let k = Migrate.kind_of_op op in
         let c = cells.(k) in
         let st0 = session.Core.Session.stats () in
         let ax0 = Axis_inc.stats inc in
         plan := [];
         let prims = Migrate.apply applier op in
         let st1 = session.Core.Session.stats () in
         let ax1 = Axis_inc.stats inc in
         let step_plan = List.rev !plan in
         c.c_ops <- c.c_ops + 1;
         c.c_prims <- c.c_prims + prims;
         c.c_relabelled <- c.c_relabelled + (st1.Core.Stats.s_relabelled - st0.Core.Stats.s_relabelled);
         c.c_overflow <- c.c_overflow + (st1.Core.Stats.s_overflow - st0.Core.Stats.s_overflow);
         c.c_journal_bytes <- c.c_journal_bytes + journal_bytes_of step_plan;
         c.c_axis_ns <- Int64.add c.c_axis_ns (Int64.sub ax1.Axis_inc.ns ax0.Axis_inc.ns);
         c.c_renumbered <- c.c_renumbered + (ax1.Axis_inc.renumbered - ax0.Axis_inc.renumbered);
         incr steps;
         (* oracle replay: the emitted plan must land the twin on the
            same bytes *)
         List.iter (fun o -> ignore (Journal.Resolver.apply twin_resolver o)) step_plan;
         if Serializer.to_string doc <> Serializer.to_string twin_doc then incr disagreements;
         let src = Axis_inc.source (Axis_inc.snapshot inc) in
         ignore (Mig_survival.step ~check:true ~tally src tracked)
     done
   with
  | Migrate.Migrate_error msg -> error := Some ("migrate: " ^ msg)
  | Journal.Replay_error msg -> error := Some ("replay: " ^ msg)
  | Invalid_argument msg -> error := Some ("invalid_arg: " ^ msg)
  | Failure msg -> error := Some ("failure: " ^ msg));
  let axis_ok =
    match Axis_inc.verify inc with
    | Ok () -> true
    | Error _ -> false
  in
  Axis_inc.detach inc;
  let survived, changed, broken = Mig_survival.totals tracked in
  {
    r_scheme = name;
    r_cells = cells;
    r_steps = !steps;
    r_skipped = !skipped;
    r_nodes0 = nodes0;
    r_nodes1 = Core.Session.node_count session;
    r_avg_bits0 = avg_bits0;
    r_avg_bits1 = Core.Session.avg_bits session;
    r_max_bits1 = Core.Session.max_bits session;
    r_disagreements = !disagreements;
    r_axis_ok = axis_ok;
    r_survived = survived;
    r_changed = changed;
    r_broken = broken;
    r_queries = cfg.queries;
    r_evaluated = tally.Mig_survival.evaluated;
    r_kept = tally.Mig_survival.skipped;
    r_mismatches = tally.Mig_survival.mismatches;
    r_error = !error;
  }

let run cfg packs = List.map (run_scheme cfg) packs

let total_disagreements rows = List.fold_left (fun a r -> a + r.r_disagreements) 0 rows
let total_mismatches rows = List.fold_left (fun a r -> a + r.r_mismatches) 0 rows

(* ---- rendering ------------------------------------------------------- *)

let render ppf cfg rows =
  Format.fprintf ppf
    "migration matrix: seed=%d nodes=%d steps=%d queries=%d schemes=%d@,@," cfg.seed cfg.nodes
    cfg.steps cfg.queries (List.length rows);
  List.iter
    (fun r ->
      Format.fprintf ppf "%-22s steps=%d skipped=%d nodes %d->%d avg_bits %.1f->%.1f max=%d@,"
        r.r_scheme r.r_steps r.r_skipped r.r_nodes0 r.r_nodes1 r.r_avg_bits0 r.r_avg_bits1
        r.r_max_bits1;
      Array.iteri
        (fun k c ->
          if c.c_ops > 0 then
            Format.fprintf ppf
              "  %-8s ops=%-3d prims=%-4d relabelled=%-6d overflow=%-2d journal=%-7dB axis=%.2fms renum=%d@,"
              (Migrate.kind_name k) c.c_ops c.c_prims c.c_relabelled c.c_overflow
              c.c_journal_bytes
              (Int64.to_float c.c_axis_ns /. 1e6)
              c.c_renumbered)
        r.r_cells;
      Format.fprintf ppf "  oracle: %s   axis: %s   queries: %d survived / %d changed / %d broken of %d@,"
        (if r.r_disagreements = 0 then "0 disagreements"
         else Printf.sprintf "%d DISAGREEMENTS" r.r_disagreements)
        (if r.r_axis_ok then "ok" else "CORRUPT")
        r.r_survived r.r_changed r.r_broken r.r_queries;
      Format.fprintf ppf "  survival: %d re-evaluated / %d skipped   check: %s@," r.r_evaluated
        r.r_kept
        (if r.r_mismatches = 0 then "0 mismatches"
         else Printf.sprintf "%d MISMATCHES" r.r_mismatches);
      (match r.r_error with
      | Some e -> Format.fprintf ppf "  ERROR: storm cut short: %s@," e
      | None -> ());
      Format.fprintf ppf "@,")
    rows;
  let dis = total_disagreements rows in
  let errs = List.length (List.filter (fun r -> r.r_error <> None) rows) in
  Format.fprintf ppf
    "total: %d scheme(s), %d oracle disagreement(s), %d survival mismatch(es), %d error(s)@,"
    (List.length rows) dis (total_mismatches rows) errs

(* ---- JSON (for xmlrepro migrate --json) ------------------------------ *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 32 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json cfg rows =
  let b = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\n  \"config\": {\"seed\": %d, \"nodes\": %d, \"steps\": %d, \"queries\": %d},\n"
    cfg.seed cfg.nodes cfg.steps cfg.queries;
  add "  \"total_disagreements\": %d,\n" (total_disagreements rows);
  add "  \"total_survival_mismatches\": %d,\n" (total_mismatches rows);
  add "  \"schemes\": [\n";
  List.iteri
    (fun i r ->
      add "    {\"scheme\": \"%s\", \"steps\": %d, \"skipped\": %d,\n" (json_escape r.r_scheme)
        r.r_steps r.r_skipped;
      add "     \"nodes\": [%d, %d], \"avg_bits\": [%.3f, %.3f], \"max_bits\": %d,\n" r.r_nodes0
        r.r_nodes1 r.r_avg_bits0 r.r_avg_bits1 r.r_max_bits1;
      add "     \"disagreements\": %d, \"axis_ok\": %b,\n" r.r_disagreements r.r_axis_ok;
      add "     \"queries\": {\"pool\": %d, \"survived\": %d, \"changed\": %d, \"broken\": %d},\n"
        r.r_queries r.r_survived r.r_changed r.r_broken;
      add "     \"survival\": {\"evaluated\": %d, \"skipped\": %d, \"mismatches\": %d},\n"
        r.r_evaluated r.r_kept r.r_mismatches;
      (match r.r_error with
      | Some e -> add "     \"error\": \"%s\",\n" (json_escape e)
      | None -> ());
      add "     \"operators\": {";
      let first = ref true in
      Array.iteri
        (fun k c ->
          if not !first then add ", ";
          first := false;
          add
            "\"%s\": {\"ops\": %d, \"prims\": %d, \"relabelled\": %d, \"overflow\": %d, \"journal_bytes\": %d, \"axis_ns\": %Ld, \"renumbered\": %d}"
            (Migrate.kind_name k) c.c_ops c.c_prims c.c_relabelled c.c_overflow c.c_journal_bytes
            c.c_axis_ns c.c_renumbered)
        r.r_cells;
      add "}}%s\n" (if i = List.length rows - 1 then "" else ","))
    rows;
  add "  ]\n}\n";
  Buffer.contents b
