(* xmlrepro — command-line front end for the reproduction.

   Subcommands:
     label     label an XML document (file or stdin) under a chosen scheme
     matrix    print the computed Figure 7 and its agreement with the paper
     figures   print Figures 1-6
     workload  run an update workload against a scheme and print metrics
     query     evaluate an XPath expression over a document
     schemes   list every registered labelling scheme *)

open Cmdliner
open Repro_xml

let read_input = function
  | None | Some "-" -> In_channel.input_all In_channel.stdin
  | Some path -> In_channel.with_open_text path In_channel.input_all

let parse_doc input =
  match Parser.parse_result (read_input input) with
  | Ok doc -> doc
  | Error e ->
    Format.eprintf "%a@." Parser.pp_error e;
    exit 1

let find_scheme name =
  match Repro_schemes.Registry.find name with
  | Some pack -> pack
  | None ->
    Format.eprintf "unknown scheme %S; try 'xmlrepro schemes'@." name;
    exit 1

(* ---- common arguments -------------------------------------------- *)

let input_arg =
  let doc = "Input XML document (defaults to the paper's sample; '-' reads stdin)." in
  Arg.(value & opt (some string) None & info [ "i"; "input" ] ~docv:"FILE" ~doc)

let scheme_arg default =
  let doc = "Labelling scheme name (see 'xmlrepro schemes')." in
  Arg.(value & opt string default & info [ "s"; "scheme" ] ~docv:"SCHEME" ~doc)

let seed_arg =
  let doc = "Random seed (workloads are deterministic per seed)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~doc)

let jobs_arg =
  let doc =
    "Number of domains to evaluate on (1 = the sequential path; results are \
     identical at any value)."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let paranoid_arg =
  let doc =
    "Cross-check every O(1) incremental statistics read against a full \
     recomputation and abort on the first divergence (slow; a correctness \
     harness for the measurement hot path)."
  in
  Arg.(value & flag & info [ "paranoid" ] ~doc)

let doc_or_sample input =
  match input with None -> Samples.book () | some -> parse_doc some

(* ---- label ------------------------------------------------------- *)

let label_cmd =
  let run scheme input show_bits =
    let pack = find_scheme scheme in
    let doc = doc_or_sample input in
    let session = Core.Session.make pack doc in
    Printf.printf "%s labelling (%s order, %s representation)\n\n"
      session.Core.Session.scheme_name
      (Core.Info.order_to_string session.Core.Session.info.Core.Info.order)
      (Core.Info.representation_to_string
         session.Core.Session.info.Core.Info.representation);
    List.iter
      (fun (n : Tree.node) ->
        let indent = String.make (2 * Tree.level n) ' ' in
        if show_bits then
          Printf.printf "%s%-20s %s  (%d bits)\n" indent n.Tree.name
            (session.Core.Session.label_string n) (session.Core.Session.label_bits n)
        else
          Printf.printf "%s%-20s %s\n" indent n.Tree.name
            (session.Core.Session.label_string n))
      (Tree.preorder doc)
  in
  let bits =
    Arg.(value & flag & info [ "bits" ] ~doc:"Also print each label's storage cost in bits.")
  in
  Cmd.v
    (Cmd.info "label" ~doc:"Label a document under a scheme.")
    Term.(const run $ scheme_arg "QED" $ input_arg $ bits)

(* ---- matrix ------------------------------------------------------ *)

let matrix_cmd =
  let run evidence extensions jobs paranoid =
    Core.Session.paranoid := paranoid;
    let t = Repro_framework.Matrix.compute ~jobs () in
    print_endline (Repro_framework.Matrix.render t);
    print_newline ();
    print_string (Repro_framework.Matrix.render_agreement t);
    if evidence then begin
      print_newline ();
      print_string (Repro_framework.Matrix.render_evidence t)
    end;
    if extensions then begin
      print_endline "\nExtension rows:";
      print_endline
        (Repro_framework.Matrix.render
           (Repro_framework.Matrix.compute ~jobs
              ~schemes:Repro_schemes.Registry.extensions ()))
    end
  in
  let evidence =
    Arg.(value & flag & info [ "evidence" ] ~doc:"Print the per-cell measurement evidence.")
  in
  let extensions =
    Arg.(value & flag & info [ "extensions" ] ~doc:"Also grade the non-Figure-7 schemes.")
  in
  Cmd.v
    (Cmd.info "matrix" ~doc:"Recompute the paper's Figure 7 evaluation matrix.")
    Term.(const run $ evidence $ extensions $ jobs_arg $ paranoid_arg)

(* ---- figures ----------------------------------------------------- *)

let figures_cmd =
  let run () =
    List.iter
      (fun f -> print_endline (Repro_framework.Figures.render f))
      (Repro_framework.Figures.all ())
  in
  Cmd.v (Cmd.info "figures" ~doc:"Regenerate Figures 1-6.") Term.(const run $ const ())

(* ---- workload ---------------------------------------------------- *)

let pattern_conv =
  let parse s =
    match
      List.find_opt
        (fun p -> Repro_workload.Updates.pattern_name p = s)
        Repro_workload.Updates.all_patterns
    with
    | Some p -> Ok p
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown pattern %S (one of: %s)" s
             (String.concat ", "
                (List.map Repro_workload.Updates.pattern_name
                   Repro_workload.Updates.all_patterns))))
  in
  Arg.conv (parse, fun ppf p -> Fmt.string ppf (Repro_workload.Updates.pattern_name p))

let workload_cmd =
  (* [-s] accepts one scheme, a comma-separated list, or "all"; a single
     scheme with [--jobs 1] keeps the historical per-sample series output,
     anything else runs a (possibly parallel) sweep with one final sample
     per scheme. *)
  let run scheme pattern ops seed nodes sample_every jobs paranoid =
    Core.Session.paranoid := paranoid;
    let scheme_names =
      if String.lowercase_ascii scheme = "all" then
        List.map Core.Scheme.name Repro_schemes.Registry.all
      else
        String.split_on_char ',' scheme |> List.map String.trim
        |> List.filter (fun s -> s <> "")
    in
    match scheme_names with
    | [ name ] when jobs <= 1 ->
      let pack = find_scheme name in
      let samples =
        Repro_workload.Runner.series pack
          ~make_doc:(fun () ->
            Repro_workload.Docgen.generate ~seed
              { Repro_workload.Docgen.default_shape with target_nodes = nodes })
          ~pattern ~seed ~ops ~sample_every
      in
      Printf.printf "%s under %s (%d ops, seed %d, %d-node base document)\n" name
        (Repro_workload.Updates.pattern_name pattern) ops seed nodes;
      List.iter (fun s -> Format.printf "%a@." Repro_workload.Runner.pp_sample s) samples
    | names ->
      let specs =
        List.map
          (fun name ->
            {
              Repro_workload.Runner.sp_scheme = find_scheme name;
              sp_pattern = pattern;
              sp_seed = seed;
              sp_ops = ops;
              sp_nodes = nodes;
            })
          names
      in
      Printf.printf
        "%d scheme(s) under %s (%d ops, seed %d, %d-node base document, %d job(s))\n"
        (List.length specs)
        (Repro_workload.Updates.pattern_name pattern)
        ops seed nodes (max 1 jobs);
      List.iter
        (fun (sp, s) ->
          Format.printf "%-18s %a@."
            (Core.Scheme.name sp.Repro_workload.Runner.sp_scheme)
            Repro_workload.Runner.pp_sample s)
        (Repro_workload.Runner.sweep ~jobs specs)
  in
  let pattern =
    Arg.(
      value
      & opt pattern_conv Repro_workload.Updates.Uniform_random
      & info [ "p"; "pattern" ] ~docv:"PATTERN" ~doc:"Update pattern.")
  in
  let ops = Arg.(value & opt int 500 & info [ "n"; "ops" ] ~doc:"Number of update operations.") in
  let nodes = Arg.(value & opt int 200 & info [ "nodes" ] ~doc:"Base document size.") in
  let sample_every =
    Arg.(value & opt int 100 & info [ "sample-every" ] ~doc:"Sampling interval in operations.")
  in
  Cmd.v
    (Cmd.info "workload" ~doc:"Run an update workload and print label metrics.")
    Term.(
      const run $ scheme_arg "QED" $ pattern $ ops $ seed_arg $ nodes $ sample_every
      $ jobs_arg $ paranoid_arg)

(* ---- query ------------------------------------------------------- *)

let query_cmd =
  let run input path show_xml =
    let doc = doc_or_sample input in
    let enc = Repro_encoding.Encoding.of_doc doc in
    match Repro_encoding.Xpath.eval enc path with
    | rows ->
      Printf.printf "%d result(s) for %s\n" (List.length rows)
        (Repro_encoding.Xpath.to_string (Repro_encoding.Xpath.parse path));
      List.iter
        (fun (r : Repro_encoding.Encoding.row) ->
          if show_xml then
            print_endline
              (Serializer.node_to_string ~indent:2
                 (Repro_encoding.Encoding.node_of_row enc r))
          else
            Printf.printf "pre=%-4d %-12s %s\n" r.Repro_encoding.Encoding.pre r.name
              (Option.value r.value ~default:""))
        rows
    | exception Repro_encoding.Xpath.Parse_error e ->
      Format.eprintf "%a@." Repro_encoding.Xpath.pp_error e;
      exit 1
  in
  let path = Arg.(required & pos 0 (some string) None & info [] ~docv:"XPATH") in
  let xml =
    Arg.(value & flag & info [ "xml" ] ~doc:"Print matched subtrees as XML instead of rows.")
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Evaluate an XPath expression over a document.")
    Term.(const run $ input_arg $ path $ xml)

(* ---- update ------------------------------------------------------ *)

let update_cmd =
  let run scheme input script script_file =
    let pack = find_scheme scheme in
    let doc = doc_or_sample input in
    let session = Core.Session.make pack doc in
    let script =
      match (script, script_file) with
      | Some s, _ -> s
      | None, Some path -> In_channel.with_open_text path In_channel.input_all
      | None, None ->
        Format.eprintf "provide a script (positional) or --file@.";
        exit 1
    in
    match Repro_encoding.Update_lang.run session script with
    | report ->
      let stats = session.Core.Session.stats () in
      Printf.printf
        "executed %d statement(s): %d node(s) inserted, %d deleted, %d modified\n"
        report.Repro_encoding.Update_lang.executed report.inserted report.deleted
        report.modified;
      Printf.printf "labelling (%s): %d relabelled, %d overflow event(s)\n\n" scheme
        stats.Core.Stats.s_relabelled stats.Core.Stats.s_overflow;
      print_endline (Serializer.to_string ~indent:2 doc)
    | exception Repro_encoding.Update_lang.Error msg ->
      Format.eprintf "update error: %s@." msg;
      exit 1
  in
  let script = Arg.(value & pos 0 (some string) None & info [] ~docv:"SCRIPT") in
  let file =
    Arg.(
      value
      & opt (some string) None
      & info [ "f"; "file" ] ~docv:"FILE" ~doc:"Read the update script from a file.")
  in
  Cmd.v
    (Cmd.info "update" ~doc:"Apply an XQuery-Update-style script to a document.")
    Term.(const run $ scheme_arg "QED" $ input_arg $ script $ file)

(* ---- twig -------------------------------------------------------- *)

let twig_cmd =
  let run input pattern =
    let doc = doc_or_sample input in
    let enc = Repro_encoding.Encoding.of_doc doc in
    let idx = Repro_encoding.Axis_index.build enc in
    match Repro_encoding.Twig.parse pattern with
    | t ->
      let rows = Repro_encoding.Twig.matches idx t in
      Printf.printf "%d match(es) for %s (XPath: %s)\n" (List.length rows)
        (Repro_encoding.Twig.to_string t)
        (Repro_encoding.Twig.matches_xpath_equivalent t);
      List.iter
        (fun (r : Repro_encoding.Encoding.row) ->
          Printf.printf "pre=%-4d %s\n" r.Repro_encoding.Encoding.pre r.name)
        rows
    | exception Repro_encoding.Twig.Parse_error e ->
      Format.eprintf "%a@." Repro_encoding.Twig.pp_error e;
      exit 1
  in
  let pattern = Arg.(required & pos 0 (some string) None & info [] ~docv:"PATTERN") in
  Cmd.v
    (Cmd.info "twig" ~doc:"Match a tree pattern with structural joins.")
    Term.(const run $ input_arg $ pattern)

(* ---- store ------------------------------------------------------- *)

let store_cmd =
  let run scheme input out =
    let pack = find_scheme scheme in
    let doc = doc_or_sample input in
    let session = Core.Session.make pack doc in
    Repro_storage.Store.save_file session out;
    Printf.printf "stored %d nodes labelled by %s in %s\n" (Tree.size doc) scheme out
  in
  let out = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  Cmd.v
    (Cmd.info "store" ~doc:"Label a document and persist it with its labels.")
    Term.(const run $ scheme_arg "QED" $ input_arg $ out)

let restore_cmd =
  let run path =
    match Repro_storage.Store.load_file path with
    | session ->
      Printf.printf "restored %d nodes labelled by %s (no relabelling)\n"
        (Tree.size session.Core.Session.doc) session.Core.Session.scheme_name;
      List.iter
        (fun (n : Tree.node) ->
          Printf.printf "%s%-16s %s\n"
            (String.make (2 * Tree.level n) ' ')
            n.Tree.name
            (session.Core.Session.label_string n))
        (Tree.preorder session.Core.Session.doc)
    | exception Repro_storage.Store.Corrupt msg ->
      Format.eprintf "store error: %s@." msg;
      exit 1
  in
  let path = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  Cmd.v
    (Cmd.info "restore" ~doc:"Reload a stored document and print its persisted labels.")
    Term.(const run $ path)

(* ---- journal ----------------------------------------------------- *)

(* The durable update journal: a write-ahead log over the snapshot store.
   record   apply an update script durably (creating the journal on first use)
   recover  load snapshot + replay the log tail, report what came back
   checkpoint  absorb the log into a fresh snapshot
   inspect  decode the log records without replaying them *)

let base_arg =
  let doc = "Journal base path (the manifest; snapshots and logs live beside it)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"BASE" ~doc)

let journal_error msg =
  Format.eprintf "journal error: %s@." msg;
  exit 1

let with_journal_errors f =
  match f () with
  | v -> v
  | exception Repro_journal.Journal.Corrupt msg -> journal_error msg
  | exception Repro_journal.Journal.Replay_error msg -> journal_error msg
  | exception Repro_io.Io.Io_error { op; path; reason } ->
    journal_error (Printf.sprintf "%s on %s: %s" op path reason)

let print_recovery (r : Repro_journal.Journal.recovery) =
  Printf.printf
    "recovered epoch %d under %s: %d nodes from the snapshot, %d record(s) replayed (%d bytes)\n"
    r.Repro_journal.Journal.r_epoch r.r_scheme r.r_snapshot_nodes r.r_records r.r_bytes;
  match r.r_torn with
  | None -> ()
  | Some reason -> Printf.printf "torn tail dropped: %s\n" reason

let journal_record_cmd =
  let run scheme input base script script_file fsync_every checkpoint_every =
    let script =
      match (script, script_file) with
      | Some s, _ -> s
      | None, Some path -> In_channel.with_open_text path In_channel.input_all
      | None, None ->
        Format.eprintf "provide a script (positional) or --file@.";
        exit 1
    in
    with_journal_errors (fun () ->
        let d =
          if Sys.file_exists base then begin
            let d, r =
              Repro_journal.Durable_session.recover ~fsync_every ?checkpoint_every ~base ()
            in
            print_recovery r;
            d
          end
          else
            let pack = find_scheme scheme in
            let doc = doc_or_sample input in
            let session = Core.Session.make pack doc in
            Printf.printf "journal started at %s under %s (%d nodes)\n" base scheme
              (Tree.size doc);
            Repro_journal.Durable_session.create ~fsync_every ?checkpoint_every ~base
              session
        in
        let view = Repro_journal.Durable_session.session d in
        (match Repro_encoding.Update_lang.run view script with
        | report ->
          Printf.printf
            "executed %d statement(s): %d node(s) inserted, %d deleted, %d modified\n"
            report.Repro_encoding.Update_lang.executed report.inserted report.deleted
            report.modified
        | exception Repro_encoding.Update_lang.Error msg ->
          Repro_journal.Durable_session.close d;
          Format.eprintf "update error: %s@." msg;
          exit 1);
        let j = Repro_journal.Durable_session.journal d in
        Printf.printf "journaled %d record(s); epoch %d log is %d bytes\n"
          (Repro_journal.Journal.appended j)
          (Repro_journal.Journal.epoch j)
          (Repro_journal.Journal.log_size j);
        Repro_journal.Durable_session.close d)
  in
  let script = Arg.(value & pos 1 (some string) None & info [] ~docv:"SCRIPT") in
  let file =
    Arg.(
      value
      & opt (some string) None
      & info [ "f"; "file" ] ~docv:"FILE" ~doc:"Read the update script from a file.")
  in
  let fsync_every =
    Arg.(
      value & opt int 1
      & info [ "fsync-every" ] ~docv:"N"
          ~doc:"Fsync the log after every $(docv)-th record (group commit).")
  in
  let checkpoint_every =
    Arg.(
      value
      & opt (some int) None
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:"Write a snapshot and reset the log after every $(docv) records.")
  in
  Cmd.v
    (Cmd.info "record"
       ~doc:"Apply an update script through a durable, journaled session.")
    Term.(
      const run $ scheme_arg "QED" $ input_arg $ base_arg $ script $ file $ fsync_every
      $ checkpoint_every)

let journal_recover_cmd =
  let run base show_xml =
    with_journal_errors (fun () ->
        let j, session, r = Repro_journal.Journal.recover ~base () in
        Repro_journal.Journal.close j;
        print_recovery r;
        Printf.printf "document holds %d nodes\n" (Tree.size session.Core.Session.doc);
        if show_xml then print_string (Serializer.to_string ~indent:2 session.Core.Session.doc))
  in
  let xml =
    Arg.(value & flag & info [ "xml" ] ~doc:"Also print the recovered document as XML.")
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:"Rebuild the session from the snapshot plus the journal's log tail.")
    Term.(const run $ base_arg $ xml)

let journal_checkpoint_cmd =
  let run base =
    with_journal_errors (fun () ->
        let d, r = Repro_journal.Durable_session.recover ~base () in
        print_recovery r;
        Repro_journal.Durable_session.checkpoint d;
        let j = Repro_journal.Durable_session.journal d in
        Printf.printf "checkpoint: epoch %d snapshot written, log reset\n"
          (Repro_journal.Journal.epoch j);
        Repro_journal.Durable_session.close d)
  in
  Cmd.v
    (Cmd.info "checkpoint"
       ~doc:"Absorb the log into a fresh snapshot and truncate it.")
    Term.(const run $ base_arg)

let journal_inspect_cmd =
  let run base =
    with_journal_errors (fun () ->
        let scheme, ops, torn = Repro_journal.Journal.inspect ~base () in
        Printf.printf "%d record(s) under %s\n" (List.length ops) scheme;
        List.iteri
          (fun i op -> Printf.printf "%4d  %s\n" (i + 1) (Repro_journal.Oplog.op_to_string op))
          ops;
        match torn with
        | None -> ()
        | Some reason -> Printf.printf "torn tail: %s\n" reason)
  in
  Cmd.v
    (Cmd.info "inspect" ~doc:"Decode and print the journal's log records.")
    Term.(const run $ base_arg)

let journal_cmd =
  Cmd.group
    (Cmd.info "journal"
       ~doc:
         "Durable updates: write-ahead logging, checkpointing and crash recovery \
          over the snapshot store.")
    [ journal_record_cmd; journal_recover_cmd; journal_checkpoint_cmd; journal_inspect_cmd ]

(* ---- torture / failover: the crash sweeps ------------------------- *)

module Torture = Repro_torture.Torture

(* One command shape for both crash-sweep entry points: the shared flags,
   progress line per case, one violation per (case, sweep) unless
   --verbose, the coverage summary, exit 1 on any violation. *)
let crash_sweep_cmd name ~doc ~seeds ~ops ~interval:(interval_flag, interval, interval_doc)
    ~checkpoint_every ~checkpoint_doc sweep =
  let run seeds ops interval checkpoint_every schemes verbose unsafe_no_dir_fsync =
    if unsafe_no_dir_fsync then Repro_io.Io.unsafe_no_dir_fsync := true;
    let progress (c : Torture.case) =
      let rounds, boundaries =
        if c.c_rounds = 0 then ("", Printf.sprintf "%5d" c.c_boundaries)
        else
          ( Printf.sprintf "  %3d rounds  %2d bootstraps" c.c_rounds c.c_bootstraps,
            Printf.sprintf "%4d+%4d" c.c_boundaries c.c_replica_boundaries )
      in
      Printf.printf "%-8s seed %-3d%s  %s boundaries  %6d images  %d violation(s)\n%!"
        c.c_scheme c.c_seed rounds boundaries c.c_images c.c_violations
    in
    let report =
      try sweep ~seeds ~ops ~interval ~checkpoint_every ~schemes ~progress
      with Invalid_argument msg ->
        Format.eprintf "%s@." msg;
        exit 1
    in
    let shown =
      if verbose then report.Torture.t_violations
      else
        (* one representative per (scheme, seed, sweep) keeps the report readable *)
        List.rev
          (List.fold_left
             (fun acc (v : Torture.violation) ->
               let seen (w : Torture.violation) =
                 w.v_scheme = v.v_scheme && w.v_seed = v.v_seed && w.v_sweep = v.v_sweep
               in
               if List.exists seen acc then acc else v :: acc)
             [] report.t_violations)
    in
    List.iter
      (fun (v : Torture.violation) ->
        Printf.printf "VIOLATION [%s] %s seed %d boundary %d image %d: %s\n"
          (Torture.sweep_name v.v_sweep) v.v_scheme v.v_seed v.v_boundary v.v_image v.v_reason)
      shown;
    if report.t_rounds = 0 then
      Printf.printf "crash points: %d, images recovered: %d\n" report.t_boundaries
        report.t_images
    else begin
      Printf.printf
        "rounds: %d, bootstraps: %d, promotions checked over %d primary boundaries\n"
        report.t_rounds report.t_bootstraps report.t_boundaries;
      Printf.printf "replica crash points: %d, images recovered: %d\n"
        report.t_replica_boundaries report.t_images
    end;
    Printf.printf "violations: %d\n" (List.length report.t_violations);
    if report.t_violations <> [] then exit 1
  in
  let seeds =
    Arg.(value & opt int seeds
         & info [ "seeds" ] ~docv:"N" ~doc:"Seeds 0 .. $(docv)-1 per scheme.")
  in
  let ops =
    Arg.(value & opt int ops
         & info [ "ops" ] ~docv:"N" ~doc:"Update operations per workload.")
  in
  let interval =
    Arg.(value & opt int interval & info [ interval_flag ] ~docv:"N" ~doc:interval_doc)
  in
  let checkpoint_every =
    Arg.(value & opt int checkpoint_every
         & info [ "checkpoint-every" ] ~docv:"N" ~doc:checkpoint_doc)
  in
  let schemes =
    Arg.(value & opt (list string) [ "QED"; "Vector" ]
         & info [ "schemes" ] ~docv:"NAMES" ~doc:"Comma-separated scheme names to torture.")
  in
  let verbose =
    Arg.(value & flag & info [ "verbose" ] ~doc:"Print every violation, not one per case.")
  in
  let unsafe_no_dir_fsync =
    Arg.(value & flag
         & info [ "unsafe-no-dir-fsync" ]
             ~doc:"Skip the directory fsync after atomic renames (reintroduces a real \
                   crash-consistency bug; the harness should then report violations).")
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const run $ seeds $ ops $ interval $ checkpoint_every $ schemes $ verbose
      $ unsafe_no_dir_fsync)

let torture_cmd =
  crash_sweep_cmd "torture"
    ~doc:
      "Crash-consistency torture: run seeded workloads through the durable session \
       on a simulated file system, power-cut at every syscall boundary, recover from \
       every surviving disk image and machine-check the durability invariants."
    ~seeds:5 ~ops:200
    ~interval:("fsync-every", 8, "Flush the log every $(docv) operations.")
    ~checkpoint_every:75 ~checkpoint_doc:"Checkpoint every $(docv) operations."
    (fun ~seeds ~ops ~interval ~checkpoint_every ~schemes ~progress ->
      Torture.run ~seeds ~ops ~fsync_every:interval ~checkpoint_every ~schemes ~progress ())

let failover_cmd =
  crash_sweep_cmd "failover"
    ~doc:
      "Replication failover torture: run a primary and a journal-shipping \
       replica on separate simulated file systems, power-cut the primary at \
       every syscall boundary and machine-check that the promoted replica \
       serves exactly the acknowledged durable prefix; power-cut the replica \
       at every boundary and machine-check its own recovery."
    ~seeds:3 ~ops:120
    ~interval:("ship-every", 7, "Ship a replication round every $(docv) operations.")
    ~checkpoint_every:45
    ~checkpoint_doc:
      "Checkpoint the primary every $(docv) operations (rolls the epoch and forces \
       the replica through re-bootstrap)."
    (fun ~seeds ~ops ~interval ~checkpoint_every ~schemes ~progress ->
      Torture.failover ~seeds ~ops ~ship_every:interval ~checkpoint_every ~schemes ~progress ())

(* ---- serve / loadgen --------------------------------------------- *)

let host_arg =
  let doc = "Numeric address to bind or connect to." in
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR" ~doc)

let port_arg ~default ~doc = Arg.(value & opt int default & info [ "port" ] ~docv:"PORT" ~doc)

(* The server tuning flags that serve, loadgen (for --self-serve) and
   cluster (for each server) share: one definition each, one default. *)
let fsync_every_arg =
  Arg.(
    value & opt int 0
    & info [ "fsync-every" ] ~docv:"N"
        ~doc:
          "Journal-level fsync cadence. 0 (the default) leaves durability to the \
           cross-document group-commit flusher; 1 fsyncs every append before its \
           reply; N>=2 batches inside each journal.")

let commit_interval_arg =
  Arg.(
    value & opt int 0
    & info [ "commit-interval" ] ~docv:"MICROS"
        ~doc:
          "Upper bound, in microseconds, on how long a confirmed update may wait \
           for its group fsync. 0 self-clocks: each commit cycle starts as soon \
           as the previous one ends.")

let commit_max_arg =
  Arg.(
    value & opt int 64
    & info [ "commit-max" ] ~docv:"N"
        ~doc:"Start a commit cycle early once $(docv) replies are parked.")

let loop_domains_arg =
  Arg.(
    value & opt int 1
    & info [ "loop-domains" ] ~docv:"N"
        ~doc:"Event-loop domains multiplexing the connections (0 sizes from the hardware).")

let serve_cmd =
  let run host port root max_conns fsync_every checkpoint_every commit_interval
      commit_max loop_domains dedup_window shed_parked port_file
      replica_of replica_name paranoid =
    let checkpoint_every = if checkpoint_every <= 0 then None else Some checkpoint_every in
    let replica_of =
      match replica_of with
      | None -> None
      | Some s -> (
        match Repro_cluster.Topology.node_of_string s with
        | { Repro_cluster.Topology.n_host; n_port } -> Some (n_host, n_port)
        | exception Repro_cluster.Topology.Bad_topology msg ->
          Format.eprintf "serve: --replica-of %s@." msg;
          exit 2)
    in
    let cfg =
      {
        (Repro_server.Server.default_config ~root) with
        Repro_server.Server.host;
        port;
        max_conns;
        fsync_every;
        checkpoint_every;
        commit_interval_us = commit_interval;
        commit_max;
        loop_domains;
        dedup_window;
        shed_parked;
        replica_of;
        replica_name;
        paranoid;
      }
    in
    let t = Repro_server.Server.start cfg in
    let bound = Repro_server.Server.port t in
    Printf.printf "listening on %s:%d (journals under %s)\n%!" host bound root;
    (match port_file with
    | Some pf ->
      Out_channel.with_open_text pf (fun oc -> Printf.fprintf oc "%d\n" bound)
    | None -> ());
    Repro_server.Server.install_sigint t;
    Repro_server.Server.wait t;
    let s = Repro_server.Server.stop t in
    Printf.printf "drained: %d connection(s) served, %d document(s) checkpointed\n%!"
      s.Repro_server.Server.s_conns s.Repro_server.Server.s_docs
  in
  let root =
    Arg.(
      value & opt string "xmlrepro-server"
      & info [ "root" ] ~docv:"DIR" ~doc:"Directory for the per-document journals.")
  in
  let max_conns =
    Arg.(
      value & opt int 64
      & info [ "max-conns" ] ~docv:"N" ~doc:"Accept at most $(docv) concurrent connections.")
  in
  let checkpoint_every =
    Arg.(
      value & opt int 4096
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:
            "Checkpoint a document every $(docv) records, off the request path \
             (0 disables).")
  in
  let dedup_window =
    Arg.(
      value & opt int 128
      & info [ "dedup-window" ] ~docv:"N"
          ~doc:
            "Remember the last reply of up to $(docv) identified clients per \
             document, so a retried (client, seq) is answered without re-applying \
             — exactly-once retries. 0 disables dedup.")
  in
  let shed_parked =
    Arg.(
      value & opt int 4096
      & info [ "shed-parked" ] ~docv:"N"
          ~doc:
            "Refuse further mutations with a typed Overloaded error once $(docv) \
             replies are parked awaiting fsync server-wide — nothing is applied \
             or journaled, so the refusal is always safe to retry. 0 disables.")
  in
  let port_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "port-file" ] ~docv:"FILE"
          ~doc:"Write the bound port to $(docv) — how scripts find an ephemeral port.")
  in
  let replica_of =
    Arg.(
      value
      & opt (some string) None
      & info [ "replica-of" ] ~docv:"HOST:PORT"
          ~doc:
            "Follow every document of this upstream server: bootstrap from its epoch \
             snapshots, pump its durable log records, acknowledge what is locally \
             durable. Followers answer reads and refuse updates until promoted.")
  in
  let replica_name =
    Arg.(
      value & opt string "replica"
      & info [ "replica-name" ] ~docv:"NAME"
          ~doc:"How this replica identifies itself upstream (shows up in stats lag).")
  in
  let serve_paranoid =
    Arg.(
      value & flag
      & info [ "paranoid" ]
          ~doc:
            "Re-derive every served XPath/twig answer through the scan reference \
             evaluator over the same published snapshot; a divergence is answered \
             as an Internal error instead of served. Also re-evaluate every \
             standing-query answer migration survival kept, counting \
             contradictions in the migrate/survival_mismatch gauge, and every \
             cached query answer, refusing (and counting in query/cache_mismatch) \
             one that differs.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve documents over the framed wire protocol: event-loop domains \
          multiplex the connections, every confirmed update is journaled, and a \
          cross-document group-commit flusher amortizes fsync. SIGINT drains and \
          checkpoints.")
    Term.(
      const run $ host_arg
      $ port_arg ~default:0 ~doc:"Port to bind (0 picks an ephemeral one)."
      $ root $ max_conns $ fsync_every_arg $ checkpoint_every $ commit_interval_arg
      $ commit_max_arg $ loop_domains_arg $ dedup_window $ shed_parked
      $ port_file $ replica_of $ replica_name $ serve_paranoid)

let loadgen_cmd =
  let run host port clients ops seed schemes nodes docs doc_prefix json self_serve root
      fsync_every commit_interval commit_max loop_domains cluster retries backoff
      net_drop net_delay query_pct migrate_every paranoid =
    let g_sock =
      if net_drop > 0. || net_delay > 0. then begin
        (* every worker dials through one seeded fault injector: the
           flaky-network drill that the retry/dedup machinery must absorb
           without a single client-visible error *)
        let ns, faulty = Repro_io.Netsim.wrap Repro_io.Io.unix_sock in
        Repro_io.Netsim.arm_mix ns ~seed ~drop:net_drop ~delay:net_delay ();
        Repro_io.Io.pack_sock faulty
      end
      else Repro_io.Io.real_sock
    in
    let resolve =
      (* loaded once up front, so a bad file is reported before any worker starts *)
      try Option.map Repro_cluster.Topology.resolver cluster
      with Repro_cluster.Topology.Bad_topology reason ->
        Format.eprintf "loadgen: bad topology file %s: %s@." (Option.get cluster) reason;
        exit 1
    in
    let run_against port =
      let cfg =
        {
          (Repro_server.Loadgen.default_config ~port) with
          Repro_server.Loadgen.g_host = host;
          g_clients = clients;
          g_ops = ops;
          g_seed = seed;
          g_schemes = schemes;
          g_doc_prefix = doc_prefix;
          g_nodes = nodes;
          g_docs = docs;
          g_retries = retries;
          g_backoff = backoff;
          g_sock;
          g_resolve = resolve;
          g_query_pct = query_pct;
          g_migrate_every = migrate_every;
        }
      in
      Repro_server.Loadgen.run cfg
    in
    let report =
      if self_serve then begin
        let scfg =
          {
            (Repro_server.Server.default_config ~root) with
            fsync_every;
            commit_interval_us = commit_interval;
            commit_max;
            loop_domains;
            paranoid;
          }
        in
        let t = Repro_server.Server.start scfg in
        Fun.protect
          ~finally:(fun () -> ignore (Repro_server.Server.stop t))
          (fun () -> run_against (Repro_server.Server.port t))
      end
      else begin
        if port = 0 && cluster = None then begin
          Format.eprintf "loadgen: --port is required unless --self-serve or --cluster@.";
          exit 2
        end;
        run_against port
      end
    in
    print_string (Repro_server.Loadgen.render report);
    (match json with
    | Some path ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc (Repro_server.Loadgen.to_json report))
    | None -> ());
    let server_count key =
      Option.value ~default:0 (List.assoc_opt key report.Repro_server.Loadgen.r_server)
    in
    let mismatches = server_count "migrate/survival_mismatch" in
    if mismatches > 0 then
      Format.eprintf "loadgen: %d standing-query answer(s) kept stale by migration survival@."
        mismatches;
    let stale_hits = server_count "query/cache_mismatch" in
    if stale_hits > 0 then
      Format.eprintf "loadgen: %d cached query answer(s) differed from a fresh evaluation@."
        stale_hits;
    (* a drop drill where no request was ever resent did not test the
       retry layer: the wrap is not plumbed, or the mix never fired. A
       delay need not cause a retry, so delay-only runs are exempt. *)
    let untested = net_drop > 0. && report.Repro_server.Loadgen.r_retries = 0 in
    if untested then
      Format.eprintf "loadgen: --net-drop %g injected no fault: the run saw zero retries@."
        net_drop;
    if report.Repro_server.Loadgen.r_errors > 0 || mismatches > 0 || stale_hits > 0 || untested
    then exit 1
  in
  let clients =
    Arg.(value & opt int 4 & info [ "clients" ] ~docv:"N" ~doc:"Concurrent client threads.")
  in
  let ops =
    Arg.(
      value & opt int 1000
      & info [ "n"; "ops" ] ~docv:"N" ~doc:"Total requests, split across clients.")
  in
  let schemes =
    Arg.(
      value
      & opt (list string) [ "QED"; "Vector"; "ORDPATH" ]
      & info [ "schemes" ] ~docv:"NAMES"
          ~doc:"Comma-separated scheme names; client $(i,i) opens under scheme $(i,i) mod N.")
  in
  let nodes =
    Arg.(
      value & opt int 120
      & info [ "nodes" ] ~docv:"N" ~doc:"Initial generated document size per client.")
  in
  let docs =
    Arg.(
      value & opt int 0
      & info [ "docs" ] ~docv:"N"
          ~doc:
            "Share $(docv) documents across all clients (client $(i,i) works on \
             document $(i,i) mod N) instead of one private document per client — \
             the contended mix that exercises cross-client group commit. 0 keeps \
             the private-document default.")
  in
  let doc_prefix =
    Arg.(
      value & opt string "doc"
      & info [ "doc-prefix" ] ~docv:"NAME" ~doc:"Documents are named $(docv)-0, $(docv)-1, ...")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Also write the report as JSON to $(docv).")
  in
  let self_serve =
    Arg.(
      value & flag
      & info [ "self-serve" ]
          ~doc:"Start an in-process server on an ephemeral port and load it (no --port needed).")
  in
  let root =
    Arg.(
      value & opt string "xmlrepro-server"
      & info [ "root" ] ~docv:"DIR" ~doc:"Journal directory for --self-serve.")
  in
  let cluster =
    Arg.(
      value
      & opt (some string) None
      & info [ "cluster" ] ~docv:"TOPOLOGY"
          ~doc:
            "Route each client to the shard primary owning its document, per this \
             topology file (written by $(b,xmlrepro cluster)); --port is ignored.")
  in
  let retries =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Per-request resend budget for each worker's client; workers carry a \
             stable identity, so retried mutations are exactly-once against the \
             server's dedup window.")
  in
  let backoff =
    Arg.(
      value & opt float 0.02
      & info [ "backoff" ] ~docv:"SECONDS" ~doc:"Base retry backoff (doubles per attempt).")
  in
  let net_drop =
    Arg.(
      value & opt float 0.
      & info [ "net-drop" ] ~docv:"P"
          ~doc:
            "Seeded Netsim fault injection: each client socket syscall is dropped \
             (ETIMEDOUT) with this probability. Pair with --retries. A run with \
             $(docv) > 0 that resends no request exits 1: the fault mix injected \
             nothing.")
  in
  let net_delay =
    Arg.(
      value & opt float 0.
      & info [ "net-delay" ] ~docv:"P"
          ~doc:"Seeded Netsim fault injection: delay probability per client socket syscall.")
  in
  let query_pct =
    Arg.(
      value & opt int (-1)
      & info [ "query-pct" ] ~docv:"PCT"
          ~doc:
            "Switch to the read-heavy mix: $(docv) percent of ops are served \
             XPath/twig queries against the document's published incremental index, \
             the rest structural mutations (95 is the canonical web-traffic ratio). \
             -1 (the default) keeps the classic mixed workload.")
  in
  let migrate_every =
    Arg.(
      value & opt int 0
      & info [ "migrate-every" ] ~docv:"N"
          ~doc:
            "Every $(docv)th step per client runs the migrate drill (insert a \
             fresh node, wrap it with a one-spec schema-migration batch), moving \
             the server's migrate/* gauges. 0 (the default) disables it.")
  in
  let loadgen_paranoid =
    Arg.(
      value & flag
      & info [ "paranoid" ]
          ~doc:
            "For --self-serve: the server re-verifies every served query answer \
             against the scan evaluator over the same snapshot rows, failing the \
             request on any divergence, and every standing-query answer migration \
             survival kept against a full re-evaluation, and every cached query \
             answer against a fresh one. A nonzero migrate/survival_mismatch \
             gauge or query/cache_mismatch count fails the run.")
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Drive a running server (or --self-serve, or a --cluster) with a seeded \
          multi-client mixed workload and report throughput and per-op-class \
          latency. Exits nonzero if any request failed.")
    Term.(
      const run $ host_arg
      $ port_arg ~default:0 ~doc:"Port of the server to load."
      $ clients $ ops $ seed_arg $ schemes $ nodes $ docs $ doc_prefix $ json
      $ self_serve $ root $ fsync_every_arg $ commit_interval_arg $ commit_max_arg
      $ loop_domains_arg
      $ cluster $ retries $ backoff $ net_drop $ net_delay $ query_pct
      $ migrate_every $ loadgen_paranoid)

(* ---- network torture --------------------------------------------- *)

let nettorture_cmd =
  let run ops seeds points root verbose =
    let module N = Repro_server.Nettorture in
    let root =
      match root with
      | Some r -> r
      | None ->
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "xmlrepro-nettorture-%d" (Unix.getpid ()))
    in
    let cfg =
      {
        (N.default_config ~root) with
        N.nt_ops = ops;
        nt_seeds = seeds;
        nt_points = points;
        nt_log = (if verbose then fun m -> Printf.printf "%s\n%!" m else ignore);
      }
    in
    let r = N.run cfg in
    print_string (N.render r);
    if not (N.passed r) then exit 1
  in
  let ops =
    Arg.(
      value & opt int 24
      & info [ "n"; "ops" ] ~docv:"N" ~doc:"Update requests per fault-point scenario.")
  in
  let seeds =
    Arg.(
      value & opt int 2
      & info [ "seeds" ] ~docv:"N" ~doc:"Seeded sweeps.")
  in
  let points =
    Arg.(
      value & opt int 0
      & info [ "points" ] ~docv:"N"
          ~doc:
            "Cap fault points per sweep, sampled evenly across the (syscall, fault) \
             grid; 0 sweeps every point.")
  in
  let root =
    Arg.(
      value
      & opt (some string) None
      & info [ "root" ] ~docv:"DIR"
          ~doc:"Scratch directory for the per-sweep server roots (default under /tmp).")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log each sweep as it runs.")
  in
  Cmd.v
    (Cmd.info "nettorture"
       ~doc:
         "Network-fault torture for the exactly-once update path: sweep a seeded \
          client scenario with a fault injected at every socket syscall, verify \
          every acked op applied exactly once and none twice, prove the harness \
          catches double-application when dedup is disabled, and check the dedup \
          window survives crash recovery. Exits nonzero on any violation.")
    Term.(const run $ ops $ seeds $ points $ root $ verbose)

(* ---- cluster ----------------------------------------------------- *)

let connect_node (n : Repro_cluster.Topology.node) =
  Repro_server.Server_client.connect ~timeout:10.
    ~host:n.Repro_cluster.Topology.n_host ~port:n.Repro_cluster.Topology.n_port ()

(* The end-to-end failover check the Makefile and CI run: mixed load on a
   healthy cluster, wait for replication to drain, fingerprint one
   shard's documents, SIGKILL that shard's primary, and require (a) a
   replica is promoted, (b) it serves *exactly* the fingerprinted state —
   every acknowledged byte, nothing else — and (c) the cluster still
   takes the full mixed workload afterwards. *)
let cluster_smoke sup ~ops =
  let module T = Repro_cluster.Topology in
  let module S = Repro_cluster.Supervisor in
  let module C = Repro_server.Server_client in
  let module P = Repro_server.Protocol in
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        Printf.printf "SMOKE FAIL: %s\n%!" m;
        raise Exit)
      fmt
  in
  let topo_path = S.topology_path sup in
  let resolve = T.resolver topo_path in
  let loadgen prefix seed =
    let cfg =
      {
        (Repro_server.Loadgen.default_config ~port:0) with
        Repro_server.Loadgen.g_clients = 6;
        g_ops = ops;
        g_seed = seed;
        g_doc_prefix = prefix;
        g_nodes = 60;
        g_resolve = Some resolve;
      }
    in
    Repro_server.Loadgen.run cfg
  in
  Printf.printf "smoke: mixed load on the healthy cluster...\n%!";
  let r1 = loadgen "doc" 1 in
  print_string (Repro_server.Loadgen.render r1);
  if r1.Repro_server.Loadgen.r_errors > 0 then
    fail "healthy loadgen saw %d error(s)" r1.Repro_server.Loadgen.r_errors;
  let topo = T.load topo_path in
  let n_replicas = List.length topo.T.shards.(0).T.s_replicas in
  let primary_docs c =
    match C.docs c with
    | Ok (P.Docs_r ds) -> List.filter_map (fun (d, _, p) -> if p then Some d else None) ds
    | _ -> fail "docs request failed"
  in
  (* every shard primary must see all its replicas caught up and acked *)
  let deadline = Unix.gettimeofday () +. 30. in
  Array.iteri
    (fun i (s : T.shard) ->
      if n_replicas > 0 then begin
        let c = connect_node s.T.s_primary in
        Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
        let docs = primary_docs c in
        let drained doc =
          match C.stats c ~doc with
          | Ok (P.Stats_r st) ->
            List.length st.P.st_lag >= n_replicas
            && List.for_all (fun (_, l) -> l = 0) st.P.st_lag
          | _ -> false
        in
        let rec wait () =
          if not (List.for_all drained docs) then
            if Unix.gettimeofday () > deadline then
              fail "shard %d: replication lag did not drain within 30s" i
            else begin
              Thread.delay 0.1;
              wait ()
            end
        in
        wait ()
      end)
    topo.T.shards;
  Printf.printf "smoke: replication drained on %d shard(s)\n%!" (Array.length topo.T.shards);
  let fingerprints c docs =
    List.map
      (fun d ->
        match C.labels c ~doc:d ~limit:200_000 with
        | Ok (P.Labels_r entries) -> (d, entries)
        | _ -> fail "labels %s failed" d)
      docs
  in
  let shard0_docs, before =
    let c = connect_node topo.T.shards.(0).T.s_primary in
    Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
    let docs = primary_docs c in
    (docs, fingerprints c docs)
  in
  (match S.kill_primary sup ~shard:0 with
  | Ok n -> Printf.printf "smoke: SIGKILLed shard 0 primary %s\n%!" (T.node_to_string n)
  | Error e -> fail "kill-primary: %s" e);
  let deadline = Unix.gettimeofday () +. 30. in
  let rec promoted () =
    let evs = S.poll sup in
    List.iter
      (function
        | S.Shard_down { ev_reason; _ } -> fail "shard 0 down: %s" ev_reason
        | _ -> ())
      evs;
    if List.exists (function S.Promoted { ev_shard = 0; _ } -> true | _ -> false) evs
    then ()
    else if Unix.gettimeofday () > deadline then fail "no promotion within 30s"
    else begin
      Thread.delay 0.1;
      promoted ()
    end
  in
  promoted ();
  let topo' = T.load topo_path in
  Printf.printf "smoke: promoted %s (topology v%d)\n%!"
    (T.node_to_string topo'.T.shards.(0).T.s_primary)
    topo'.T.version;
  let after =
    let c = connect_node topo'.T.shards.(0).T.s_primary in
    Fun.protect ~finally:(fun () -> C.close c) @@ fun () -> fingerprints c shard0_docs
  in
  List.iter2
    (fun (d, b) (_, a) ->
      if a <> b then fail "document %s diverged on the promoted replica" d)
    before after;
  Printf.printf "smoke: %d document(s) byte-identical on the promoted replica\n%!"
    (List.length before);
  Printf.printf "smoke: mixed load on the failed-over cluster...\n%!";
  let r2 = loadgen "post" 2 in
  print_string (Repro_server.Loadgen.render r2);
  if r2.Repro_server.Loadgen.r_errors > 0 then
    fail "post-failover loadgen saw %d error(s)" r2.Repro_server.Loadgen.r_errors;
  Printf.printf "SMOKE OK\n%!"

let cluster_cmd =
  let run shards replicas root fsync_every commit_interval commit_max smoke smoke_ops =
    let sup =
      try
        Repro_cluster.Supervisor.launch
          ~log:(fun m -> Printf.printf "cluster: %s\n%!" m)
          ~fsync_every ~commit_interval_us:commit_interval ~commit_max ~root ~shards
          ~replicas ()
      with Failure msg | Invalid_argument msg ->
        Format.eprintf "cluster: %s@." msg;
        exit 1
    in
    Printf.printf "topology: %s\n%!" (Repro_cluster.Supervisor.topology_path sup);
    if smoke then begin
      let ok =
        try
          cluster_smoke sup ~ops:smoke_ops;
          true
        with
        | Exit -> false
        | e ->
          Printf.printf "SMOKE FAIL: %s\n%!" (Printexc.to_string e);
          false
      in
      Repro_cluster.Supervisor.shutdown sup;
      if not ok then exit 1
    end
    else begin
      Printf.printf
        "cluster up: %d shard(s), each 1 primary + %d replica(s); Ctrl-C to stop\n%!"
        shards replicas;
      let stop = ref false in
      Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> stop := true));
      while not !stop do
        ignore (Repro_cluster.Supervisor.poll sup);
        Thread.delay 0.2
      done;
      Repro_cluster.Supervisor.shutdown sup;
      Printf.printf "cluster stopped\n%!"
    end
  in
  let shards =
    Arg.(value & opt int 3 & info [ "shards" ] ~docv:"N" ~doc:"Number of shards (primaries).")
  in
  let replicas =
    Arg.(value & opt int 1 & info [ "replicas" ] ~docv:"M" ~doc:"Replicas per shard.")
  in
  let root =
    Arg.(
      value & opt string "xmlrepro-cluster"
      & info [ "root" ] ~docv:"DIR"
          ~doc:"Directory for per-server journal roots, port files and the topology.")
  in
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "Run the failover smoke test instead of serving: mixed load, drain \
             replication, SIGKILL shard 0's primary, verify the promoted replica \
             serves the acknowledged state byte-for-byte, load again, exit.")
  in
  let smoke_ops =
    Arg.(
      value & opt int 600
      & info [ "smoke-ops" ] ~docv:"N" ~doc:"Requests per --smoke loadgen phase.")
  in
  Cmd.v
    (Cmd.info "cluster"
       ~doc:
         "Launch a replicated, sharded cluster of update servers: N primaries \
          placed by document-name hash, M journal-shipping replicas each, \
          automatic promotion when a primary dies. Writes the topology file \
          that loadgen --cluster dials through.")
    Term.(
      const run $ shards $ replicas $ root $ fsync_every_arg $ commit_interval_arg $ commit_max_arg
      $ smoke $ smoke_ops)

(* ---- report ------------------------------------------------------ *)

let report_cmd =
  let run out =
    match out with
    | Some path ->
      Repro_framework.Report.generate_to_file path;
      Printf.printf "report written to %s\n" path
    | None -> print_string (Repro_framework.Report.generate ())
  in
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write the Markdown report to a file instead of stdout.")
  in
  Cmd.v
    (Cmd.info "report" ~doc:"Run every experiment and emit a Markdown report.")
    Term.(const run $ out)

(* ---- migrate ----------------------------------------------------- *)

let migrate_cmd =
  let run schemes nodes steps queries seed json =
    let packs =
      match schemes with
      | [] -> Repro_schemes.Registry.well_behaved
      | names -> List.map find_scheme names
    in
    let cfg = { Repro_migrate.Mig_run.seed; nodes; steps; queries } in
    let rows = Repro_migrate.Mig_run.run cfg packs in
    Repro_migrate.Mig_run.render Format.std_formatter cfg rows;
    (match json with
    | Some path ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc (Repro_migrate.Mig_run.to_json cfg rows))
    | None -> ());
    if
      Repro_migrate.Mig_run.total_disagreements rows > 0
      || Repro_migrate.Mig_run.total_mismatches rows > 0
    then exit 1
  in
  let schemes =
    Arg.(
      value & opt (list string) []
      & info [ "schemes" ] ~docv:"NAMES"
          ~doc:
            "Comma-separated scheme names to migrate under; the default is every \
             well-behaved registered scheme.")
  in
  let nodes =
    Arg.(
      value & opt int 200
      & info [ "nodes" ] ~docv:"N" ~doc:"Initial generated document size per scheme.")
  in
  let steps =
    Arg.(
      value & opt int 48
      & info [ "steps" ] ~docv:"N"
          ~doc:"Migration operators per scheme, round-robin over the six kinds.")
  in
  let queries =
    Arg.(
      value & opt int 24
      & info [ "queries" ] ~docv:"N"
          ~doc:
            "Standing XPath/twig queries tracked through the storm and classified \
             survived / answer-changed / broken.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Also write the matrix as JSON to $(docv).")
  in
  Cmd.v
    (Cmd.info "migrate"
       ~doc:
         "Run a seeded schema-migration storm (wrap, unwrap, hoist, split, merge, \
          bulk rename) per labelling scheme, account the blast radius of each \
          operator kind, and verify every compiled plan against an oracle replay \
          on a byte-identical twin and every standing-query answer the survival \
          tracker kept against a full re-evaluation. Exits nonzero on any oracle \
          disagreement or survival mismatch.")
    Term.(const run $ schemes $ nodes $ steps $ queries $ seed_arg $ json)

(* ---- schemes ----------------------------------------------------- *)

let schemes_cmd =
  let run () =
    Printf.printf "%-18s %-8s %-9s %-14s %s\n" "Name" "Order" "Enc.Rep." "Family" "Citation";
    List.iter
      (fun pack ->
        let info = Core.Scheme.info pack in
        Printf.printf "%-18s %-8s %-9s %-14s %s%s\n" (Core.Scheme.name pack)
          (Core.Info.order_to_string info.Core.Info.order)
          (Core.Info.representation_to_string info.Core.Info.representation)
          (Core.Info.family_to_string info.Core.Info.family)
          info.Core.Info.citation
          (if info.Core.Info.in_figure7 then "" else "  [extension]"))
      Repro_schemes.Registry.all
  in
  Cmd.v (Cmd.info "schemes" ~doc:"List all registered labelling schemes.") Term.(const run $ const ())

(* ---- entry point ------------------------------------------------- *)

(* One line per subcommand, shown by a bare `xmlrepro` and on an unknown
   subcommand — kept here, next to the command list, so the two cannot
   drift apart silently (test/cli.t greps this output). *)
let subcommand_table =
  [
    ("label", "label a document under a chosen scheme");
    ("matrix", "recompute the paper's Figure 7 evaluation matrix");
    ("figures", "regenerate Figures 1-6");
    ("workload", "run an update workload and print label metrics");
    ("query", "evaluate an XPath expression over a document");
    ("update", "apply an XQuery-Update-style script to a document");
    ("twig", "match a tree pattern with structural joins");
    ("store", "label a document and persist it with its labels");
    ("restore", "reload a stored document and print its labels");
    ("journal", "durable updates: write-ahead log, checkpoint, recover");
    ("torture", "crash-consistency torture over a simulated file system");
    ("serve", "serve documents over the framed wire protocol");
    ("loadgen", "drive a server with a seeded multi-client workload");
    ("nettorture", "network-fault torture for the exactly-once update path");
    ("cluster", "launch a replicated, sharded cluster with failover");
    ("failover", "replication failover torture over simulated file systems");
    ("report", "run every experiment and emit a Markdown report");
    ("migrate", "schema-migration storm with blast-radius accounting");
    ("schemes", "list all registered labelling schemes");
  ]

let print_subcommands oc =
  output_string oc "subcommands:\n";
  List.iter (fun (n, d) -> Printf.fprintf oc "  %-10s %s\n" n d) subcommand_table;
  output_string oc "\nrun 'xmlrepro COMMAND --help' for the options of one of them\n"

let () =
  (* A typo'd subcommand gets the full table, not just cmdliner's
     suggestion list; exit code matches cmdliner's 124 convention. *)
  (match Array.to_list Sys.argv with
  | _ :: cmd :: _
    when String.length cmd > 0 && cmd.[0] <> '-'
         && not (List.mem_assoc cmd subcommand_table) ->
    Printf.eprintf "xmlrepro: unknown subcommand %S\n\n" cmd;
    print_subcommands stderr;
    exit 124
  | _ -> ());
  let info =
    Cmd.info "xmlrepro" ~version:"1.0.0"
      ~doc:
        "Dynamic XML labelling schemes: a reproduction of O'Connor & Roantree, \
         'Desirable Properties for XML Update Mechanisms' (EDBT 2010 workshops)."
  in
  let default = Term.(const (fun () -> print_subcommands stdout) $ const ()) in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [ label_cmd; matrix_cmd; figures_cmd; workload_cmd; query_cmd; update_cmd;
            twig_cmd; store_cmd; restore_cmd; journal_cmd; torture_cmd; serve_cmd;
            loadgen_cmd; nettorture_cmd; cluster_cmd; failover_cmd; report_cmd;
            migrate_cmd; schemes_cmd ]))
