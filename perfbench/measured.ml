(* The measured run: the server in this process with its default
   configuration, driven by closed-loop clients over real sockets, then
   killed without a flush and recovered from its journals.

   Every check that fails raises [Check_failed] naming the check; the
   runner turns that into a non-zero exit. *)

module P = Repro_server.Protocol
module Server = Repro_server.Server
module C = Repro_server.Server_client
module Journal = Repro_journal.Journal
module Oplog = Repro_journal.Oplog
module Xpath = Repro_encoding.Xpath
module Twig = Repro_encoding.Twig
module Encoding = Repro_encoding.Encoding
module Axis_index = Repro_encoding.Axis_index
open Stat

exception Check_failed of string * string  (** check name, detail *)

let fail check fmt = Printf.ksprintf (fun s -> raise (Check_failed (check, s))) fmt

let host = "127.0.0.1"
let setup_repeats = 7
let recover_repeats = 5

(* ---- the document-size guard ----------------------------------------

   A generated document far below its stated size would make every
   figure of the run describe a different input than the workload
   claims. *)
let size_guard (ds : Gen.doc_spec) nodes =
  if 2 * nodes < ds.Gen.ds_nodes then
    Error
      (Printf.sprintf "%s opened with %d nodes, stated %d" ds.Gen.ds_name nodes ds.Gen.ds_nodes)
  else Ok ()

(* The guard must trip on a seed known to collapse: Docgen's seed 1 draws
   fanout 0 at the root and yields a single node. *)
let guard_self_check () =
  let ds = { Gen.ds_name = "guard-probe"; ds_scheme = "QED"; ds_nodes = 500; ds_seed = 1 } in
  let doc =
    Repro_workload.Docgen.generate ~seed:ds.Gen.ds_seed
      { Repro_workload.Docgen.default_shape with target_nodes = ds.Gen.ds_nodes }
  in
  match size_guard ds (Repro_xml.Tree.size doc) with
  | Error _ -> ()
  | Ok () ->
    fail "size-guard-control" "the guard accepted Docgen seed 1 (%d nodes)"
      (Repro_xml.Tree.size doc)

(* ---- per-client recording ------------------------------------------- *)

let classes =
  [| "insert"; "delete"; "rename"; "set-value"; "migrate"; "query"; "stats"; "labels";
     "xpath"; "twig"; "checkpoint"; "reseed" |]

let class_index =
  let h = Hashtbl.create 16 in
  Array.iteri (fun i c -> Hashtbl.add h c i) classes;
  fun c -> Hashtbl.find h c

type recorder = {
  ns : Vec.t;
  cls : Vec.t;
  mutable failed : int;
  mutable first_error : string option;
  mutable dead : string option;
}

let recorder () =
  { ns = Vec.create (); cls = Vec.create (); failed = 0; first_error = None; dead = None }

let note_failure rc cls msg =
  rc.failed <- rc.failed + 1;
  if rc.first_error = None then rc.first_error <- Some (cls ^ ": " ^ msg)

(* Closed loop: the next request leaves only after the previous reply.
   The client stops once its generator has taken [steps] more steps and
   owes no follow-up request. *)
let drive c gen ~steps rc =
  let target = Gen.steps gen + steps in
  while Gen.steps gen < target || Gen.owes gen do
    let req, cls, expect = Gen.next gen in
    let t0 = Stat.now_ns () in
    let r = C.request c req in
    let t1 = Stat.now_ns () in
    (match r with
    | Ok (P.Err (e, msg)) -> note_failure rc cls (P.err_name e ^ " " ^ msg)
    | Ok (P.Query_error { qe_msg; _ }) -> note_failure rc cls ("query error " ^ qe_msg)
    | Error reason -> note_failure rc cls ("transport " ^ reason)
    | Ok resp -> Gen.observe gen expect resp);
    Vec.push rc.ns (t1 - t0);
    Vec.push rc.cls (class_index cls)
  done

(* One round: every client takes the same number of steps; the round
   lasts until the last client is done. *)
let run_round clients gens ~steps =
  let rcs = Array.map (fun _ -> recorder ()) clients in
  let t0 = now_ns () in
  let threads =
    Array.mapi
      (fun i c ->
        Thread.create
          (fun () ->
            try drive c gens.(i) ~steps rcs.(i)
            with e -> rcs.(i).dead <- Some (Printexc.to_string e))
          ())
      clients
  in
  Array.iter Thread.join threads;
  let ns = now_ns () - t0 in
  Array.iter
    (fun rc -> match rc.dead with Some e -> fail "client" "client thread died: %s" e | None -> ())
    rcs;
  (rcs, ns)

(* ---- server metrics ------------------------------------------------- *)

let scrape admin =
  match C.metrics admin with
  | Ok (P.Metrics_r ms) ->
    let h = Hashtbl.create 64 in
    List.iter (fun (m : P.metric) -> Hashtbl.replace h m.P.m_key m) ms;
    h
  | Ok _ -> fail "metrics" "unexpected reply"
  | Error e -> fail "metrics" "transport: %s" e

let m_count h k = match Hashtbl.find_opt h k with Some m -> m.P.m_count | None -> 0
let m_total h k = match Hashtbl.find_opt h k with Some m -> m.P.m_total_ns | None -> 0
let m_gauge h k = Option.map (fun m -> m.P.m_total_ns) (Hashtbl.find_opt h k)

(* ---- set-up --------------------------------------------------------- *)

type live = {
  srv : Server.t;
  dir : string;
  admin : C.t;
  clients : C.t array;
}

(* Open the round's copy of every corpus document; each document's name,
   root label and node count at open. *)
let open_docs admin (w : Gen.workload) ~round =
  Array.map
    (fun (ds : Gen.doc_spec) ->
      let doc = Gen.doc_name w ds ~round in
      match
        C.open_doc admin ~doc ~scheme:ds.Gen.ds_scheme ~nodes:ds.Gen.ds_nodes ~seed:ds.Gen.ds_seed
      with
      | Ok (P.Opened { ok_root; ok_nodes; _ }) -> (
        match size_guard ds ok_nodes with
        | Ok () -> (doc, ok_root, ok_nodes)
        | Error msg -> fail "size-guard" "%s" msg)
      | Ok (P.Err (e, msg)) -> fail "open" "%s: %s %s" doc (P.err_name e) msg
      | Ok _ -> fail "open" "%s: unexpected reply" doc
      | Error e -> fail "open" "%s: transport %s" doc e)
    w.Gen.w_docs

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path

let start (w : Gen.workload) ~seed ~dir =
  let srv = Server.start (Server.default_config ~root:dir) in
  let port = Server.port srv in
  let admin = C.connect ~host ~port () in
  let clients =
    Array.init w.Gen.w_clients (fun i ->
        C.connect ~client:(Printf.sprintf "%s-c%d-s%d" w.Gen.w_name i seed) ~retries:2 ~host ~port ())
  in
  let opened = open_docs admin w ~round:0 in
  ({ srv; dir; admin; clients }, opened)

let close_clients l =
  Array.iter C.close l.clients;
  C.close l.admin

(* Set up [setup_repeats] times from scratch and keep the last server:
   set-up time is the median, so one slow start does not decide it. *)
let set_up w ~seed ~root =
  let rec go i acc =
    let dir = Filename.concat root (Printf.sprintf "server-%d" i) in
    let t0 = now_ns () in
    let l, opened = start w ~seed ~dir in
    let dt = now_ns () - t0 in
    if i + 1 < setup_repeats then begin
      close_clients l;
      ignore (Server.stop l.srv);
      rm_rf dir;
      go (i + 1) (s_of_ns dt :: acc)
    end
    else (l, opened, List.rev (s_of_ns dt :: acc))
  in
  go 0 []

(* ---- the final state ------------------------------------------------ *)

let stats_of admin doc =
  match C.stats admin ~doc with
  | Ok (P.Stats_r st) -> { st with P.st_lag = [] }
  | Ok _ -> fail "stats" "%s: unexpected reply" doc
  | Error e -> fail "stats" "%s: transport %s" doc e

(* Every acknowledged reply is already durable, but the flusher may still
   be absorbing the log into a checkpoint; wait until the published state
   has held still for a while. *)
let settled_stats admin docs =
  let deadline = now_ns () + 20_000_000_000 in
  let sweep () = List.map (fun d -> (d, stats_of admin d)) docs in
  let rec go prev same =
    if same >= 4 then prev
    else if now_ns () > deadline then fail "settle" "stats never settled"
    else begin
      Unix.sleepf 0.05;
      let st = sweep () in
      go st (if st = prev then same + 1 else 0)
    end
  in
  go (sweep ()) 0

(* Recovery time follows the log a kill leaves behind: how far the window
   got into the checkpoint cycle, and which operations the tail holds (a
   delete makes the next replayed record rebuild the label resolver). So
   before the kill each document is brought to the same tail whatever the
   seed: fixed cycles of insert, rename, set-value and delete of a fresh
   node under the root until an explicit checkpoint really runs, then
   exactly [tail_cycles] cycles more. *)
let tail_cycles = 128

(* the reply's fresh labels and whether the scheme relabelled *)
let updated check = function
  | Ok (P.Updated { up_fresh; up_relabelled; _ }) -> (up_fresh, up_relabelled)
  | Ok (P.Err (e, msg)) -> fail check "%s %s" (P.err_name e) msg
  | Ok _ -> fail check "unexpected reply"
  | Error e -> fail check "transport %s" e

let root_label admin doc =
  match C.labels admin ~doc ~limit:1 with
  | Ok (P.Labels_r ((l, _, _) :: _)) -> l
  | _ -> fail "log-tail" "%s: no root label" doc

let tail_cycle admin doc root =
  let op o = updated "log-tail" (C.update admin ~doc [ o ]) in
  let fresh, rel0 = op (Oplog.Insert_last (root, Repro_xml.Tree.elt "tail" [])) in
  let fresh = match fresh with [ l ] -> l | _ -> fail "log-tail" "%s: no fresh label" doc in
  let _, rel1 = op (Oplog.Rename (fresh, "tailed")) in
  let _, rel2 = op (Oplog.Replace_value (fresh, Some "v")) in
  let _, rel3 = op (Oplog.Delete fresh) in
  if rel0 || rel1 || rel2 || rel3 then root_label admin doc else root

let fix_log_tail admin doc =
  let epoch0 = (stats_of admin doc).P.st_epoch in
  let rec roll root tries =
    if tries > 64 then fail "log-tail" "%s: no checkpoint after %d cycles" doc (16 * tries);
    let root = ref root in
    for _ = 1 to 16 do
      root := tail_cycle admin doc !root
    done;
    match C.checkpoint admin ~doc with
    | Ok (P.Checkpointed e) when e > epoch0 -> !root
    | Ok (P.Checkpointed _) -> roll !root (tries + 1)
    | Ok _ -> fail "log-tail" "%s: checkpoint refused" doc
    | Error e -> fail "log-tail" "%s: transport %s" doc e
  in
  let root = ref (roll (root_label admin doc) 0) in
  for _ = 1 to tail_cycles do
    root := tail_cycle admin doc !root
  done

let final_query_totals admin doc =
  let serve f q =
    match f q with
    | Ok (P.Query_r { qy_total; _ }) -> (q, qy_total)
    | Ok _ -> fail "final-query" "%s: %S not answered" doc q
    | Error e -> fail "final-query" "%s: %S transport %s" doc q e
  in
  Array.to_list
    (Array.map (serve (fun q -> C.xpath admin ~doc ~limit:32 q)) Gen.xpath_queries)
  @ Array.to_list (Array.map (serve (fun q -> C.twig admin ~doc ~limit:32 q)) Gen.twig_queries)

(* ---- recovery and its checks ---------------------------------------- *)

(* The recovered journal must hold exactly what the last acknowledged
   Stats reply described: the same tree size and label statistics, and
   in the same epoch, every log byte the server had written. *)
let durability_problems (st : P.stats_reply) j session =
  let p = ref [] in
  let check ok fmt = Printf.ksprintf (fun s -> if not ok then p := s :: !p) fmt in
  let nodes = Core.Session.node_count session in
  check (nodes = st.P.st_nodes) "nodes %d, acknowledged %d" nodes st.P.st_nodes;
  let bits = Core.Session.total_bits session in
  check (bits = st.P.st_total_bits) "total label bits %d, acknowledged %d" bits st.P.st_total_bits;
  let mx = Core.Session.max_bits session in
  check (mx = st.P.st_max_bits) "max label bits %d, acknowledged %d" mx st.P.st_max_bits;
  check (Journal.epoch j = st.P.st_epoch) "epoch %d, acknowledged %d" (Journal.epoch j) st.P.st_epoch;
  check
    (Journal.log_size j = st.P.st_log_bytes)
    "log prefix %d bytes, acknowledged %d" (Journal.log_size j) st.P.st_log_bytes;
  List.rev !p

let base_of dir doc = Filename.concat dir (doc ^ ".journal")

let copy_file src dst =
  let data = In_channel.with_open_bin src In_channel.input_all in
  Out_channel.with_open_bin dst (fun oc -> Out_channel.output_string oc data)

(* Negative control: the same check over a copy of one journal whose last
   record is cut off must report a problem. *)
let negative_control ~dir ~copy_dir doc (st : P.stats_reply) =
  let base = base_of dir doc in
  let epoch = st.P.st_epoch in
  let log = Journal.log_path ~base ~epoch in
  let data = In_channel.with_open_bin log In_channel.input_all in
  let j0, _, _ = Journal.recover ~base () in
  let start = Journal.log_start j0 in
  Journal.close j0;
  let rec last_record pos prev =
    match Oplog.read_record data pos with
    | Oplog.Record (_, next) -> last_record next (Some pos)
    | Oplog.End_of_log | Oplog.Torn _ -> prev
  in
  match last_record start None with
  | None -> fail "negative-control" "%s: log has no record to drop" doc
  | Some cut ->
    Unix.mkdir copy_dir 0o755;
    let cbase = base_of copy_dir doc in
    copy_file base cbase;
    copy_file (Journal.snapshot_path ~base ~epoch) (Journal.snapshot_path ~base:cbase ~epoch);
    Out_channel.with_open_bin (Journal.log_path ~base:cbase ~epoch) (fun oc ->
        Out_channel.output_string oc (String.sub data 0 cut));
    let j, session, _ = Journal.recover ~base:cbase () in
    let problems = durability_problems st j session in
    Journal.close j;
    rm_rf copy_dir;
    if problems = [] then
      fail "negative-control" "%s: dropping the last record went unnoticed" doc

(* The scan reference is quadratic on a large document; the two halves of
   the query list run on two domains, the server being gone by now. *)
let scan_totals session =
  let enc = Encoding.of_doc session.Core.Session.doc in
  let idx = Axis_index.build enc in
  let jobs =
    Array.to_list (Array.map (fun q () -> (q, List.length (Xpath.eval_scan enc q))) Gen.xpath_queries)
    @ Array.to_list
        (Array.map (fun q () -> (q, List.length (Twig.matches idx (Twig.parse q)))) Gen.twig_queries)
  in
  let other, mine = List.partition (fun (i, _) -> i mod 2 = 0) (List.mapi (fun i j -> (i, j)) jobs) in
  let run = List.map (fun (i, j) -> (i, j ())) in
  let d = Domain.spawn (fun () -> run other) in
  let here = run mine in
  List.sort compare (Domain.join d @ here) |> List.map snd

(* ---- the run -------------------------------------------------------- *)

type round = {
  rd_s : float;  (** wall time from the first request to the last reply *)
  rd_requests : int;
  rd_update_p50_us : float;  (** nan when the round sent no update *)
  rd_update_mean_us : float;
  rd_p50_us : float;
  rd_mean_us : float;
}

type result = {
  attempted : int;
  failed : int;
  window_s : float;  (** the measured rounds' time together *)
  rounds : round list;
  lat : (string * int array) list;  (** class -> ascending latencies, ns *)
  setup_s : float;
  recover_s : float;
  open_nodes : (string * int) list;
  end_nodes : (string * int) list;
  records_replayed : int;
  retries : int;
  server_before : (string, P.metric) Hashtbl.t;
  server_after : (string, P.metric) Hashtbl.t;
  config : (string * int) list;
}

let warmup_s seconds = Float.min 2.0 (0.2 *. float_of_int seconds)

let sorted_latencies rcs keep =
  let xs = ref [] in
  Array.iter
    (fun rc ->
      for k = 0 to Vec.length rc.ns - 1 do
        if keep (Vec.get rc.cls k) then xs := Vec.get rc.ns k :: !xs
      done)
    rcs;
  let a = Array.of_list !xs in
  Array.sort compare a;
  a

let is_update ci = Gen.group_of_class classes.(ci) = Gen.Update

let mean_us a =
  if Array.length a = 0 then nan
  else us_of_ns (Array.fold_left ( + ) 0 a) /. float_of_int (Array.length a)

let round_of rcs ns =
  let upd = sorted_latencies rcs is_update and all = sorted_latencies rcs (fun _ -> true) in
  {
    rd_s = s_of_ns ns;
    rd_requests = Array.length all;
    rd_update_p50_us = percentile upd 0.5 /. 1e3;
    rd_update_mean_us = mean_us upd;
    rd_p50_us = percentile all 0.5 /. 1e3;
    rd_mean_us = mean_us all;
  }

let run (w : Gen.workload) ~seed ~seconds ~root ~log =
  let start = now_ns () in
  let phase name = log (Printf.sprintf "[%7.2f s] %s" (s_of_ns (now_ns () - start)) name) in
  guard_self_check ();
  let l, opened0, setups = set_up w ~seed ~root in
  let setup_s = median_float setups in
  phase
    (Printf.sprintf "set up %d times: %s s" setup_repeats
       (String.concat " " (List.map (Printf.sprintf "%.4f") setups)));
  let aborted = ref false in
  Fun.protect
    ~finally:(fun () ->
      if not !aborted then begin
        close_clients l;
        Server.abort l.srv
      end)
  @@ fun () ->
  (* every document opened, in order: name, node count at open *)
  let opened = ref [] in
  let gens_of round docs =
    Array.iteri
      (fun i (d, _, nodes) ->
        let ds = w.Gen.w_docs.(i) in
        log (Printf.sprintf "open %s (%s): %d nodes, stated %d" d ds.Gen.ds_scheme nodes ds.Gen.ds_nodes);
        opened := (d, nodes) :: !opened)
      docs;
    Array.init w.Gen.w_clients (fun i ->
        let _, root, _ = docs.(w.Gen.w_doc_of_client i) in
        Gen.create w ~seed ~client:i ~round ~root)
  in
  let gens = ref (gens_of 0 opened0) in
  (* the discarded set-ups left their documents behind as garbage; collect
     it now rather than at some point inside the window *)
  Gc.compact ();
  let round = ref 0 in
  let next_round () =
    if w.Gen.w_fresh_docs && !round > 0 then
      gens := gens_of !round (open_docs l.admin w ~round:!round)
    else
      (* the server drops a connection idle past its receive timeout *)
      (match C.ping l.admin with Ok () -> () | Error e -> fail "admin" "ping: %s" e);
    let rcs, ns = run_round l.clients !gens ~steps:w.Gen.w_round_steps in
    incr round;
    (rcs, ns)
  in
  let warm_until = now_ns () + int_of_float (warmup_s seconds *. 1e9) in
  while now_ns () < warm_until do
    Array.iter
      (fun (rc : recorder) ->
        if rc.failed > 0 then
          fail "no-failed-requests" "warm-up: %d failed, first %s" rc.failed
            (Option.value rc.first_error ~default:""))
      (fst (next_round ()))
  done;
  phase (Printf.sprintf "warmed up over %d rounds" !round);
  let before = scrape l.admin in
  (* measured rounds until they add up to the window; opening a round's
     fresh documents happens between rounds, outside it *)
  let window_ns = seconds * 1_000_000_000 in
  let rec measure spent acc =
    if spent >= window_ns then List.rev acc
    else
      let ((_, ns) as rd) = next_round () in
      measure (spent + ns) (rd :: acc)
  in
  let measured = measure 0 [] in
  let after = scrape l.admin in
  let all_rcs = Array.concat (List.map fst measured) in
  let attempted = Array.fold_left (fun acc (rc : recorder) -> acc + Vec.length rc.ns) 0 all_rcs in
  let failed = Array.fold_left (fun acc (rc : recorder) -> acc + rc.failed) 0 all_rcs in
  Array.iter
    (fun rc ->
      match rc.first_error with Some e -> log ("first failed request: " ^ e) | None -> ())
    all_rcs;
  let rounds = List.map (fun (rcs, ns) -> round_of rcs ns) measured in
  let retries =
    Array.fold_left (fun acc c -> acc + (C.counters c).C.c_retries) 0 l.clients
  in
  let lat =
    Array.to_list (Array.mapi (fun ci name -> (name, sorted_latencies all_rcs (( = ) ci))) classes)
    |> List.filter (fun (_, a) -> Array.length a > 0)
  in
  let all_docs = List.rev_map fst !opened in
  (* the documents the clients were on when the window closed *)
  let last_docs = Array.to_list (Array.map (fun ds -> Gen.doc_name w ds ~round:(!round - 1)) w.Gen.w_docs) in
  phase (Printf.sprintf "window closed after %d rounds" (List.length rounds));
  List.iter (fix_log_tail l.admin) last_docs;
  phase "log tail fixed";
  (* final state: settled stats per document, and on query workloads the
     served totals the recovered document must reproduce *)
  let served =
    match w.Gen.w_mix with
    | Gen.Read_heavy _ -> List.map (fun d -> (d, final_query_totals l.admin d)) last_docs
    | _ -> []
  in
  let finals = settled_stats l.admin all_docs in
  let config =
    List.filter_map
      (fun k -> Option.map (fun v -> (k, v)) (m_gauge after ("cfg/" ^ k)))
      [ "fsync_every"; "commit_interval_us"; "commit_max"; "loop_domains" ]
  in
  close_clients l;
  Server.abort l.srv;
  aborted := true;
  phase "killed";
  let recover ~check (doc, st) =
    let t0 = now_ns () in
    let j, session, rc = Journal.recover ~base:(base_of l.dir doc) () in
    let dt = now_ns () - t0 in
    if check then begin
      (match durability_problems st j session with
      | [] -> ()
      | ps -> fail "durability" "%s: %s" doc (String.concat "; " ps));
      match List.assoc_opt doc served with
      | Some totals ->
        List.iter2
          (fun (q, got) (_, want) ->
            if got <> want then
              fail "query-vs-scan" "%s: %S served %d rows, scan reference %d" doc q got want)
          totals (scan_totals session)
      | None -> ()
    end;
    Journal.close j;
    (dt, rc.Journal.r_records)
  in
  (* every document is checked once; recovery is timed over the last
     round's documents, whose logs end on the same fixed tail *)
  List.iter (fun f -> ignore (recover ~check:true f)) finals;
  let last_finals = List.filter (fun (d, _) -> List.mem d last_docs) finals in
  let passes =
    List.init recover_repeats (fun _ ->
        List.fold_left
          (fun (ns, records) f ->
            let dt, r = recover ~check:false f in
            (ns + dt, records + r))
          (0, 0) last_finals)
  in
  phase (Printf.sprintf "recovered and checked %d documents" (List.length finals));
  let recover_ns = List.map (fun (ns, _) -> float_of_int ns) passes in
  let records_replayed = snd (List.hd passes) in
  (* the control runs on the document with the most log bytes *)
  let doc, st =
    List.fold_left
      (fun (bd, bs) (d, s) -> if s.P.st_log_bytes > bs.P.st_log_bytes then (d, s) else (bd, bs))
      (List.hd finals) (List.tl finals)
  in
  negative_control ~dir:l.dir ~copy_dir:(Filename.concat root "negative-control") doc st;
  phase "negative control tripped";
  {
    attempted;
    failed;
    window_s = List.fold_left (fun acc r -> acc +. r.rd_s) 0. rounds;
    rounds;
    lat;
    setup_s;
    recover_s = median_float recover_ns /. 1e9;
    open_nodes = List.rev !opened;
    end_nodes = List.map (fun (d, st) -> (d, st.P.st_nodes)) finals;
    records_replayed;
    retries;
    server_before = before;
    server_after = after;
    config;
  }
