(* Seeded network torture: run a scripted retrying client against an
   in-process server while Netsim breaks exactly one point of the socket
   conversation, for every point, for every fault kind — then
   machine-check the exactly-once contract against the document the
   server actually built. A negative control with dedup disabled must
   catch double-application, or the harness itself is broken. *)

open Repro_io
open Repro_xml
open Repro_journal
module P = Protocol
module Client = Server_client

type config = {
  nt_ops : int;
  nt_seeds : int;
  nt_points : int;
  nt_root : string;
  nt_log : string -> unit;
}

let default_config ~root =
  {
    nt_ops = 24;
    nt_seeds = 2;
    nt_points = 0;
    nt_root = root;
    nt_log = ignore;
  }

type result = {
  nt_swept : int;
  nt_injected : int;
  nt_acked : int;
  nt_unacked : int;
  nt_retries : int;
  nt_dedup_hits : int;
  nt_misfires : int;
  nt_control_swept : int;
  nt_control_doubles : int;
  nt_recovery_checks : int;
  nt_violations : string list;
}

let passed r =
  r.nt_violations = [] && r.nt_swept > 0 && r.nt_control_doubles > 0
  && r.nt_recovery_checks > 0

(* every fault kind the simulator knows, at every syscall coordinate *)
let fault_kinds =
  [
    ("drop", Netsim.Drop);
    ("reset", Netsim.Reset);
    ("trunc", Netsim.Truncate 3);
    ("part", Netsim.Partition 3);
    ("delay", Netsim.Delay 0.003);
  ]

(* the reply-losing kinds: the ones that force a retry of an applied
   batch, which is exactly what the dedup-disabled control must botch *)
let control_kinds = [ ("drop", Netsim.Drop); ("reset", Netsim.Reset) ]

let schemes = [| "QED"; "Vector"; "ORDPATH" |]
let points_per_doc = 25

type acc = {
  mutable a_swept : int;
  mutable a_injected : int;
  mutable a_acked : int;
  mutable a_unacked : int;
  mutable a_retries : int;
  mutable a_dedup : int;
  mutable a_misfires : int;
  mutable a_control_swept : int;
  mutable a_control_doubles : int;
  mutable a_recovery : int;
  mutable a_violations : string list;  (* reversed *)
}

let violate acc log msg =
  log ("VIOLATION " ^ msg);
  acc.a_violations <- msg :: acc.a_violations

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Sys.rmdir dir with Sys_error _ -> ()
  end

let server_config ~dedup root =
  {
    (Server.default_config ~root) with
    Server.dedup_window = dedup;
    recv_timeout = 10.;
    send_timeout = 10.;
    checkpoint_every = Some 64 (* frequent epochs: Marks must survive them *);
  }

(* The scripted workload: [ops] update requests, each inserting one or
   two uniquely-named elements under the root. Batch sizes are drawn from
   [seed] alone, so every point of a sweep has the same syscall shape as
   the probe run; names carry the point index, so the document itself
   records how many times each op landed. *)
let batch_names ~seed ~point ~ops =
  let rng = Random.State.make [| 0x6e7474; seed |] in
  List.init ops (fun i ->
      let k = 1 + Random.State.int rng 2 in
      List.init k (fun j -> Printf.sprintf "p%d_s%d_%d_%d" point seed i j))

let open_root admin ~doc ~scheme =
  match Client.open_doc admin ~doc ~scheme ~nodes:2 ~seed:7 with
  | Ok (P.Opened { ok_root; _ }) -> Some ok_root
  | _ -> None

(* one fault point: a fresh identified client replays the scripted mix
   through the faulty socket, retrying on transport errors *)
let scenario ~sock ~port ~doc ~client ~batches (rl : P.label) =
  let c =
    Client.connect ~sock ~timeout:2.0 ~client ~retries:8 ~backoff:0.001
      ~backoff_cap:0.02 ~host:"127.0.0.1" ~port ()
  in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let lab = { Oplog.l_bytes = rl.P.l_bytes; l_bits = rl.P.l_bits } in
  let outcomes =
    List.map
      (fun names ->
        let ops = List.map (fun n -> Oplog.Insert_last (lab, Tree.elt n [])) names in
        match Client.update c ~doc ops with
        | Ok (P.Updated { up_applied; up_dedup; _ }) ->
          (names, `Acked (up_applied, up_dedup))
        | Ok (P.Err (e, m)) -> (names, `Failed (P.err_name e ^ ": " ^ m))
        | Ok _ -> (names, `Failed "unexpected reply")
        | Error e -> (names, `Failed ("transport: " ^ e)))
      batches
  in
  (outcomes, Client.counters c)

(* how many times did each of [names] land in the document? *)
let count_names admin ~doc names =
  match Client.labels admin ~doc ~limit:200_000 with
  | Ok (P.Labels_r l) ->
    let h = Hashtbl.create 64 in
    List.iter (fun n -> Hashtbl.replace h n 0) names;
    List.iter
      (fun (_, _, nm) ->
        match Hashtbl.find_opt h nm with
        | Some k -> Hashtbl.replace h nm (k + 1)
        | None -> ())
      l;
    Some h
  | _ -> None

(* sweep one seed: probe the clean scenario to learn its syscall
   count S, then re-run it with a fault at every k in 1..S for every
   fault kind, verifying exactly-once after each point. In [control] mode
   the server's dedup window is disabled and double-applications are
   counted instead of condemned — the harness proving it can see the bug
   it exists to rule out. *)
let sweep cfg acc ~seed ~control =
  let tag = Printf.sprintf "seed %d%s" seed (if control then " (control)" else "") in
  let root =
    Filename.concat cfg.nt_root
      (Printf.sprintf "nt-%d%s" seed (if control then "-ctl" else ""))
  in
  rm_rf root;
  let dedup = if control then 0 else 128 in
  let srv = Server.start (server_config ~dedup root) in
  Fun.protect
    ~finally:(fun () ->
      ignore (Server.stop srv);
      rm_rf root)
  @@ fun () ->
  let port = Server.port srv in
  let admin = Client.connect ~host:"127.0.0.1" ~port () in
  Fun.protect ~finally:(fun () -> Client.close admin) @@ fun () ->
  let ns, faulty = Netsim.wrap Io.unix_sock in
  let fsock = Io.pack_sock faulty in
  (* probe: the clean scenario defines the fault-point coordinate space *)
  Netsim.clear ns;
  match open_root admin ~doc:"probe" ~scheme:"QED" with
  | None -> violate acc cfg.nt_log (tag ^ ": probe document failed to open")
  | Some rl ->
    let outcomes, _ =
      scenario ~sock:fsock ~port ~doc:"probe" ~client:(tag ^ "-probe")
        ~batches:(batch_names ~seed ~point:(-1) ~ops:cfg.nt_ops)
        rl
    in
    if List.exists (fun (_, o) -> match o with `Acked _ -> false | _ -> true) outcomes
    then
      violate acc cfg.nt_log (tag ^ ": probe run failed on a fault-free network")
    else begin
      let s = Netsim.calls ns in
      let kinds = if control then control_kinds else fault_kinds in
      let all =
        Array.of_list
          (List.concat_map
             (fun k -> List.map (fun f -> (k, f)) kinds)
             (List.init s (fun i -> i + 1)))
      in
      let n = Array.length all in
      let keep = if cfg.nt_points > 0 && cfg.nt_points < n then cfg.nt_points else n in
      cfg.nt_log
        (Printf.sprintf "%s: %d data syscalls/scenario, sweeping %d of %d fault points"
           tag s keep n);
      for pi = 0 to keep - 1 do
        let k, (fname, fault) = all.(pi * n / keep) in
        let doc = Printf.sprintf "d%d" (pi / points_per_doc) in
        let scheme = schemes.(pi / points_per_doc mod Array.length schemes) in
        let where = Printf.sprintf "%s point %d (%s@%d)" tag pi fname k in
        (* re-open each point: the current root label, whatever earlier
           points' inserts did to the numbering *)
        match open_root admin ~doc ~scheme with
        | None -> violate acc cfg.nt_log (where ^ ": open failed")
        | Some rl ->
          Netsim.arm ns [ (Netsim.At k, fault) ];
          let batches = batch_names ~seed ~point:pi ~ops:cfg.nt_ops in
          let outcomes, ctr =
            scenario ~sock:fsock ~port ~doc
              ~client:(Printf.sprintf "%s-p%d" tag pi)
              ~batches rl
          in
          let injected = Netsim.injected ns in
          Netsim.clear ns;
          if control then acc.a_control_swept <- acc.a_control_swept + 1
          else begin
            acc.a_swept <- acc.a_swept + 1;
            acc.a_injected <- acc.a_injected + injected;
            if injected = 0 then acc.a_misfires <- acc.a_misfires + 1;
            acc.a_retries <- acc.a_retries + ctr.Client.c_retries;
            acc.a_dedup <- acc.a_dedup + ctr.Client.c_dedup_hits
          end;
          (* an ack must describe the batch it answers: a fresh or cached
             reply for an n-op insert batch says applied = n — anything
             else means the reply stream got misattributed (this check is
             what caught a recycled-fd reply misrouting in the server's
             deferred-job path) *)
          List.iteri
            (fun bi (names, outcome) ->
              match outcome with
              | `Acked (applied, _) when applied <> List.length names && not control ->
                violate acc cfg.nt_log
                  (Printf.sprintf
                     "%s: batch %d acked applied=%d for a %d-op batch" where bi
                     applied (List.length names))
              | _ -> ())
            outcomes;
          (match count_names admin ~doc (List.concat batches) with
          | None -> violate acc cfg.nt_log (where ^ ": labels fetch failed")
          | Some counts ->
            List.iter
              (fun (names, outcome) ->
                let acked = match outcome with `Acked _ -> true | `Failed _ -> false in
                if not control then
                  if acked then acc.a_acked <- acc.a_acked + 1
                  else acc.a_unacked <- acc.a_unacked + 1;
                List.iter
                  (fun nm ->
                    let c = try Hashtbl.find counts nm with Not_found -> 0 in
                    if control then begin
                      if c > 1 then
                        acc.a_control_doubles <- acc.a_control_doubles + 1
                    end
                    else if c > 1 then
                      violate acc cfg.nt_log
                        (Printf.sprintf "%s: op %s applied %d times" where nm c)
                    else if acked && c = 0 then
                      violate acc cfg.nt_log
                        (Printf.sprintf "%s: acked op %s never applied" where nm))
                  names)
              outcomes)
      done
    end

(* recovery: an acked-and-durable update must survive a kill -9, and a
   retry of the same (client, seq) against the restarted server must be
   answered from the rebuilt dedup window, not re-applied. fsync_every=1
   makes the ack imply durability, so the check is exact. *)
let recovery cfg acc =
  let tag = "recovery" in
  let root = Filename.concat cfg.nt_root "nt-rec" in
  rm_rf root;
  let scfg =
    { (server_config ~dedup:128 root) with
      Server.fsync_every = 1;
      checkpoint_every = None
    }
  in
  let upd ~seq ~name rl =
    P.Update
      {
        u_doc = "rec";
        u_client = "rec-cli";
        u_seq = seq;
        u_ops =
          [ Oplog.Insert_last
              ({ Oplog.l_bytes = rl.P.l_bytes; l_bits = rl.P.l_bits }, Tree.elt name []);
          ];
      }
  in
  let srv = Server.start scfg in
  let first_root =
    let c = Client.connect ~host:"127.0.0.1" ~port:(Server.port srv) () in
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    match open_root c ~doc:"rec" ~scheme:"QED" with
    | None ->
      violate acc cfg.nt_log (tag ^ ": open failed");
      None
    | Some rl -> (
      match Client.request c (upd ~seq:1 ~name:"rec1" rl) with
      | Ok (P.Updated { up_dedup = false; up_applied = 1; _ }) -> Some rl
      | _ ->
        violate acc cfg.nt_log (tag ^ ": first apply was not acked");
        None)
  in
  Server.abort srv;
  match first_root with
  | None -> rm_rf root
  | Some rl ->
    let srv2 = Server.start scfg in
    Fun.protect
      ~finally:(fun () ->
        ignore (Server.stop srv2);
        rm_rf root)
    @@ fun () ->
    let c = Client.connect ~host:"127.0.0.1" ~port:(Server.port srv2) () in
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    (match open_root c ~doc:"rec" ~scheme:"QED" with
    | None -> violate acc cfg.nt_log (tag ^ ": reopen after abort failed")
    | Some _ -> ());
    (match Client.request c (upd ~seq:1 ~name:"rec1" rl) with
    | Ok (P.Updated { up_dedup = true; _ }) -> ()
    | Ok (P.Updated _) ->
      violate acc cfg.nt_log
        (tag ^ ": retried (client, seq) was re-applied after recovery, not deduped")
    | _ -> violate acc cfg.nt_log (tag ^ ": retried update not answered"));
    (match count_names c ~doc:"rec" [ "rec1" ] with
    | Some h when Hashtbl.find h "rec1" = 1 -> ()
    | Some h ->
      violate acc cfg.nt_log
        (Printf.sprintf "%s: rec1 present %d times across recovery" tag
           (Hashtbl.find h "rec1"))
    | None -> violate acc cfg.nt_log (tag ^ ": labels fetch failed"));
    (* a sequence below the recovered watermark is a protocol error, not
       a silent re-apply *)
    (match Client.request c (upd ~seq:0 ~name:"rec0" rl) with
    | Ok (P.Err (P.Bad_request, _)) -> ()
    | _ -> violate acc cfg.nt_log (tag ^ ": stale sequence was not rejected"));
    acc.a_recovery <- acc.a_recovery + 1

let run cfg =
  let acc =
    {
      a_swept = 0;
      a_injected = 0;
      a_acked = 0;
      a_unacked = 0;
      a_retries = 0;
      a_dedup = 0;
      a_misfires = 0;
      a_control_swept = 0;
      a_control_doubles = 0;
      a_recovery = 0;
      a_violations = [];
    }
  in
  for seed = 1 to max 1 cfg.nt_seeds do
    sweep cfg acc ~seed ~control:false
  done;
  sweep cfg acc ~seed:(max 1 cfg.nt_seeds + 1) ~control:true;
  recovery cfg acc;
  {
    nt_swept = acc.a_swept;
    nt_injected = acc.a_injected;
    nt_acked = acc.a_acked;
    nt_unacked = acc.a_unacked;
    nt_retries = acc.a_retries;
    nt_dedup_hits = acc.a_dedup;
    nt_misfires = acc.a_misfires;
    nt_control_swept = acc.a_control_swept;
    nt_control_doubles = acc.a_control_doubles;
    nt_recovery_checks = acc.a_recovery;
    nt_violations = List.rev acc.a_violations;
  }

let render r =
  let b = Buffer.create 256 in
  Printf.bprintf b
    "nettorture: %d fault points swept (%d injected, %d misfires), %d control points\n"
    r.nt_swept r.nt_injected r.nt_misfires r.nt_control_swept;
  Printf.bprintf b
    "  ops: %d acked, %d unacked; client resilience: %d retries, %d dedup hits\n"
    r.nt_acked r.nt_unacked r.nt_retries r.nt_dedup_hits;
  Printf.bprintf b
    "  control (dedup off) caught %d double-applications; %d recovery checks\n"
    r.nt_control_doubles r.nt_recovery_checks;
  List.iter (fun v -> Printf.bprintf b "  VIOLATION %s\n" v) r.nt_violations;
  Printf.bprintf b "RESULT points=%d violations=%d control_doubles=%d\n"
    (r.nt_swept + r.nt_control_swept)
    (List.length r.nt_violations) r.nt_control_doubles;
  Buffer.contents b
