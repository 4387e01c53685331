open Repro_codes
open Repro_journal
module P = Protocol

type config = {
  g_host : string;
  g_port : int;
  g_clients : int;
  g_ops : int;
  g_seed : int;
  g_schemes : string list;
  g_doc_prefix : string;
  g_nodes : int;
  g_docs : int;
  g_timeout : float;
  g_retries : int;
  g_backoff : float;
  g_sock : Repro_io.Io.sock;
  g_resolve : (string -> string * int) option;
  g_query_pct : int;
      (** [-1] = the classic mixed workload; [0..100] = the read-heavy mix:
          that percentage of ops are served Xpath/Twig queries, the rest
          mutations ([95] is the canonical web-traffic ratio) *)
  g_migrate_every : int;
      (** [0] = no schema migrations; [n > 0] = every [n]th step runs the
          migrate drill (insert a fresh node, wrap it) instead of a
          regular step, so the server's migrate/* gauges move *)
}

let default_config ~port =
  {
    g_host = "127.0.0.1";
    g_port = port;
    g_clients = 4;
    g_ops = 1_000;
    g_seed = 1;
    g_schemes = [ "QED"; "Vector"; "ORDPATH" ];
    g_doc_prefix = "doc";
    g_nodes = 120;
    g_docs = 0;
    g_timeout = 30.;
    g_retries = 0;
    g_backoff = 0.02;
    g_sock = Repro_io.Io.real_sock;
    g_resolve = None;
    g_query_pct = -1;
    g_migrate_every = 0;
  }

type class_report = {
  cr_class : string;
  cr_count : int;
  cr_errors : int;
  cr_p50_us : float;
  cr_p99_us : float;
  cr_mean_us : float;
}

type report = {
  r_clients : int;
  r_ops : int;
  r_errors : int;
  r_reseeds : int;
  r_retries : int;
  r_reconnects : int;
  r_dedup_hits : int;
  r_overloaded : int;
  r_seconds : float;
  r_ops_per_sec : float;
  r_classes : class_report list;
  r_error_codes : (string * int) list;
      (** failures by protocol error code (plus ["transport"]), count > 0 only *)
  r_server : (string * int) list;
      (** group-commit and event-loop gauges scraped from the server's
          Metrics reply after the run ("commit/...", "loop/...",
          "cfg/...", "shed/...", "dedup/..."), latest sample each *)
}

(* ---- label pools ----------------------------------------------------

   The generator is built to produce {e zero} protocol errors by
   construction, so any error the report counts is the server's fault:

   - anchors: labels of nodes the client will never delete (the root plus
     half its inserts) — safe as insert anchors and rename/set_value
     targets forever;
   - victims: the other half of its inserts, all childless elements (no
     insert ever targets them as parent), each deleted at most once;
   - extras: labels harvested from a Labels refresh, used only for
     label-only queries, which decode whether or not the node is alive.

   Clients touch disjoint documents, so no client invalidates another's
   labels. A scheme may still renumber the whole document under enough
   insertion pressure (Vector overflows a component past 2^21 - 1 and
   bulk-relabels); the server flags that reply with [up_relabelled], and
   the client reseeds its pools from the root before going on. *)

type pool = { mutable items : P.label array; mutable len : int }

let pool_create () = { items = Array.make 64 { P.l_bytes = ""; l_bits = 0 }; len = 0 }

let pool_add p l =
  if p.len = Array.length p.items then begin
    let bigger = Array.make (2 * p.len) l in
    Array.blit p.items 0 bigger 0 p.len;
    p.items <- bigger
  end;
  p.items.(p.len) <- l;
  p.len <- p.len + 1

let pool_pick rng p = p.items.(Prng.int rng p.len)

let pool_take rng p =
  let i = Prng.int rng p.len in
  let l = p.items.(i) in
  p.items.(i) <- p.items.(p.len - 1);
  p.len <- p.len - 1;
  l

(* ---- per-client worker --------------------------------------------- *)

type tally = {
  mutable t_lat : (string * int * bool) list;
      (** class, latency ns, ok — one per request *)
  mutable t_errors : int;
  mutable t_ops : int;
  mutable t_dead : string option;  (** what killed the client, if anything did *)
  mutable t_reseeds : int;  (** pool rebuilds after relabelling or shared churn *)
  mutable t_retries : int;  (** {!Server_client.counters}, read when the client ends *)
  mutable t_reconnects : int;
  mutable t_dedup_hits : int;
  mutable t_overloaded : int;
  t_codes : (string, int) Hashtbl.t;  (** error-code name -> count *)
}

let count_code tally code =
  Hashtbl.replace tally.t_codes code
    (1 + Option.value (Hashtbl.find_opt tally.t_codes code) ~default:0)

(* Retract the error bookkeeping [timed] just did for the newest request:
   used when a shared-document run classifies an Unknown_label reply as
   benign churn (another client renumbered the document) rather than a
   server fault. *)
let uncount_error tally code =
  tally.t_errors <- tally.t_errors - 1;
  (match Hashtbl.find_opt tally.t_codes code with
  | Some 1 -> Hashtbl.remove tally.t_codes code
  | Some n -> Hashtbl.replace tally.t_codes code (n - 1)
  | None -> ());
  match tally.t_lat with
  | (cls, ns, false) :: rest -> tally.t_lat <- (cls, ns, true) :: rest
  | _ -> ()

let timed tally cls f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let ns = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9) in
  tally.t_ops <- tally.t_ops + 1;
  let ok =
    match r with
    | Ok (P.Err (code, _)) ->
      tally.t_errors <- tally.t_errors + 1;
      count_code tally (P.err_name code);
      false
    | Ok _ -> true
    | Error _ ->
      (* the resilient client already redialed and resent per its retry
         budget; what surfaces here is a client-visible failure to count,
         not a reason to kill the worker — the next request redials *)
      tally.t_errors <- tally.t_errors + 1;
      count_code tally "transport";
      false
  in
  tally.t_lat <- (cls, max 0 ns, ok) :: tally.t_lat;
  r

let worker cfg i tally =
  let rng = Prng.create (cfg.g_seed + (1_000_003 * (i + 1))) in
  (* shared mode ([g_docs > 0]): clients gang up on a fixed set of
     documents instead of one each — the workload that gives cross-
     document group commit something to coalesce. Document identity
     (name, scheme, generator seed) depends only on the doc index, so
     every client of a document agrees on what it opens. *)
  let shared = cfg.g_docs > 0 in
  let docidx = if shared then i mod cfg.g_docs else i in
  let doc = Printf.sprintf "%s-%d" cfg.g_doc_prefix docidx in
  let scheme = List.nth cfg.g_schemes (docidx mod List.length cfg.g_schemes) in
  (* a stable per-worker identity: retried mutations carry the same
     (client, seq) and the server's dedup window makes them exactly-once *)
  let c =
    Server_client.connect ~sock:cfg.g_sock ~timeout:cfg.g_timeout
      ~client:(Printf.sprintf "%s-w%d-%d" cfg.g_doc_prefix i cfg.g_seed)
      ~retries:cfg.g_retries ~backoff:cfg.g_backoff
      ?resolve:(Option.map (fun f () -> f doc) cfg.g_resolve)
      ~host:cfg.g_host ~port:cfg.g_port ()
  in
  Fun.protect
    ~finally:(fun () ->
      let cs = Server_client.counters c in
      tally.t_retries <- cs.Server_client.c_retries;
      tally.t_reconnects <- cs.Server_client.c_reconnects;
      tally.t_dedup_hits <- cs.Server_client.c_dedup_hits;
      tally.t_overloaded <- cs.Server_client.c_overloaded;
      Server_client.close c)
  @@ fun () ->
  let anchors = pool_create () in
  let victims = pool_create () in
  let extras = pool_create () in
  let counter = ref 0 in
  let fresh_name pfx =
    incr counter;
    Printf.sprintf "%s%d_%d" pfx i !counter
  in
  (match
     timed tally "open" (fun () ->
         Server_client.open_doc c ~doc ~scheme ~nodes:cfg.g_nodes
           ~seed:(cfg.g_seed + docidx))
   with
  | Ok (P.Opened { ok_root; _ }) -> pool_add anchors ok_root
  | _ -> ());
  tally.t_ops <- 0;
  (* the open is not one of the measured ops *)
  let quota = cfg.g_ops in
  (* [up_relabelled] in a reply means the scheme renumbered the document
     out from under us: every pooled label is stale. Drop the pools and
     restart from the root's current label (the first preorder entry of a
     Labels fetch — not a measured op). *)
  let reseed_pools () =
    tally.t_reseeds <- tally.t_reseeds + 1;
    anchors.len <- 0;
    victims.len <- 0;
    extras.len <- 0;
    match Server_client.labels c ~doc ~limit:1 with
    | Ok (P.Labels_r ((l, _, _) :: _)) -> pool_add anchors l
    | _ -> ()
  in
  let mutation cls f =
    let r = timed tally cls f in
    (match r with
    | Ok (P.Updated { up_relabelled = true; _ }) -> reseed_pools ()
    | Ok (P.Err (P.Unknown_label, _)) when shared ->
      (* another client's churn renumbered the document out from under
         us: a stale label, not a server fault *)
      uncount_error tally (P.err_name P.Unknown_label);
      reseed_pools ()
    | _ -> ());
    r
  in
  let update cls op = mutation cls (fun () -> Server_client.update c ~doc [ op ]) in
  let insert () =
    let payload = Repro_xml.Tree.elt (fresh_name "u") [] in
    let op =
      match Prng.int rng 4 with
      | 0 -> Oplog.Insert_first (pool_pick rng anchors, payload)
      | 1 -> Oplog.Insert_last (pool_pick rng anchors, payload)
      | (2 | _) as k ->
        if anchors.len < 2 then Oplog.Insert_last (anchors.items.(0), payload)
        else
          (* never a sibling of the root: index 0 is the root *)
          let anchor = anchors.items.(1 + Prng.int rng (anchors.len - 1)) in
          if k = 2 then Oplog.Insert_before (anchor, payload)
          else Oplog.Insert_after (anchor, payload)
    in
    match update "insert" op with
    | Ok (P.Updated { up_fresh = [ l ]; _ }) ->
      if Prng.bool rng then pool_add anchors l else pool_add victims l
    | _ -> ()
  in
  (* the read-heavy mix's served queries: fixed shapes over the Docgen
     vocabulary, so every answer exercises the incremental index without
     depending on which random inserts this run happened to make *)
  let xpath_queries =
    [|
      "//item";
      "//section//field";
      "//entry[field]";
      "//group/@*";
      "/*/*";
      "//record[2]";
      "//item/following-sibling::*";
      "//list[count(item) > 0]";
    |]
  in
  let twig_queries = [| "item[field]"; "section[//field]"; "entry[field][//meta]" |] in
  let read_step () =
    if Prng.int rng 4 = 0 then
      let q = twig_queries.(Prng.int rng (Array.length twig_queries)) in
      ignore (timed tally "twig" (fun () -> Server_client.twig c ~doc ~limit:32 q))
    else
      let q = xpath_queries.(Prng.int rng (Array.length xpath_queries)) in
      ignore (timed tally "xpath" (fun () -> Server_client.xpath c ~doc ~limit:32 q))
  in
  let mutate_step () =
    let r = Prng.int rng 100 in
    if r < 60 then insert ()
    else if r < 75 then
      if victims.len = 0 then insert ()
      else ignore (update "delete" (Oplog.Delete (pool_take rng victims)))
    else if r < 90 then
      ignore (update "rename" (Oplog.Rename (pool_pick rng anchors, fresh_name "r")))
    else
      ignore
        (update "set-value"
           (Oplog.Replace_value
              ( pool_pick rng anchors,
                if Prng.bool rng then Some (fresh_name "v") else None )))
  in
  (* The migrate drill keeps the zero-errors-by-construction invariant:
     it wraps a node inserted for that purpose alone, so the only label
     the structural rewrite invalidates is one nothing else references. *)
  let migrate_step () =
    match
      update "insert"
        (Oplog.Insert_last
           (anchors.items.(0), Repro_xml.Tree.elt (fresh_name "m") []))
    with
    | Ok (P.Updated { up_fresh = [ l ]; _ }) ->
      ignore
        (mutation "migrate" (fun () ->
             Server_client.migrate c ~doc
               [ Repro_migrate.Migrate.S_wrap ([ l ], fresh_name "w") ]))
    | _ -> ()
  in
  let stepno = ref 0 in
  let step () =
    incr stepno;
    if cfg.g_migrate_every > 0 && !stepno mod cfg.g_migrate_every = 0 then
      migrate_step ()
    else if cfg.g_query_pct >= 0 then
      if Prng.int rng 100 < min 100 cfg.g_query_pct then read_step () else mutate_step ()
    else
    let r = Prng.int rng 100 in
    if r < 46 then insert ()
    else if r < 56 then
      if victims.len = 0 then insert ()
      else ignore (update "delete" (Oplog.Delete (pool_take rng victims)))
    else if r < 64 then
      ignore (update "rename" (Oplog.Rename (pool_pick rng anchors, fresh_name "r")))
    else if r < 72 then
      ignore
        (update "set-value"
           (Oplog.Replace_value
              ( pool_pick rng anchors,
                if Prng.bool rng then Some (fresh_name "v") else None )))
    else if r < 87 then begin
      let pick () =
        if extras.len > 0 && Prng.bool rng then pool_pick rng extras
        else pool_pick rng anchors
      in
      let a = pick () in
      let pred =
        match Prng.int rng 5 with
        | 0 -> P.Order (a, pick ())
        | 1 -> P.Ancestor (a, pick ())
        | 2 -> P.Parent (a, pick ())
        | 3 -> P.Sibling (a, pick ())
        | _ -> P.Level a
      in
      ignore (timed tally "query" (fun () -> Server_client.query c ~doc pred))
    end
    else if r < 93 then ignore (timed tally "stats" (fun () -> Server_client.stats c ~doc))
    else if r < 97 then (
      match
        timed tally "labels" (fun () -> Server_client.labels c ~doc ~limit:200)
      with
      | Ok (P.Labels_r entries) ->
        extras.len <- 0;
        List.iter (fun (l, _, _) -> pool_add extras l) entries
      | _ -> ())
    else ignore (timed tally "checkpoint" (fun () -> Server_client.checkpoint c ~doc))
  in
  let rec go () =
    if tally.t_ops < quota && tally.t_dead = None then begin
      (* an empty anchor pool means the open (or the last reseed) failed:
         try once more to find the root, and only a second failure kills
         the worker — a flaky network is survivable, a gone server not *)
      if anchors.len = 0 then reseed_pools ();
      if anchors.len = 0 then tally.t_dead <- Some "no usable root label"
      else step ();
      go ()
    end
  in
  go ()

(* ---- aggregation ---------------------------------------------------- *)

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    float_of_int sorted.(min (n - 1) (int_of_float (q *. float_of_int (n - 1) +. 0.5)))

let classes_of tallies =
  let by_class = Hashtbl.create 16 in
  List.iter
    (fun t ->
      List.iter
        (fun (cls, ns, ok) ->
          let lats, errs =
            Option.value (Hashtbl.find_opt by_class cls) ~default:([], 0)
          in
          Hashtbl.replace by_class cls (ns :: lats, if ok then errs else errs + 1))
        t.t_lat)
    tallies;
  Hashtbl.fold
    (fun cls (lats, errs) acc ->
      let a = Array.of_list lats in
      Array.sort compare a;
      let total = Array.fold_left ( + ) 0 a in
      let n = Array.length a in
      {
        cr_class = cls;
        cr_count = n;
        cr_errors = errs;
        cr_p50_us = percentile a 0.50 /. 1e3;
        cr_p99_us = percentile a 0.99 /. 1e3;
        cr_mean_us = float_of_int total /. float_of_int (max 1 n) /. 1e3;
      }
      :: acc)
    by_class []
  |> List.sort (fun a b -> String.compare a.cr_class b.cr_class)

(* Scrape the group-commit / event-loop gauges from the server once the
   run is over. Best-effort: a server that is already gone, or a cluster
   run (per-shard metrics, no single server to ask), yields []. *)
let fetch_server_gauges cfg =
  match cfg.g_resolve with
  | Some _ -> []
  | None -> (
    match Server_client.connect ~timeout:2.0 ~host:cfg.g_host ~port:cfg.g_port () with
    | exception _ -> []
    | c -> (
      Fun.protect ~finally:(fun () -> Server_client.close c) @@ fun () ->
      match Server_client.metrics c with
      | Ok (P.Metrics_r ms) ->
        List.filter_map
          (fun (m : P.metric) ->
            if
              List.exists
                (fun prefix -> String.starts_with ~prefix m.P.m_key)
                [ "commit/"; "loop/"; "cfg/"; "shed/"; "dedup/"; "query/";
                  "migrate/" ]
            then
              (* gauges carry their sample in m_total_ns, and timed
                 records (migrate/survival) their total time; the plain
                 counters in the family (commit/flush cycles, dedup hits,
                 shed refusals) carry theirs in m_count *)
              Some
                ( m.P.m_key,
                  if
                    List.mem m.P.m_key
                      [ "commit/flush"; "dedup/hit"; "shed/update"; "query/eval";
                        "query/paranoid"; "query/cache_hit"; "query/cache_miss";
                        "query/cache_miss_cold"; "query/cache_miss_stale";
                        "query/cache_miss_unsigned"; "query/cache_mismatch" ]
                  then m.P.m_count
                  else m.P.m_total_ns )
            else None)
          ms
      | _ -> []))

let run cfg =
  if cfg.g_clients < 1 then invalid_arg "Loadgen.run: need at least one client";
  if cfg.g_schemes = [] then invalid_arg "Loadgen.run: need at least one scheme";
  if cfg.g_docs < 0 then invalid_arg "Loadgen.run: g_docs must be >= 0";
  let per_client = max 1 (cfg.g_ops / cfg.g_clients) in
  let cfg = { cfg with g_ops = per_client } in
  let tallies =
    List.init cfg.g_clients (fun _ ->
        {
          t_lat = [];
          t_errors = 0;
          t_ops = 0;
          t_dead = None;
          t_reseeds = 0;
          t_retries = 0;
          t_reconnects = 0;
          t_dedup_hits = 0;
          t_overloaded = 0;
          t_codes = Hashtbl.create 4;
        })
  in
  let t0 = Unix.gettimeofday () in
  let threads =
    List.mapi
      (fun i tally ->
        Thread.create
          (fun () ->
            try worker cfg i tally
            with e ->
              tally.t_errors <- tally.t_errors + 1;
              tally.t_dead <- Some (Printexc.to_string e))
          ())
      tallies
  in
  List.iter Thread.join threads;
  let seconds = Unix.gettimeofday () -. t0 in
  let server = fetch_server_gauges cfg in
  let sum f = List.fold_left (fun acc t -> acc + f t) 0 tallies in
  let ops = sum (fun t -> t.t_ops) in
  let errors = sum (fun t -> t.t_errors) in
  let reseeds = sum (fun t -> t.t_reseeds) in
  let codes = Hashtbl.create 8 in
  List.iter
    (fun t ->
      Hashtbl.iter
        (fun code n ->
          Hashtbl.replace codes code
            (n + Option.value (Hashtbl.find_opt codes code) ~default:0))
        t.t_codes)
    tallies;
  let error_codes =
    Hashtbl.fold (fun code n acc -> (code, n) :: acc) codes []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  {
    r_clients = cfg.g_clients;
    r_ops = ops;
    r_errors = errors;
    r_reseeds = reseeds;
    r_retries = sum (fun t -> t.t_retries);
    r_reconnects = sum (fun t -> t.t_reconnects);
    r_dedup_hits = sum (fun t -> t.t_dedup_hits);
    r_overloaded = sum (fun t -> t.t_overloaded);
    r_seconds = seconds;
    r_ops_per_sec = (if seconds > 0. then float_of_int ops /. seconds else 0.);
    r_classes = classes_of tallies;
    r_error_codes = error_codes;
    r_server = server;
  }

(* ---- rendering ------------------------------------------------------ *)

let render report =
  let buf = Buffer.create 512 in
  Printf.bprintf buf "%-12s %8s %8s %10s %10s %10s\n" "class" "count" "errors"
    "p50(us)" "p99(us)" "mean(us)";
  List.iter
    (fun c ->
      Printf.bprintf buf "%-12s %8d %8d %10.1f %10.1f %10.1f\n" c.cr_class c.cr_count
        c.cr_errors c.cr_p50_us c.cr_p99_us c.cr_mean_us)
    report.r_classes;
  Printf.bprintf buf "%.2fs, %.0f ops/sec over %d client(s)\n" report.r_seconds
    report.r_ops_per_sec report.r_clients;
  if report.r_error_codes <> [] then
    Printf.bprintf buf "errors by code: %s\n"
      (String.concat ", "
         (List.map (fun (c, n) -> Printf.sprintf "%s=%d" c n) report.r_error_codes));
  if report.r_reseeds > 0 then
    Printf.bprintf buf "label pool reseeds: %d\n" report.r_reseeds;
  if
    report.r_retries + report.r_reconnects + report.r_dedup_hits + report.r_overloaded
    > 0
  then
    Printf.bprintf buf "resilience: retries=%d reconnects=%d dedup_hits=%d overloaded=%d\n"
      report.r_retries report.r_reconnects report.r_dedup_hits report.r_overloaded;
  if report.r_server <> [] then
    Printf.bprintf buf "server: %s\n"
      (String.concat ", "
         (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) report.r_server));
  Printf.bprintf buf "RESULT ops=%d errors=%d\n" report.r_ops report.r_errors;
  Buffer.contents buf

let to_json report =
  let buf = Buffer.create 512 in
  Printf.bprintf buf "{\n  \"benchmark\": \"server\",\n";
  Printf.bprintf buf "  \"clients\": %d,\n" report.r_clients;
  Printf.bprintf buf "  \"ops\": %d,\n" report.r_ops;
  Printf.bprintf buf "  \"errors\": %d,\n" report.r_errors;
  Printf.bprintf buf "  \"reseeds\": %d,\n" report.r_reseeds;
  Printf.bprintf buf "  \"retries\": %d,\n" report.r_retries;
  Printf.bprintf buf "  \"reconnects\": %d,\n" report.r_reconnects;
  Printf.bprintf buf "  \"dedup_hits\": %d,\n" report.r_dedup_hits;
  Printf.bprintf buf "  \"overloaded\": %d,\n" report.r_overloaded;
  Printf.bprintf buf "  \"seconds\": %.3f,\n" report.r_seconds;
  Printf.bprintf buf "  \"ops_per_sec\": %.1f,\n" report.r_ops_per_sec;
  Printf.bprintf buf "  \"classes\": [\n";
  List.iteri
    (fun i c ->
      Printf.bprintf buf
        "    {\"class\": %S, \"count\": %d, \"errors\": %d, \"p50_us\": %.1f, \
         \"p99_us\": %.1f, \"mean_us\": %.1f}%s\n"
        c.cr_class c.cr_count c.cr_errors c.cr_p50_us c.cr_p99_us c.cr_mean_us
        (if i = List.length report.r_classes - 1 then "" else ","))
    report.r_classes;
  Printf.bprintf buf "  ],\n";
  Printf.bprintf buf "  \"error_codes\": {%s},\n"
    (String.concat ", "
       (List.map (fun (c, n) -> Printf.sprintf "%S: %d" c n) report.r_error_codes));
  Printf.bprintf buf "  \"server\": {%s}\n"
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "%S: %d" k v) report.r_server));
  Printf.bprintf buf "}\n";
  Buffer.contents buf
