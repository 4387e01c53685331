(* The replication and sharding layer, bottom-up: Journal.ship hands out
   whole durable records only, Ship.bootstrap/apply reproduce the
   primary's state byte-for-byte (and refuse anything out of sequence),
   Journal.create atomically supersedes a journal left behind by an
   earlier life of the document, the topology codec round-trips and
   places documents stably, a real primary/replica server pair converges
   over loopback sockets and survives promotion, a retrying client chases
   a Not_primary bounce and a topology rewrite, and the failover torture
   harness passes clean —
   while a deliberately broken file system makes it scream. *)

open Repro_xml
open Repro_journal
module P = Repro_server.Protocol
module Server = Repro_server.Server
module Client = Repro_server.Server_client
module T = Repro_torture.Torture
module Topology = Repro_cluster.Topology

let check = Alcotest.check

let fresh_base () = Fixture.fresh_path "xclu"
let rm_rf = Fixture.rm_rf

let rm_journal base =
  (* a journal at [base] is base.manifest plus per-epoch .snap/.log files *)
  let dir = Filename.dirname base and stem = Filename.basename base in
  Array.iter
    (fun f ->
      if String.starts_with ~prefix:stem f then
        try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (try Sys.readdir dir with Sys_error _ -> [||])

let pack = Option.get (Repro_schemes.Registry.find "QED")

let with_pair f =
  (* one primary durable session and one follower, real file system *)
  let p_base = fresh_base () and r_base = fresh_base () in
  let live = Core.Session.make pack (T.make_doc 5) in
  let d = Durable_session.create ~fsync_every:max_int ~base:p_base live in
  Fun.protect
    ~finally:(fun () ->
      (try Durable_session.close d with _ -> ());
      rm_journal p_base;
      rm_journal r_base)
    (fun () -> f d p_base r_base)

let grow session n =
  let s = session in
  let root = Tree.root s.Core.Session.doc in
  for i = 1 to n do
    ignore (s.Core.Session.insert_last root (Tree.elt (Printf.sprintf "c%d" i) []))
  done

(* ---- Journal.ship ---------------------------------------------------- *)

let ship_only_durable () =
  with_pair @@ fun d _ _ ->
  let j = Durable_session.journal d in
  grow (Durable_session.session d) 5;
  (* nothing flushed: the durable prefix is still the empty log *)
  let data, durable_end = Journal.ship j ~from:(Journal.log_start j) ~limit:1_000_000 in
  check Alcotest.string "nothing durable yet" "" data;
  check Alcotest.int "durable end is the log start" (Journal.log_start j) durable_end;
  Journal.flush j;
  let data, durable_end = Journal.ship j ~from:(Journal.log_start j) ~limit:1_000_000 in
  check Alcotest.bool "records shipped after flush" true (String.length data > 0);
  check Alcotest.int "durable end tracks the flush"
    (Journal.durable_position j).Journal.p_offset durable_end;
  check Alcotest.int "whole durable prefix shipped"
    (durable_end - Journal.log_start j)
    (String.length data)

let ship_first_record_whole () =
  with_pair @@ fun d _ _ ->
  let j = Durable_session.journal d in
  grow (Durable_session.session d) 3;
  Journal.flush j;
  (* a 1-byte budget must still make progress: the first record ships
     whole, and walking record-by-record covers the prefix exactly *)
  let rec walk from acc =
    let data, durable_end = Journal.ship j ~from ~limit:1 in
    if data = "" then (acc, from, durable_end)
    else walk (from + String.length data) (acc ^ data)
  in
  let all, final, durable_end = walk (Journal.log_start j) "" in
  let whole, _ = Journal.ship j ~from:(Journal.log_start j) ~limit:max_int in
  check Alcotest.string "byte-identical coverage" whole all;
  check Alcotest.int "walked to the durable end" durable_end final

(* ---- Ship: bootstrap, apply, divergence ------------------------------ *)

let bootstrap_and_apply () =
  with_pair @@ fun d _ r_base ->
  let j = Durable_session.journal d in
  grow (Durable_session.session d) 7;
  Journal.flush j;
  let f =
    Ship.bootstrap ~fsync_every:max_int ~base:r_base ~snapshot:(Journal.snapshot_bytes j)
      ~pos:{ Journal.p_epoch = Journal.epoch j; p_offset = Journal.log_start j }
      ()
  in
  Fun.protect ~finally:(fun () -> try Ship.close f with _ -> ()) @@ fun () ->
  let data, _ = Journal.ship j ~from:(Journal.log_start j) ~limit:max_int in
  let n =
    Ship.apply f ~epoch:(Journal.epoch j) ~offset:(Journal.log_start j) data
  in
  check Alcotest.int "every journaled op applied" 7 n;
  check Alcotest.bool "follower at the primary's durable position" true
    (Ship.position f = Journal.durable_position j);
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "replica tree mirrors the primary"
    (List.map (fun (n, _, _, l) -> (n, l)) (T.flat (Durable_session.session d)))
    (List.map (fun (n, _, _, l) -> (n, l)) (T.flat (Ship.session f)))

let apply_out_of_sync () =
  with_pair @@ fun d _ r_base ->
  let j = Durable_session.journal d in
  grow (Durable_session.session d) 4;
  Journal.flush j;
  let f =
    Ship.bootstrap ~fsync_every:max_int ~base:r_base ~snapshot:(Journal.snapshot_bytes j)
      ~pos:{ Journal.p_epoch = Journal.epoch j; p_offset = Journal.log_start j }
      ()
  in
  Fun.protect ~finally:(fun () -> try Ship.close f with _ -> ()) @@ fun () ->
  let data, _ = Journal.ship j ~from:(Journal.log_start j) ~limit:max_int in
  let boom name g =
    match g () with
    | (_ : int) -> Alcotest.fail (name ^ " did not raise Out_of_sync")
    | exception Ship.Out_of_sync _ -> ()
  in
  boom "wrong offset" (fun () ->
      Ship.apply f ~epoch:(Journal.epoch j) ~offset:(Journal.log_start j + 1) data);
  boom "wrong epoch" (fun () ->
      Ship.apply f ~epoch:(Journal.epoch j + 1) ~offset:(Journal.log_start j) data);
  boom "torn batch" (fun () ->
      Ship.apply f ~epoch:(Journal.epoch j) ~offset:(Journal.log_start j)
        (String.sub data 0 (String.length data - 1)));
  (* the follower survived every rejection unmoved *)
  let n = Ship.apply f ~epoch:(Journal.epoch j) ~offset:(Journal.log_start j) data in
  check Alcotest.int "clean batch still applies" 4 n

let bad_snapshot_rejected () =
  let r_base = fresh_base () in
  Fun.protect ~finally:(fun () -> rm_journal r_base) @@ fun () ->
  match
    Ship.bootstrap ~fsync_every:max_int ~base:r_base ~snapshot:"not a snapshot"
      ~pos:{ Journal.p_epoch = 1; p_offset = 9 }
      ()
  with
  | (_ : Ship.t) -> Alcotest.fail "garbage snapshot accepted"
  | exception Ship.Out_of_sync _ -> ()

(* ---- Journal.create supersedes -------------------------------------- *)

let create_supersedes () =
  let base = fresh_base () in
  Fun.protect ~finally:(fun () -> rm_journal base) @@ fun () ->
  let d1 = Durable_session.create ~base (Core.Session.make pack (T.make_doc 1)) in
  grow (Durable_session.session d1) 3;
  let first_epoch = Journal.epoch (Durable_session.journal d1) in
  Durable_session.close d1;
  check Alcotest.bool "first life's log exists" true
    (Sys.file_exists (Printf.sprintf "%s.%d.log" base first_epoch));
  (* a second life of the same name starts a fresh journal on top *)
  let live2 = Core.Session.make pack (T.make_doc 2) in
  let want = List.map (fun (n, _, _, l) -> (n, l)) (T.flat live2) in
  let d2 = Durable_session.create ~base live2 in
  let second_epoch = Journal.epoch (Durable_session.journal d2) in
  check Alcotest.int "supersede bumps the epoch" (first_epoch + 1) second_epoch;
  check Alcotest.bool "old epoch files swept" false
    (Sys.file_exists (Printf.sprintf "%s.%d.log" base first_epoch));
  Durable_session.close d2;
  let d3, _ = Durable_session.recover ~scheme:pack ~base () in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "recovery sees only the second life" want
    (List.map (fun (n, _, _, l) -> (n, l)) (T.flat (Durable_session.session d3)));
  Durable_session.close d3

(* ---- topology -------------------------------------------------------- *)

let topo3 =
  {
    Topology.version = 4;
    shards =
      [|
        {
          Topology.s_primary = { Topology.n_host = "127.0.0.1"; n_port = 7001 };
          s_replicas = [ { Topology.n_host = "127.0.0.1"; n_port = 7004 } ];
        };
        {
          Topology.s_primary = { Topology.n_host = "10.0.0.2"; n_port = 7002 };
          s_replicas = [];
        };
        {
          Topology.s_primary = { Topology.n_host = "127.0.0.1"; n_port = 7003 };
          s_replicas =
            [
              { Topology.n_host = "127.0.0.1"; n_port = 7005 };
              { Topology.n_host = "127.0.0.1"; n_port = 7006 };
            ];
        };
      |];
  }

let topology_roundtrip () =
  let got = Topology.parse (Topology.render topo3) in
  check Alcotest.bool "parse (render t) = t" true (got = topo3);
  let n = { Topology.n_host = "::1"; n_port = 65_535 } in
  check Alcotest.bool "node string round-trip" true
    (Topology.node_of_string (Topology.node_to_string n) = n);
  let path = fresh_base () in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  Topology.save path topo3;
  check Alcotest.bool "save/load round-trip" true (Topology.load path = topo3)

let topology_placement () =
  (* placement is pure in the name and the shard count: stable across
     re-parses, always in range, and not all on one shard *)
  let docs = List.init 40 (Printf.sprintf "doc-%d") in
  let seen = Array.make (Topology.n_shards topo3) 0 in
  List.iter
    (fun d ->
      let s = Topology.shard_of topo3 d in
      check Alcotest.bool "in range" true (s >= 0 && s < Topology.n_shards topo3);
      check Alcotest.int "stable" s
        (Topology.shard_of (Topology.parse (Topology.render topo3)) d);
      seen.(s) <- seen.(s) + 1)
    docs;
  Array.iteri
    (fun i n -> check Alcotest.bool (Printf.sprintf "shard %d used" i) true (n > 0))
    seen

let topology_rejects_garbage () =
  List.iter
    (fun s ->
      match Topology.parse s with
      | (_ : Topology.t) -> Alcotest.fail ("parsed: " ^ String.escaped s)
      | exception Topology.Bad_topology _ -> ())
    [ ""; "XCL9 1\n"; "XCL1 x\n"; "XCL1 1\nshard\n"; "XCL1 1\nshard nocolon\n";
      "XCL1 1\nshard h:notaport\n" ]

(* A re-read that fails keeps the last good topology; a rewrite being
   picked up is [client_follows_topology]'s case. *)
let topology_resolver () =
  let path = fresh_base () in
  Topology.save path topo3;
  let resolve = Topology.resolver path in
  let primary = topo3.Topology.shards.(Topology.shard_of topo3 "d").Topology.s_primary in
  let want = (primary.Topology.n_host, primary.Topology.n_port) in
  Out_channel.with_open_text path (fun oc -> output_string oc "XCL1 6\nshard\n");
  check Alcotest.(pair string int) "a malformed file" want (resolve "d");
  Sys.remove path;
  check Alcotest.(pair string int) "a missing file" want (resolve "d")

(* ---- live primary/replica pair over loopback ------------------------- *)

let wait ?(timeout = 10.) what cond =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if cond () then ()
    else if Unix.gettimeofday () -. t0 > timeout then
      Alcotest.fail ("timed out waiting for " ^ what)
    else begin
      Thread.delay 0.01;
      go ()
    end
  in
  go ()

(* A primary and a replica following it, both with fsync_every 1, and a
   client on each. *)
let with_live_pair f =
  let p_root = fresh_base () and r_root = fresh_base () in
  let p = Server.start { (Server.default_config ~root:p_root) with fsync_every = 1 } in
  let r =
    Server.start
      {
        (Server.default_config ~root:r_root) with
        fsync_every = 1;
        replica_of = Some ("127.0.0.1", Server.port p);
        replica_name = "r0";
        poll_interval = 0.005;
      }
  in
  Fun.protect
    ~finally:(fun () ->
      (try ignore (Server.stop r) with _ -> ());
      (try ignore (Server.stop p) with _ -> ());
      rm_rf p_root;
      rm_rf r_root)
  @@ fun () ->
  let pc = Client.connect ~host:"127.0.0.1" ~port:(Server.port p) () in
  let rc = Client.connect ~host:"127.0.0.1" ~port:(Server.port r) () in
  Fun.protect
    ~finally:(fun () ->
      Client.close pc;
      Client.close rc)
  @@ fun () -> f p r pc rc

let wait_drained pc rc doc =
  wait ("the replica to follow " ^ doc) (fun () ->
      match Client.docs rc with
      | Ok (P.Docs_r l) -> List.mem (doc, "QED", false) l
      | _ -> false);
  wait "replication lag to drain" (fun () ->
      match Client.stats pc ~doc with
      | Ok (P.Stats_r st) ->
        st.P.st_lag <> [] && List.for_all (fun (_, lag) -> lag = 0) st.P.st_lag
      | _ -> false)

let open_root c doc =
  match Client.open_doc c ~doc ~scheme:"QED" ~nodes:20 ~seed:3 with
  | Ok (P.Opened { ok_root; _ }) -> ok_root
  | _ -> Alcotest.fail "open failed"

let nodes c doc =
  match Client.stats c ~doc with
  | Ok (P.Stats_r st) -> st.P.st_nodes
  | _ -> Alcotest.fail "stats failed"

let live_replication () =
  with_live_pair @@ fun _ _ pc rc ->
  let root_label = open_root pc "rdoc" in
  (match Client.update pc ~doc:"rdoc" [ Oplog.Insert_last (root_label, Tree.elt "x" []) ] with
  | Ok (P.Updated _) -> ()
  | _ -> Alcotest.fail "primary update failed");
  (* the replication manager discovers, bootstraps and follows the doc;
     the primary reports per-replica lag, and it drains *)
  wait_drained pc rc "rdoc";
  (match Client.stats pc ~doc:"rdoc" with
  | Ok (P.Stats_r st) ->
    check Alcotest.bool "st_offset exposes the durable position" true (st.P.st_offset > 0)
  | _ -> Alcotest.fail "stats failed");
  let fingerprint c =
    match Client.labels c ~doc:"rdoc" ~limit:10_000 with
    | Ok (P.Labels_r entries) ->
      List.map (fun (l, _, name) -> (l.P.l_bytes, l.P.l_bits, name)) entries
    | _ -> Alcotest.fail "labels failed"
  in
  check Alcotest.int "replica serves the same tree"
    (List.length (fingerprint pc))
    (List.length (fingerprint rc));
  check Alcotest.bool "replica labels byte-identical" true
    (fingerprint pc = fingerprint rc);
  (* a follower refuses writes until it is promoted *)
  (match Client.update rc ~doc:"rdoc" [ Oplog.Insert_last (root_label, Tree.elt "y" []) ] with
  | Ok (P.Err (P.Not_primary, _)) -> ()
  | _ -> Alcotest.fail "follower accepted a write");
  (match Client.promote rc ~doc:"rdoc" with
  | Ok (P.Promoted _) -> ()
  | _ -> Alcotest.fail "promote failed");
  match Client.update rc ~doc:"rdoc" [ Oplog.Insert_last (root_label, Tree.elt "y" []) ] with
  | Ok (P.Updated { up_applied = 1; _ }) -> ()
  | _ -> Alcotest.fail "promoted replica refused a write"

(* The exactly-once window survives a promotion: the promoted replica
   answers a resend of an update the old primary applied from its window,
   rebuilt from the Marks its journal received, instead of applying it a
   second time. Promoting a primary again leaves its window alone. *)
let dedup_survives_promotion () =
  with_live_pair @@ fun p _ pc rc ->
  let root_label = open_root pc "edoc" in
  let update c seq name =
    let ops = [ Oplog.Insert_last (root_label, Tree.elt name []) ] in
    match Client.request c (P.Update { u_doc = "edoc"; u_client = "c1"; u_seq = seq; u_ops = ops }) with
    | Ok (P.Updated { up_dedup; up_fresh; _ }) -> (up_dedup, up_fresh)
    | _ -> Alcotest.fail "update failed"
  in
  let nodes c = nodes c "edoc" in
  check Alcotest.bool "first send applies" false (fst (update pc 1 "x"));
  check Alcotest.bool "resend to the primary dedups" true (fst (update pc 1 "x"));
  wait_drained pc rc "edoc";
  check Alcotest.int "primary nodes" 21 (nodes pc);
  check Alcotest.int "replica nodes" 21 (nodes rc);
  ignore (Server.stop p);
  (match Client.promote rc ~doc:"edoc" with
  | Ok (P.Promoted _) -> ()
  | _ -> Alcotest.fail "promote failed");
  check Alcotest.bool "resend to the promoted replica dedups" true (fst (update rc 1 "x"));
  check Alcotest.int "applied once" 21 (nodes rc);
  (* a fresh reply carries its labels; a window rebuilt from the journal
     could not, so a second promote must not rebuild *)
  let dedup, fresh = update rc 2 "y" in
  check Alcotest.bool "a new seq applies" false dedup;
  (match Client.promote rc ~doc:"edoc" with
  | Ok (P.Promoted _) -> ()
  | _ -> Alcotest.fail "re-promote failed");
  let dedup, fresh' = update rc 2 "y" in
  check Alcotest.bool "resend after re-promote dedups" true dedup;
  check Alcotest.bool "the window kept the fresh reply" true (fresh <> [] && fresh' = fresh);
  check Alcotest.int "nodes after re-promote" 22 (nodes rc)

(* ---- a client that follows the cluster ------------------------------ *)

(* A write sent to a follower bounces with Not_primary before anything is
   applied, so even an anonymous update is resent: to wherever [resolve]
   points at the redial, here the primary. *)
let not_primary_bounce () =
  with_live_pair @@ fun p r pc rc ->
  let root_label = open_root pc "ndoc" in
  wait_drained pc rc "ndoc";
  let before = nodes pc "ndoc" in
  let dials = ref 0 in
  let resolve () =
    incr dials;
    ("127.0.0.1", if !dials = 1 then Server.port r else Server.port p)
  in
  let c = Client.connect ~retries:5 ~backoff:0.001 ~resolve ~host:"127.0.0.1" ~port:0 () in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (match Client.update c ~doc:"ndoc" [ Oplog.Insert_last (root_label, Tree.elt "x" []) ] with
  | Ok (P.Updated { up_applied = 1; up_dedup = false; _ }) -> ()
  | _ -> Alcotest.fail "the bounced update was not applied");
  check Alcotest.int "applied exactly once" (before + 1) (nodes pc "ndoc");
  let ctr = Client.counters c in
  check Alcotest.(pair int int) "one resend, one redial" (1, 1)
    (ctr.Client.c_retries, ctr.Client.c_reconnects)

(* The primary dies and the supervisor rewrites the topology: a client
   dialing through [Topology.resolver] bounces off the dead connection and
   lands on the new primary. *)
let client_follows_topology () =
  let a_root = fresh_base () and b_root = fresh_base () in
  let a = Server.start { (Server.default_config ~root:a_root) with fsync_every = 1 } in
  let b = Server.start { (Server.default_config ~root:b_root) with fsync_every = 1 } in
  let path = fresh_base () in
  let publish version s =
    Topology.save path
      (Topology.parse (Printf.sprintf "XCL1 %d\nshard 127.0.0.1:%d\n" version (Server.port s)))
  in
  publish 1 a;
  let primary_of = Topology.resolver path in
  let c =
    Client.connect ~retries:40 ~backoff:0.05 ~backoff_cap:0.5
      ~resolve:(fun () -> primary_of "d")
      ~host:"127.0.0.1" ~port:0 ()
  in
  Fun.protect
    ~finally:(fun () ->
      Client.close c;
      (try ignore (Server.stop a) with _ -> ());
      (try ignore (Server.stop b) with _ -> ());
      (try Sys.remove path with Sys_error _ -> ());
      rm_rf a_root;
      rm_rf b_root)
  @@ fun () ->
  let open_d () =
    match Client.open_doc c ~doc:"d" ~scheme:"QED" ~nodes:10 ~seed:1 with
    | Ok (P.Opened _) -> ()
    | Ok (P.Err (code, m)) -> Alcotest.fail ("reply: " ^ P.err_name code ^ ": " ^ m)
    | Ok _ -> Alcotest.fail "unexpected reply"
    | Error e -> Alcotest.fail ("client gave up: " ^ e)
  in
  open_d ();
  let ctr = Client.counters c in
  check Alcotest.(pair int int) "no resends or redials on a healthy cluster" (0, 0)
    (ctr.Client.c_retries, ctr.Client.c_reconnects);
  ignore (Server.stop a);
  publish 2 b;
  open_d ();
  check Alcotest.bool "the bounce redialed" true
    ((Client.counters c).Client.c_reconnects >= 1);
  check Alcotest.int "the new primary answered the open" 1 (Server.stop b).Server.s_docs

(* ---- failover torture ------------------------------------------------ *)

let failover_clean () =
  let r = T.failover ~ops:60 ~ship_every:7 ~checkpoint_every:45 ~schemes:[ "QED" ] ~seeds:1 () in
  check Alcotest.int "violations" 0 (List.length r.T.t_violations);
  (* exact coverage of both sweeps, pinned so the engine cannot silently
     examine less *)
  check Alcotest.int "shipping rounds" 10 r.T.t_rounds;
  check Alcotest.int "epoch roll forced a re-bootstrap" 2 r.T.t_bootstraps;
  check Alcotest.int "promoted replica states" 10
    (List.fold_left (fun a c -> a + c.T.c_promotions) 0 r.T.t_cases);
  check Alcotest.int "swept primary boundaries" 102 r.T.t_boundaries;
  check Alcotest.int "swept replica boundaries" 99 r.T.t_replica_boundaries;
  check Alcotest.int "crash images, each recovered" 397 r.T.t_images

let failover_rejects_unrunnable () =
  List.iter
    (fun (what, f) ->
      match f () with
      | (_ : T.report) -> Alcotest.failf "%s was accepted" what
      | exception Invalid_argument _ -> ())
    [
      ("ship_every 0", fun () -> T.failover ~ship_every:0 ~seeds:1 ());
      ("ship_every -7", fun () -> T.failover ~ship_every:(-7) ~seeds:1 ());
      ("checkpoint_every 0", fun () -> T.failover ~checkpoint_every:0 ~seeds:1 ());
      ("seeds 0", fun () -> T.failover ~seeds:0 ());
      ("ops 0", fun () -> T.failover ~ops:0 ~seeds:1 ());
      ("ops -5", fun () -> T.failover ~ops:(-5) ~seeds:1 ());
    ]

let failover_detects_injected_bug () =
  (* the harness is only worth its runtime if it can scream: skipping
     directory fsyncs breaks the atomic install, and the sweeps must see
     states that violate the durable-prefix contract *)
  Repro_io.Io.unsafe_no_dir_fsync := true;
  let r =
    Fun.protect
      ~finally:(fun () -> Repro_io.Io.unsafe_no_dir_fsync := false)
      (fun () ->
        T.failover ~ops:60 ~ship_every:7 ~checkpoint_every:45 ~schemes:[ "QED" ]
          ~seeds:1 ())
  in
  check Alcotest.bool "the broken file system is caught" true
    (List.length r.T.t_violations > 0)

let suite =
  [
    Alcotest.test_case "ship hands out only the durable prefix" `Quick ship_only_durable;
    Alcotest.test_case "ship makes progress on a tiny budget" `Quick ship_first_record_whole;
    Alcotest.test_case "bootstrap + apply mirror the primary" `Quick bootstrap_and_apply;
    Alcotest.test_case "apply refuses anything out of sequence" `Quick apply_out_of_sync;
    Alcotest.test_case "bootstrap refuses a garbage snapshot" `Quick bad_snapshot_rejected;
    Alcotest.test_case "create atomically supersedes an old journal" `Quick create_supersedes;
    Alcotest.test_case "topology round-trips" `Quick topology_roundtrip;
    Alcotest.test_case "topology places documents stably" `Quick topology_placement;
    Alcotest.test_case "topology rejects garbage" `Quick topology_rejects_garbage;
    Alcotest.test_case "topology resolver keeps the last good file" `Quick topology_resolver;
    Alcotest.test_case "live pair: follow, drain, refuse, promote" `Quick live_replication;
    Alcotest.test_case "live pair: exactly-once across a promotion" `Quick dedup_survives_promotion;
    Alcotest.test_case "live pair: a Not_primary bounce lands on the primary" `Quick
      not_primary_bounce;
    Alcotest.test_case "client follows a topology rewrite" `Quick client_follows_topology;
    Alcotest.test_case "failover torture: clean pair passes" `Quick failover_clean;
    Alcotest.test_case "failover torture: unrunnable intervals and seeds refused" `Quick
      failover_rejects_unrunnable;
    Alcotest.test_case "failover torture: broken fsync caught" `Quick
      failover_detects_injected_bug;
  ]
