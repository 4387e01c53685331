(* Network resilience: Netsim determinism, the client's typed-error
   discipline against hostile peers (torn frames, mid-reply resets,
   slow-loris), the shared retry backoff, exactly-once dedup including
   across crash recovery, overload shedding, retry-through-faults end to
   end, and a small API-level nettorture smoke. *)

open Repro_xml
open Repro_journal
open Repro_io
module P = Repro_server.Protocol
module Server = Repro_server.Server
module Client = Repro_server.Server_client
module Wire = Repro_server.Wire
module Nettorture = Repro_server.Nettorture

let check = Alcotest.check

let fresh_root () = Fixture.fresh_path "xres"
let rm_rf = Fixture.rm_rf

(* ---- netsim determinism --------------------------------------------- *)

let with_pair f =
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let netsim_deterministic () =
  let ns, m = Netsim.wrap Io.unix_sock in
  let sock = Io.pack_sock m in
  with_pair (fun a _b ->
      (* At-n drop: first call passes, second raises a typed error *)
      Netsim.arm ns [ (Netsim.At 2, Netsim.Drop) ];
      sock.Io.s_send_all a "x";
      (match sock.Io.s_send_all a "y" with
      | () -> Alcotest.fail "armed drop did not fire"
      | exception Io.Io_error _ -> ());
      check Alcotest.int "calls counted" 2 (Netsim.calls ns);
      check Alcotest.int "one injection" 1 (Netsim.injected ns);
      (* re-arming resets the coordinates: the same plan fires at the
         same place again *)
      Netsim.arm ns [ (Netsim.At 2, Netsim.Drop) ];
      sock.Io.s_send_all a "x";
      (match sock.Io.s_send_all a "y" with
      | () -> Alcotest.fail "replayed drop did not fire"
      | exception Io.Io_error _ -> ());
      check Alcotest.int "replayed calls" 2 (Netsim.calls ns);
      (* partition spans the declared number of calls, then heals *)
      Netsim.arm ns [ (Netsim.At 1, Netsim.Partition 2) ];
      (match sock.Io.s_send_all a "x" with
      | () -> Alcotest.fail "partition call 1 passed"
      | exception Io.Io_error _ -> ());
      (match sock.Io.s_send_all a "x" with
      | () -> Alcotest.fail "partition call 2 passed"
      | exception Io.Io_error _ -> ());
      sock.Io.s_send_all a "x";
      check Alcotest.int "partition injected twice" 2 (Netsim.injected ns));
  (* truncation wrecks the descriptor until it is closed; a fresh pair
     works again *)
  with_pair (fun a _b ->
      Netsim.arm ns [ (Netsim.At 1, Netsim.Truncate 1) ];
      (match sock.Io.s_send_all a "abcdef" with
      | () -> Alcotest.fail "truncated send completed"
      | exception Io.Io_error _ -> ());
      check Alcotest.int "consequential resets not counted" 1 (Netsim.calls ns);
      sock.Io.s_close a;
      with_pair (fun a2 _ ->
          (* the plan is spent and the broken fd is gone *)
          sock.Io.s_send_all a2 "ok"))

let netsim_mix_replays () =
  let ns, m = Netsim.wrap Io.unix_sock in
  let sock = Io.pack_sock m in
  let run () =
    Netsim.arm_mix ns ~seed:9 ~drop:0.3 ();
    with_pair (fun a _b ->
        List.init 40 (fun i ->
            match sock.Io.s_send_all a "z" with
            | () -> None
            | exception Io.Io_error _ -> Some i)
        |> List.filter_map Fun.id)
  in
  let first = run () in
  let second = run () in
  check Alcotest.bool "some drops" true (List.length first > 0);
  check (Alcotest.list Alcotest.int) "same seed, same fault schedule" first second

(* ---- a hostile server: torn frames, resets, slow-loris --------------- *)

(* one listening socket; every accepted connection gets [misbehave] *)
let with_fake_server misbehave f =
  let lfd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lfd Unix.SO_REUSEADDR true;
  Unix.bind lfd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lfd 8;
  let port =
    match Unix.getsockname lfd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  let stop = ref false in
  let th =
    Thread.create
      (fun () ->
        while not !stop do
          match Unix.accept ~cloexec:true lfd with
          | fd, _ ->
            (try misbehave fd with _ -> ());
            (try Unix.close fd with Unix.Unix_error _ -> ())
          | exception Unix.Unix_error _ -> ()
        done)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      stop := true;
      (* a blocked accept does not notice its fd closing; poke it awake *)
      (try
         let w = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
         (try Unix.connect w (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
          with Unix.Unix_error _ -> ());
         Unix.close w
       with Unix.Unix_error _ -> ());
      Thread.join th;
      try Unix.close lfd with Unix.Unix_error _ -> ())
    (fun () -> f port)

let drain_request fd =
  let buf = Bytes.create 4096 in
  ignore (Unix.read fd buf 0 4096)

let expect_error what = function
  | Error _ -> ()
  | Ok _ -> Alcotest.fail (what ^ ": expected a transport error")

let client_survives_torn_frame () =
  (* a frame header promising 64 bytes, then 4 bytes and EOF *)
  with_fake_server
    (fun fd ->
      drain_request fd;
      let garbage = Wire.frame (String.make 64 'j') in
      ignore (Unix.write_substring fd garbage 0 5))
    (fun port ->
      let c = Client.connect ~timeout:1.0 ~host:"127.0.0.1" ~port () in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      expect_error "torn frame" (Client.ping c);
      (* the client is still usable: it redials, and the next failure is
         typed too, not an exception *)
      expect_error "torn frame again" (Client.ping c))

let client_survives_midreply_reset () =
  with_fake_server
    (fun fd ->
      drain_request fd;
      ignore (Unix.write_substring fd "\x05ab" 0 3);
      (* SO_LINGER 0: close sends RST, the reply dies mid-flight *)
      Unix.setsockopt_optint fd Unix.SO_LINGER (Some 0))
    (fun port ->
      let c = Client.connect ~timeout:1.0 ~host:"127.0.0.1" ~port () in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      expect_error "mid-reply reset" (Client.ping c);
      expect_error "reset again" (Client.ping c))

let client_survives_slow_loris () =
  with_fake_server
    (fun fd ->
      drain_request fd;
      ignore (Unix.write_substring fd "\x20" 0 1);
      (* then nothing: the client's receive timeout must cut this off *)
      Thread.delay 1.5)
    (fun port ->
      let c = Client.connect ~timeout:0.3 ~host:"127.0.0.1" ~port () in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      let t0 = Unix.gettimeofday () in
      expect_error "slow loris" (Client.ping c);
      check Alcotest.bool "timed out, did not hang" true
        (Unix.gettimeofday () -. t0 < 1.2))

(* ---- retry backoff --------------------------------------------------- *)

(* The one delay formula every client retry sleeps:
   jittered [0.5, 1.5) around the capped exponential, zero for a zero
   base, and the cap holding however many attempts have failed. *)
let backoff_delay_bounds () =
  let rng = Random.State.make [| 7 |] in
  List.iter
    (fun (base, cap) ->
      for n = 0 to 40 do
        let m = min cap (base *. (2. ** float_of_int n)) in
        for _ = 1 to 25 do
          let d = Client.backoff_delay ~base ~cap rng n in
          if not (d >= 0.5 *. m && (d < 1.5 *. m || m = 0.)) then
            Alcotest.failf "base %g cap %g attempt %d: delay %g outside [%g, %g)" base cap
              n d (0.5 *. m) (1.5 *. m)
        done
      done)
    [ (0.05, 1.0); (0.001, 0.02); (0.05, 0.5); (1.0, 1.0); (0.0, 1.0) ];
  check (Alcotest.float 0.) "a zero base never waits" 0.
    (Client.backoff_delay ~base:0. ~cap:1. rng 30);
  check Alcotest.bool "the cap holds at attempt 1000" true
    (Client.backoff_delay ~base:0.05 ~cap:0.5 rng 1000 < 0.75)

(* Retry timings are reproducible under a seed only if the delay draws
   what the inline formula draws: the same value for the same state, and
   exactly one draw per call (a zero base included), so the stream behind
   it stays aligned. *)
let backoff_delay_keeps_stream () =
  let rng = Random.State.make [| 11 |] and twin = Random.State.make [| 11 |] in
  let reference ~base ~cap n =
    let d = min cap (base *. (2. ** float_of_int n)) in
    d *. (0.5 +. Random.State.float twin 1.0)
  in
  List.iter
    (fun (base, cap) ->
      for n = 0 to 70 do
        let got = Client.backoff_delay ~base ~cap rng n in
        let want = reference ~base ~cap n in
        if Int64.bits_of_float got <> Int64.bits_of_float want then
          Alcotest.failf "base %g cap %g attempt %d: delay %h, the inline formula gives %h"
            base cap n got want
      done)
    [ (0.05, 1.0); (0.005, 0.2); (0.0, 1.0); (0.3, 0.3); (1e-6, 60.) ];
  check Alcotest.int "one draw per call: the streams stay aligned"
    (Random.State.bits twin) (Random.State.bits rng)

(* ---- exactly-once dedup --------------------------------------------- *)

let with_server f = Fixture.with_server "xres" f
let count_name = Fixture.count_name

let open_root c ~doc =
  match Client.open_doc c ~doc ~scheme:"QED" ~nodes:2 ~seed:5 with
  | Ok (P.Opened { ok_root; _ }) -> ok_root
  | _ -> Alcotest.fail "open failed"

let upd ~seq ~name lab =
  P.Update
    {
      u_doc = "d";
      u_client = "cli-1";
      u_seq = seq;
      u_ops = [ Oplog.Insert_last (lab, Tree.elt name []) ];
    }

let dedup_exactly_once () =
  with_server (fun t ->
      let c = Client.connect ~host:"127.0.0.1" ~port:(Server.port t) () in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      let lab = open_root c ~doc:"d" in
      (match Client.request c (upd ~seq:1 ~name:"once" lab) with
      | Ok (P.Updated { up_applied = 1; up_dedup = false; _ }) -> ()
      | _ -> Alcotest.fail "fresh apply not confirmed");
      (* the retry is answered from the window, not re-applied *)
      (match Client.request c (upd ~seq:1 ~name:"once" lab) with
      | Ok (P.Updated { up_applied = 1; up_dedup = true; _ }) -> ()
      | _ -> Alcotest.fail "retry was not a dedup hit");
      check Alcotest.int "applied exactly once" 1 (count_name c ~doc:"d" "once");
      (* a sequence below the watermark is a protocol error *)
      (match Client.request c (upd ~seq:0 ~name:"stale" lab) with
      | Ok (P.Err (P.Bad_request, _)) -> ()
      | _ -> Alcotest.fail "stale sequence accepted");
      check Alcotest.int "stale applied nothing" 0 (count_name c ~doc:"d" "stale"))

let dedup_survives_recovery () =
  let root = fresh_root () in
  let cfg = { (Server.default_config ~root) with fsync_every = 1 } in
  let t = Server.start cfg in
  let lab =
    let c = Client.connect ~host:"127.0.0.1" ~port:(Server.port t) () in
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    let lab = open_root c ~doc:"d" in
    (match Client.request c (upd ~seq:1 ~name:"keep" lab) with
    | Ok (P.Updated { up_dedup = false; _ }) -> ()
    | _ -> Alcotest.fail "fresh apply not confirmed");
    lab
  in
  Server.abort t;
  let t2 = Server.start cfg in
  Fun.protect
    ~finally:(fun () ->
      ignore (Server.stop t2);
      rm_rf root)
    (fun () ->
      let c = Client.connect ~host:"127.0.0.1" ~port:(Server.port t2) () in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      (match Client.open_doc c ~doc:"d" ~scheme:"QED" ~nodes:2 ~seed:5 with
      | Ok (P.Opened { ok_fresh = false; _ }) -> ()
      | _ -> Alcotest.fail "recovery did not reload the document");
      (* the journalled Mark rebuilt the window: the retried (client, seq)
         is recognized, not re-applied *)
      (match Client.request c (upd ~seq:1 ~name:"keep" lab) with
      | Ok (P.Updated { up_dedup = true; _ }) -> ()
      | _ -> Alcotest.fail "post-recovery retry was not a dedup hit");
      check Alcotest.int "applied exactly once across recovery" 1
        (count_name c ~doc:"d" "keep"))

(* ---- Shutting_down bounces ------------------------------------------- *)

(* A draining server whose final fsync fails answers each parked mutation
   with Shutting_down after applying it, and the journal keeps it for the
   next start. So the anonymous update comes back as the error, while the
   identified one chases [resolve] to the restart and dedups there. [fail]
   aims the fsync failure: [At] fails only the final flush, so the
   checkpoint after it absorbs the log and the window must be rejournalled;
   [From] fails every later fsync, a dead disk. *)
let shutting_down_resends_only_deduped fail () =
  let root = fresh_root () in
  (* no flush cycle runs in test time: both replies stay parked *)
  let cfg =
    { (Server.default_config ~root) with fsync_every = 0; commit_interval_us = 30_000_000 }
  in
  let ctl, m = Failpoint.wrap Io.unix_syscalls in
  let t = Server.start { cfg with io = Io.pack m } in
  let port = ref (Server.port t) in
  Fun.protect
    ~finally:(fun () ->
      ignore (Server.stop t);
      rm_rf root)
  @@ fun () ->
  let connect ?client () =
    Client.connect ?client ~retries:40 ~backoff:0.01 ~backoff_cap:0.1
      ~resolve:(fun () -> ("127.0.0.1", !port))
      ~host:"127.0.0.1" ~port:0 ()
  in
  let c0 = connect () in
  let lab = open_root c0 ~doc:"d" in
  (* send in the background; the returned thunk waits for the outcome *)
  let send ?client name =
    let c = connect ?client () and r = ref (Error "no reply") in
    let ops = [ Oplog.Insert_last (lab, Tree.elt name []) ] in
    let th = Thread.create (fun () -> r := Client.update c ~doc:"d" ops) () in
    fun () ->
      Thread.join th;
      Client.close c;
      ( (match !r with
        | Ok (P.Updated { up_dedup; _ }) -> if up_dedup then "dedup hit" else "applied"
        | Ok (P.Err (e, _)) -> P.err_name e
        | Ok _ | Error _ -> "no reply"),
        (Client.counters c).Client.c_retries )
  in
  let anon = send "anon" and ident = send ~client:"keeper" "ident" in
  let applied c = count_name c ~doc:"d" "anon" + count_name c ~doc:"d" "ident" in
  let deadline = Unix.gettimeofday () +. 10. in
  while applied c0 < 2 && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  Client.close c0;
  Failpoint.arm ctl [ (fail (Failpoint.calls ctl + 1), Failpoint.Fsync_fail) ];
  ignore (Server.stop t);
  check Alcotest.(pair string int) "the anonymous update gets the error, unresent"
    ("shutting-down", 0) (anon ());
  let t2 = Server.start cfg in
  let c = Client.connect ~host:"127.0.0.1" ~port:(Server.port t2) () in
  Fun.protect
    ~finally:(fun () ->
      Client.close c;
      ignore (Server.stop t2))
  @@ fun () ->
  ignore (open_root c ~doc:"d");
  port := Server.port t2;
  check Alcotest.string "the identified update is answered by the restart" "dedup hit"
    (fst (ident ()));
  check Alcotest.int "each update applied once" 2 (applied c)

(* ---- overload shedding ----------------------------------------------- *)

let overload_sheds_typed () =
  let root = fresh_root () in
  let t =
    Server.start
      {
        (Server.default_config ~root) with
        fsync_every = 0;
        commit_interval_us = 300_000;
        commit_max = 1000;
        shed_parked = 2;
        loop_domains = 1;
      }
  in
  Fun.protect
    ~finally:(fun () ->
      ignore (Server.stop t);
      rm_rf root)
    (fun () ->
      let c0 = Client.connect ~host:"127.0.0.1" ~port:(Server.port t) () in
      let lab =
        Fun.protect ~finally:(fun () -> Client.close c0) @@ fun () ->
        open_root c0 ~doc:"d"
      in
      (* pipeline four mutations: two park awaiting the (slow) flush
         cycle, the rest must be refused with the typed Overloaded error,
         nothing applied for them *)
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      @@ fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port t));
      let reader = Wire.reader Io.real_sock fd in
      for k = 1 to 4 do
        let payload =
          P.encode_req
            (P.Update
               {
                 u_doc = "d";
                 u_client = "";
                 u_seq = 0;
                 u_ops =
                   [ Oplog.Insert_last (lab, Tree.elt (Printf.sprintf "s%d" k) []) ];
               })
        in
        let f = Wire.frame payload in
        ignore (Unix.write_substring fd f 0 (String.length f))
      done;
      let updated = ref 0 and overloaded = ref 0 in
      for _ = 1 to 4 do
        match Wire.recv_frame reader with
        | Wire.Frame payload -> (
          match P.decode_resp payload with
          | Ok (P.Updated _) -> incr updated
          | Ok (P.Err (P.Overloaded, _)) -> incr overloaded
          | _ -> Alcotest.fail "unexpected reply under overload")
        | _ -> Alcotest.fail "missing reply under overload"
      done;
      check Alcotest.bool "some requests shed" true (!overloaded >= 1);
      check Alcotest.int "every reply accounted for" 4 (!updated + !overloaded);
      (* shed requests applied nothing; a well-behaved retrying client
         gets through once the park drains *)
      let c = Client.connect ~host:"127.0.0.1" ~port:(Server.port t) ~client:"r" ~retries:6 ~backoff:0.05 () in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      (match Client.update c ~doc:"d" [ Oplog.Insert_last (lab, Tree.elt "after" []) ] with
      | Ok (P.Updated _) -> ()
      | _ -> Alcotest.fail "retrying client did not get through after shed");
      let applied = count_name c ~doc:"d" "after" in
      check Alcotest.int "retry applied once" 1 applied;
      match Client.metrics c with
      | Ok (P.Metrics_r ms) ->
        check Alcotest.bool "shed/update counted" true
          (List.exists
             (fun (m : P.metric) -> m.P.m_key = "shed/update" && m.P.m_count >= 1)
             ms)
      | _ -> Alcotest.fail "metrics fetch failed")

(* ---- retries through injected faults, end to end --------------------- *)

let retry_through_faults () =
  let root = fresh_root () in
  let t = Server.start { (Server.default_config ~root) with fsync_every = 1 } in
  Fun.protect
    ~finally:(fun () ->
      ignore (Server.stop t);
      rm_rf root)
    (fun () ->
      let ns, m = Netsim.wrap Io.unix_sock in
      let sock = Io.pack_sock m in
      let c =
        Client.connect ~sock ~timeout:1.0 ~client:"rt" ~retries:6 ~backoff:0.005
          ~host:"127.0.0.1" ~port:(Server.port t) ()
      in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      Netsim.clear ns;
      let lab = open_root c ~doc:"d" in
      (* lose the reply: the resend must be answered from the window *)
      Netsim.arm ns [ (Netsim.At 2, Netsim.Drop) ];
      (match Client.update c ~doc:"d" [ Oplog.Insert_last (lab, Tree.elt "a" []) ] with
      | Ok (P.Updated { up_dedup; _ }) ->
        check Alcotest.bool "resend hit the dedup window" true up_dedup
      | _ -> Alcotest.fail "update through dropped reply failed");
      (* tear the request frame mid-send: nothing reached the server
         whole, the retry applies it exactly once *)
      Netsim.arm ns [ (Netsim.At 1, Netsim.Truncate 2) ];
      (match Client.update c ~doc:"d" [ Oplog.Insert_last (lab, Tree.elt "b" []) ] with
      | Ok (P.Updated _) -> ()
      | _ -> Alcotest.fail "update through torn send failed");
      Netsim.clear ns;
      let ctr = Client.counters c in
      check Alcotest.bool "retries counted" true (ctr.Client.c_retries >= 2);
      check Alcotest.bool "reconnects counted" true (ctr.Client.c_reconnects >= 2);
      check Alcotest.int "dedup hits counted" 1 ctr.Client.c_dedup_hits;
      check Alcotest.int "a applied once" 1 (count_name c ~doc:"d" "a");
      check Alcotest.int "b applied once" 1 (count_name c ~doc:"d" "b"))

(* ---- queries resend freely where anonymous mutations refuse ---------- *)

let query_resends_freely () =
  with_server (fun t ->
      let ns, m = Netsim.wrap Io.unix_sock in
      let sock = Io.pack_sock m in
      (* anonymous on purpose: no dedup identity, so a mutation whose bytes
         may have been sent refuses the resend — a read-only query retries *)
      let c =
        Client.connect ~sock ~timeout:1.0 ~retries:6 ~backoff:0.005
          ~host:"127.0.0.1" ~port:(Server.port t) ()
      in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      Netsim.clear ns;
      let lab = open_root c ~doc:"d" in
      (* lose the reply: the query is resent and answered *)
      Netsim.arm ns [ (Netsim.At 2, Netsim.Drop) ];
      (match Client.xpath c ~doc:"d" ~limit:10 "/*" with
      | Ok (P.Query_r { qy_rows = [ _ ]; _ }) -> ()
      | Ok _ -> Alcotest.fail "unexpected xpath reply"
      | Error e -> Alcotest.fail ("xpath through dropped reply failed: " ^ e));
      check Alcotest.bool "query was resent" true
        ((Client.counters c).Client.c_retries >= 1);
      (* a twig read under the same fault also rides through *)
      Netsim.arm ns [ (Netsim.At 2, Netsim.Drop) ];
      (match Client.twig c ~doc:"d" ~limit:10 "item" with
      | Ok (P.Query_r _) -> ()
      | _ -> Alcotest.fail "twig through dropped reply failed");
      (* the same fault on an anonymous mutation surfaces as an error
         instead of risking double-application *)
      Netsim.arm ns [ (Netsim.At 2, Netsim.Drop) ];
      (match Client.update c ~doc:"d" [ Oplog.Insert_last (lab, Tree.elt "x" []) ] with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "anonymous mutation resent after bytes were sent");
      Netsim.clear ns)

(* ---- nettorture, API smoke ------------------------------------------- *)

let nettorture_smoke () =
  let root = fresh_root () in
  let r =
    Nettorture.run
      {
        (Nettorture.default_config ~root) with
        Nettorture.nt_ops = 4;
        nt_seeds = 1;
        nt_points = 10;
      }
  in
  rm_rf root;
  List.iter (fun v -> Printf.printf "nettorture violation: %s\n" v) r.Nettorture.nt_violations;
  check Alcotest.bool "nettorture smoke passed" true (Nettorture.passed r);
  check Alcotest.int "swept every sampled point" 10 r.Nettorture.nt_swept;
  check Alcotest.bool "control caught doubles" true (r.Nettorture.nt_control_doubles > 0)

let suite =
  [
    Alcotest.test_case "netsim plans are deterministic" `Quick netsim_deterministic;
    Alcotest.test_case "netsim mix replays under one seed" `Quick netsim_mix_replays;
    Alcotest.test_case "client survives a torn reply frame" `Quick
      client_survives_torn_frame;
    Alcotest.test_case "client survives a mid-reply reset" `Quick
      client_survives_midreply_reset;
    Alcotest.test_case "client survives a slow-loris server" `Quick
      client_survives_slow_loris;
    Alcotest.test_case "backoff delay stays in its jitter band" `Quick
      backoff_delay_bounds;
    Alcotest.test_case "backoff delay keeps the inline draw stream" `Quick
      backoff_delay_keeps_stream;
    Alcotest.test_case "dedup window" `Quick dedup_exactly_once;
    Alcotest.test_case "dedup survives recovery" `Quick dedup_survives_recovery;
    Alcotest.test_case "Shutting_down resends only what dedup protects" `Quick
      (shutting_down_resends_only_deduped (fun n -> Failpoint.At n));
    Alcotest.test_case "Shutting_down resends on a dead disk" `Quick
      (shutting_down_resends_only_deduped (fun n -> Failpoint.From n));
    Alcotest.test_case "overload sheds typed errors" `Quick overload_sheds_typed;
    Alcotest.test_case "retries ride out injected faults" `Quick retry_through_faults;
    Alcotest.test_case "queries resend freely" `Quick query_resends_freely;
    Alcotest.test_case "nettorture smoke" `Slow nettorture_smoke;
  ]
