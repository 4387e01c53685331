(* Tests for the IO seam: the retry policy over injected faults (EINTR
   retried into whole records, persistent ENOSPC surfacing as a typed
   error with the journal still closeable and recoverable, fsync failing
   fast), the simulated-crash file system's semantics, recovery's typed
   errors on damaged artefacts, and a smoke run of the torture harness —
   including the self-test that it catches the
   missing-directory-fsync-after-rename bug when that fix is turned off. *)

open Repro_xml
open Repro_journal
open Repro_io

let check = Alcotest.check

let with_base f =
  let base = Filename.temp_file "xio" "" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        (base :: (base ^ ".tmp")
        :: List.concat_map
             (fun e ->
               let s = Journal.snapshot_path ~base ~epoch:e
               and l = Journal.log_path ~base ~epoch:e in
               [ s; l; s ^ ".tmp"; l ^ ".tmp" ])
             (List.init 10 (fun i -> i + 1))))
    (fun () -> f base)

let flat = Fixture.flat

let make_session seed =
  let doc =
    Repro_workload.Docgen.generate ~seed
      { Repro_workload.Docgen.default_shape with target_nodes = 20 }
  in
  Core.Session.make (module Repro_schemes.Qed : Core.Scheme.S) doc

let failpoint_io () =
  let ctl, m = Failpoint.wrap Io.unix_syscalls in
  (ctl, Io.pack m)

let is_io_error = function Io.Io_error _ -> true | _ -> false

(* ---- fault injection under the policy ----------------------------- *)

(* An EINTR in the middle of a record's write must be retried by the
   policy layer: the record lands whole and recovery replays it. *)
let eintr_mid_record_lands_whole () =
  with_base (fun base ->
      let ctl, io = failpoint_io () in
      let live = make_session 1 in
      let d = Durable_session.create ~io ~base live in
      let view = Durable_session.session d in
      let root = List.hd (Tree.preorder live.Core.Session.doc) in
      Failpoint.arm ctl [ (At (Failpoint.calls ctl + 1), Eintr) ];
      ignore (view.Core.Session.insert_last root (Tree.elt "interrupted" []));
      check Alcotest.int "the EINTR fired" 1 (Failpoint.injected ctl);
      Failpoint.arm ctl [];
      Durable_session.close d;
      let j, recovered, r = Journal.recover ~base () in
      Journal.close j;
      check Alcotest.int "the interrupted record replayed" 1 r.Journal.r_records;
      check Alcotest.bool "no torn tail" true (r.Journal.r_torn = None);
      check Alcotest.bool "recovered state matches" true (flat recovered = flat live))

(* A short write followed by an EINTR on the continuation: the policy
   keeps writing from where the kernel stopped. *)
let short_write_then_eintr () =
  with_base (fun base ->
      let ctl, io = failpoint_io () in
      let live = make_session 2 in
      let d = Durable_session.create ~io ~base live in
      let view = Durable_session.session d in
      let root = List.hd (Tree.preorder live.Core.Session.doc) in
      let c = Failpoint.calls ctl in
      Failpoint.arm ctl [ (At (c + 1), Short_write 3); (At (c + 2), Eintr) ];
      ignore (view.Core.Session.insert_last root (Tree.elt ~value:"survives" "fragmented" []));
      check Alcotest.int "both faults fired" 2 (Failpoint.injected ctl);
      Failpoint.arm ctl [];
      Durable_session.close d;
      let j, recovered, r = Journal.recover ~base () in
      Journal.close j;
      check Alcotest.bool "no torn tail" true (r.Journal.r_torn = None);
      check Alcotest.bool "recovered state matches" true (flat recovered = flat live))

(* A disk that stays full: append must give up with a typed Io_error, the
   in-memory session must not have applied the operation, the journal must
   still close, and what was durable before the failure must recover. *)
let persistent_enospc_fails_gracefully () =
  with_base (fun base ->
      let ctl, io = failpoint_io () in
      let live = make_session 3 in
      let d = Durable_session.create ~io ~base live in
      let view = Durable_session.session d in
      let root = List.hd (Tree.preorder live.Core.Session.doc) in
      ignore (view.Core.Session.insert_last root (Tree.elt "kept" []));
      let before = flat live in
      Failpoint.arm ctl [ (From (Failpoint.calls ctl + 1), Enospc) ];
      (match view.Core.Session.insert_last root (Tree.elt "lost" []) with
      | _ -> Alcotest.fail "append on a full disk should raise"
      | exception e ->
        check Alcotest.bool "raises Io_error, not a bare errno" true (is_io_error e));
      check Alcotest.bool "the failed operation was not applied" true (flat live = before);
      check Alcotest.int "no pending unfsynced record" 0
        (Journal.pending (Durable_session.journal d));
      Failpoint.arm ctl [];
      Durable_session.close d;
      let j, recovered, r = Journal.recover ~base () in
      Journal.close j;
      check Alcotest.bool "no torn tail" true (r.Journal.r_torn = None);
      check Alcotest.bool "durable prefix recovered" true (flat recovered = before))

(* fsyncgate: a failed fsync may have dropped the dirty pages, so the
   policy must fail fast — exactly one attempt — and only a later,
   genuine fsync may succeed. *)
let fsync_fails_fast () =
  with_base (fun base ->
      let ctl, io = failpoint_io () in
      let f = io.Io.open_file base Io.Trunc in
      f.Io.f_write "payload";
      let before = Failpoint.calls ctl in
      Failpoint.arm ctl [ (At (before + 1), Fsync_fail) ];
      (match f.Io.f_fsync () with
      | () -> Alcotest.fail "injected fsync failure should surface"
      | exception e -> check Alcotest.bool "typed Io_error" true (is_io_error e));
      check Alcotest.int "exactly one attempt, no retry" (before + 1) (Failpoint.calls ctl);
      Failpoint.arm ctl [];
      f.Io.f_fsync ();
      f.Io.f_close ())

(* ---- recovery of damaged artefacts -------------------------------- *)

let expect_corrupt ~naming f =
  match f () with
  | _ -> Alcotest.fail "recovery over damaged artefacts should raise Corrupt"
  | exception Journal.Corrupt msg ->
    let contains s sub =
      let n = String.length sub in
      let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
      go 0
    in
    check Alcotest.bool
      (Printf.sprintf "error %S names %S" msg naming)
      true (contains msg naming)

let with_journaled_base f =
  with_base (fun base ->
      let live = make_session 4 in
      let d = Durable_session.create ~base live in
      let view = Durable_session.session d in
      let root = List.hd (Tree.preorder live.Core.Session.doc) in
      ignore (view.Core.Session.insert_last root (Tree.elt "x" []));
      Durable_session.close d;
      f base)

let recover_missing_snapshot () =
  with_journaled_base (fun base ->
      let snap = Journal.snapshot_path ~base ~epoch:1 in
      Sys.remove snap;
      expect_corrupt ~naming:snap (fun () -> Journal.recover ~base ()))

(* The tests run as root, where permission bits don't bite — inject the
   EACCES on recovery's second whole-file read (manifest is the first,
   the snapshot the second) instead. *)
let recover_unreadable_snapshot () =
  with_journaled_base (fun base ->
      let ctl, io = failpoint_io () in
      Failpoint.arm ctl [ (At 2, Eacces) ];
      expect_corrupt
        ~naming:(Journal.snapshot_path ~base ~epoch:1)
        (fun () -> Journal.recover ~io ~base ()))

let recover_missing_log () =
  with_journaled_base (fun base ->
      let log = Journal.log_path ~base ~epoch:1 in
      Sys.remove log;
      expect_corrupt ~naming:log (fun () -> Journal.recover ~base ()))

let recover_zero_length_snapshot () =
  with_journaled_base (fun base ->
      let snap = Journal.snapshot_path ~base ~epoch:1 in
      Out_channel.with_open_bin snap (fun _ -> ());
      expect_corrupt ~naming:snap (fun () -> Journal.recover ~base ()))

(* ---- crash-simulator semantics ------------------------------------ *)

let file_in image name = List.assoc_opt name image

(* Content written but never fsynced may vanish at a crash; after fsync
   it must survive in every image. *)
let crashsim_unsynced_pages () =
  let sim = Crashsim.create () in
  let io = Crashsim.io sim in
  let f = io.Io.open_file "f" Io.Trunc in
  f.Io.f_write "abcdef";
  f.Io.f_close ();
  io.Io.fsync_dir ".";
  let images = Crashsim.images sim ~boundary:(Crashsim.syscalls sim) in
  check Alcotest.bool "some image lost the unsynced pages" true
    (List.exists (fun img -> file_in img "f" = Some "") images);
  check Alcotest.bool "some image kept them" true
    (List.exists (fun img -> file_in img "f" = Some "abcdef") images);
  let f = io.Io.open_file "f" Io.Append in
  f.Io.f_fsync ();
  f.Io.f_close ();
  let images = Crashsim.images sim ~boundary:(Crashsim.syscalls sim) in
  check Alcotest.bool "after fsync every image has the content" true
    (List.for_all (fun img -> file_in img "f" = Some "abcdef") images)

(* A rename is only durable after the directory fsync — and the images
   must include the reorder where a later unlink commits while the rename
   does not, the disk state a missing dir-fsync leaves behind. *)
let crashsim_rename_needs_dir_fsync () =
  let sim = Crashsim.create () in
  let io = Crashsim.io sim in
  let put name data =
    let f = io.Io.open_file name Io.Trunc in
    f.Io.f_write data;
    f.Io.f_fsync ();
    f.Io.f_close ()
  in
  put "old" "old-content";
  io.Io.fsync_dir ".";
  put "new.tmp" "new-content";
  io.Io.rename ~src:"new.tmp" ~dst:"new";
  io.Io.remove "old";
  (* no fsync_dir: both operations still pending *)
  let images = Crashsim.images sim ~boundary:(Crashsim.syscalls sim) in
  check Alcotest.bool "reorder: unlink durable, rename not" true
    (List.exists
       (fun img -> file_in img "new" = None && file_in img "old" = None)
       images);
  io.Io.fsync_dir ".";
  let images = Crashsim.images sim ~boundary:(Crashsim.syscalls sim) in
  check Alcotest.bool "after fsync_dir the rename is durable everywhere" true
    (List.for_all
       (fun img -> file_in img "new" = Some "new-content" && file_in img "old" = None)
       images)

(* write_atomic on the sim: at every boundary, every image must show the
   destination either absent/old or carrying the complete new content. *)
let crashsim_write_atomic_all_or_nothing () =
  let sim = Crashsim.create () in
  let io = Crashsim.io sim in
  Io.write_atomic io "doc" "version-1";
  Io.write_atomic io "doc" "version-22";
  for k = 0 to Crashsim.syscalls sim do
    List.iter
      (fun img ->
        match file_in img "doc" with
        | None | Some "version-1" | Some "version-22" -> ()
        | Some other ->
          Alcotest.fail (Printf.sprintf "boundary %d: partial content %S" k other))
      (Crashsim.images sim ~boundary:k)
  done;
  check Alcotest.bool "final live content" true
    (file_in (Crashsim.dump sim) "doc" = Some "version-22")

(* ---- the socket seam ---------------------------------------------- *)

let failpoint_sock () =
  let ctl, m = Failpoint.wrap_sock Io.unix_sock in
  (ctl, Io.pack_sock m)

let with_socketpair f =
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) [ a; b ])
    (fun () -> f a b)

(* An EINTR during recv must be retried into delivered bytes. *)
let sock_recv_retries_eintr () =
  with_socketpair (fun a b ->
      let ctl, sock = failpoint_sock () in
      let _ = Unix.write_substring a "payload" 0 7 in
      Failpoint.arm ctl [ (At (Failpoint.calls ctl + 1), Eintr) ];
      let buf = Bytes.create 16 in
      let n = sock.Io.s_recv b buf 0 16 in
      check Alcotest.int "the EINTR fired" 1 (Failpoint.injected ctl);
      check Alcotest.string "bytes delivered after the retry" "payload"
        (Bytes.sub_string buf 0 n))

(* A kernel that accepts only part of each send: s_send_all keeps going
   until the whole buffer is on the wire. *)
let sock_send_all_completes_short_writes () =
  with_socketpair (fun a b ->
      let ctl, sock = failpoint_sock () in
      Failpoint.arm ctl [ (From (Failpoint.calls ctl + 1), Short_write 2) ];
      sock.Io.s_send_all a "0123456789";
      check Alcotest.bool "short writes were injected" true (Failpoint.injected ctl >= 4);
      Failpoint.arm ctl [];
      let buf = Bytes.create 10 in
      let rec read_all off =
        if off < 10 then read_all (off + Unix.recv b buf off (10 - off) [])
      in
      read_all 0;
      check Alcotest.string "every byte arrived, in order" "0123456789"
        (Bytes.to_string buf))

(* An EINTR while blocked in accept is retried into a connection. *)
let sock_accept_retries_eintr () =
  let lfd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close lfd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.setsockopt lfd Unix.SO_REUSEADDR true;
      Unix.bind lfd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      Unix.listen lfd 4;
      let port =
        match Unix.getsockname lfd with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> assert false
      in
      let ctl, sock = failpoint_sock () in
      Failpoint.arm ctl [ (At (Failpoint.calls ctl + 1), Eintr) ];
      let dialer =
        Thread.create
          (fun () ->
            let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
            Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
            Unix.close fd)
          ()
      in
      let fd, _ = sock.Io.s_accept lfd in
      check Alcotest.int "the EINTR fired" 1 (Failpoint.injected ctl);
      Unix.close fd;
      Thread.join dialer)

(* Errors that are not transient surface as the seam's typed error, never
   a bare Unix_error. *)
let sock_failure_is_typed () =
  with_socketpair (fun a _b ->
      let ctl, sock = failpoint_sock () in
      Failpoint.arm ctl [ (From (Failpoint.calls ctl + 1), Eio) ];
      match sock.Io.s_send_all a "doomed" with
      | () -> Alcotest.fail "injected EIO should surface"
      | exception e ->
        check Alcotest.bool "typed Io_error, not a bare errno" true (is_io_error e))

(* ---- the torture harness ------------------------------------------ *)

let torture_smoke () =
  let report = Repro_torture.Torture.run ~seeds:1 ~ops:30 ~schemes:[ "QED" ] () in
  check Alcotest.int "no violations" 0
    (List.length report.Repro_torture.Torture.t_violations);
  (* exact coverage: a change to the workload or the sweep that
     crashes at fewer points or examines fewer images shows here *)
  check Alcotest.int "crashed at every boundary" 50 report.Repro_torture.Torture.t_boundaries;
  check Alcotest.int "crash images, each recovered" 129 report.Repro_torture.Torture.t_images

(* Intervals below 1 once divided by zero or silently acted as their
   absolute value, and zero seeds passed with no coverage: all are
   refused before any work. *)
let torture_rejects_unrunnable () =
  List.iter
    (fun (what, f) ->
      match f () with
      | (_ : Repro_torture.Torture.report) -> Alcotest.failf "%s was accepted" what
      | exception Invalid_argument _ -> ())
    [
      ("fsync_every 0", fun () -> Repro_torture.Torture.run ~fsync_every:0 ~seeds:1 ());
      ("fsync_every -8", fun () -> Repro_torture.Torture.run ~fsync_every:(-8) ~seeds:1 ());
      ("checkpoint_every 0", fun () -> Repro_torture.Torture.run ~checkpoint_every:0 ~seeds:1 ());
      ("seeds 0", fun () -> Repro_torture.Torture.run ~seeds:0 ());
      ("ops 0", fun () -> Repro_torture.Torture.run ~ops:0 ~seeds:1 ());
      ("ops -5", fun () -> Repro_torture.Torture.run ~ops:(-5) ~seeds:1 ());
    ]

(* The harness's reason to exist: with the directory fsync after atomic
   renames turned off (the historical bug), it must find violations. *)
let torture_catches_missing_dir_fsync () =
  Fun.protect
    ~finally:(fun () -> Io.unsafe_no_dir_fsync := false)
    (fun () ->
      Io.unsafe_no_dir_fsync := true;
      let report = Repro_torture.Torture.run ~seeds:1 ~ops:30 ~schemes:[ "QED" ] () in
      check Alcotest.bool "the reintroduced bug is detected" true
        (report.Repro_torture.Torture.t_violations <> []))

let suite =
  [
    Alcotest.test_case "eintr mid-record lands whole" `Quick eintr_mid_record_lands_whole;
    Alcotest.test_case "short write then eintr" `Quick short_write_then_eintr;
    Alcotest.test_case "persistent enospc fails gracefully" `Quick
      persistent_enospc_fails_gracefully;
    Alcotest.test_case "fsync fails fast" `Quick fsync_fails_fast;
    Alcotest.test_case "recover: snapshot deleted" `Quick recover_missing_snapshot;
    Alcotest.test_case "recover: snapshot unreadable" `Quick recover_unreadable_snapshot;
    Alcotest.test_case "recover: log missing" `Quick recover_missing_log;
    Alcotest.test_case "recover: zero-length snapshot" `Quick recover_zero_length_snapshot;
    Alcotest.test_case "crashsim: unsynced pages" `Quick crashsim_unsynced_pages;
    Alcotest.test_case "crashsim: rename needs dir fsync" `Quick
      crashsim_rename_needs_dir_fsync;
    Alcotest.test_case "crashsim: write_atomic all-or-nothing" `Quick
      crashsim_write_atomic_all_or_nothing;
    Alcotest.test_case "sock: recv retries eintr" `Quick sock_recv_retries_eintr;
    Alcotest.test_case "sock: send_all completes short writes" `Quick
      sock_send_all_completes_short_writes;
    Alcotest.test_case "sock: accept retries eintr" `Quick sock_accept_retries_eintr;
    Alcotest.test_case "sock: failure is typed" `Quick sock_failure_is_typed;
    Alcotest.test_case "torture smoke" `Slow torture_smoke;
    Alcotest.test_case "torture rejects intervals and seeds that cannot run" `Quick
      torture_rejects_unrunnable;
    Alcotest.test_case "torture catches missing dir fsync" `Slow
      torture_catches_missing_dir_fsync;
  ]
