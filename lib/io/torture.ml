open Repro_xml
module J = Repro_journal.Journal
module DS = Repro_journal.Durable_session
module Ship = Repro_journal.Ship
module Sim = Repro_io.Crashsim

type sweep = Primary_crash | Promote | Replica_crash

let sweep_name = function
  | Primary_crash -> "primary-crash"
  | Promote -> "promote"
  | Replica_crash -> "replica-crash"

type violation = {
  v_scheme : string;
  v_seed : int;
  v_sweep : sweep;
  v_boundary : int;
  v_image : int;
  v_reason : string;
}

type case = {
  c_scheme : string;
  c_seed : int;
  c_rounds : int;
  c_bootstraps : int;
  c_promotions : int;
  c_boundaries : int;
  c_replica_boundaries : int;
  c_images : int;
  c_violations : int;
}

type report = {
  t_cases : case list;
  t_rounds : int;
  t_bootstraps : int;
  t_boundaries : int;
  t_replica_boundaries : int;
  t_images : int;
  t_violations : violation list;
}

(* The full observable content of a session: structure, content and the
   rendered label of every node. Rendering every label is what makes a
   recovery "codec clean" — a label whose bytes survived but no longer
   decode would raise here, inside the harness, and be reported. *)
let flat (session : Core.Session.t) =
  List.map
    (fun (n : Tree.node) ->
      (n.Tree.name, n.Tree.value, Tree.level n, session.Core.Session.label_string n))
    (Tree.preorder session.Core.Session.doc)

let make_doc seed =
  Repro_workload.Docgen.generate ~seed
    { Repro_workload.Docgen.default_shape with target_nodes = 30 }

(* A view over the durable session's view that also hands each journaled
   operation to [note] — the label captured before the mutation, exactly
   as Durable_session itself does — so the harness owns the complete
   operation stream across checkpoints (the journal only keeps the tail
   since the last one). *)
let recording (view : Core.Session.t) note =
  let label n =
    let l_bytes, l_bits = view.Core.Session.label_encoded n in
    { Repro_journal.Oplog.l_bytes; l_bits }
  in
  let ins make apply n f =
    note (make (label n) f);
    apply n f
  in
  {
    view with
    Core.Session.insert_first =
      ins (fun l f -> Repro_journal.Oplog.Insert_first (l, f)) view.Core.Session.insert_first;
    insert_last =
      ins (fun l f -> Repro_journal.Oplog.Insert_last (l, f)) view.Core.Session.insert_last;
    insert_before =
      ins (fun l f -> Repro_journal.Oplog.Insert_before (l, f)) view.Core.Session.insert_before;
    insert_after =
      ins (fun l f -> Repro_journal.Oplog.Insert_after (l, f)) view.Core.Session.insert_after;
    delete =
      (fun n ->
        note (Repro_journal.Oplog.Delete (label n));
        view.Core.Session.delete n);
    set_value =
      (fun n v ->
        note (Repro_journal.Oplog.Replace_value (label n, v));
        view.Core.Session.set_value n v);
    rename =
      (fun n name ->
        note (Repro_journal.Oplog.Rename (label n, name));
        view.Core.Session.rename n name);
  }

(* Durability bookkeeping: [(counter, ops)] marks, newest first. [at k]
   is the largest op count whose mark precedes boundary [k]. *)
let at marks k =
  List.fold_left (fun acc (c, n) -> if c <= k && n > acc then n else acc) 0 marks

(* The power-cut sweep over one simulated file system: for every syscall
   boundary [k] and every crash image of it, recover the journal [base]
   and require the state after exactly [j] journaled operations, for some
   [j] between the synced and the written mark at [k]. Until [ready] the
   journal legitimately may not exist on the surviving disk; afterwards
   nothing excuses a recovery failure. Before [ready] no mark lies at or
   below [k], so the range is [0, 0]: the initial state. Returns the
   number of images recovered. *)
let sweep_images sim ~base ~ready ~written ~synced ~expected ~fail =
  let recover image =
    let sim = Sim.restore image in
    let t, session, _ = J.recover ~io:(Sim.io sim) ~base () in
    J.close t;
    flat session
  in
  let images = ref 0 in
  for k = 0 to Sim.syscalls sim do
    let lo = at synced k and hi = at written k in
    List.iteri
      (fun idx img ->
        incr images;
        let fail = fail ~boundary:k ~image:idx in
        match recover img with
        | exception J.Corrupt msg -> if k >= ready then fail ("recovery raised Corrupt: " ^ msg)
        | exception e -> fail ("recovery raised " ^ Printexc.to_string e)
        | got ->
          let rec matches j = j <= hi && (got = expected.(j) || matches (j + 1)) in
          if not (matches lo) then
            fail
              (Printf.sprintf
                 "%s recovered to no whole-record prefix in the durable range [%d, %d] of %d \
                  journaled operations"
                 base lo hi
                 (Array.length expected - 1)))
      (Sim.images sim ~boundary:k)
  done;
  !images

(* The replica of a replicated case: one Ship follower on its own
   simulated-crash file system, fed through the real Journal.ship /
   Ship.apply path. Its syscall counter brackets every locally journaled
   record; all counts are in upstream operations. *)
type replica = {
  r_sim : Sim.sim;
  mutable follower : Ship.t option;
  mutable r_ops : int; (* upstream ops the replica has durably applied *)
  mutable snap_ops : int; (* ops absorbed by the primary's current epoch snapshot *)
  mutable r_written : (int * int) list;
  mutable r_synced : (int * int) list;
  mutable bootstraps : int;
  mutable first_boot_done : int;
  (* (primary syscalls at round completion, acked ops, replica state),
     newest first *)
  mutable rounds : (int * int * (string * string option * int * string) list) list;
}

let bootstrap r j =
  Option.iter (fun f -> try Ship.close f with Repro_io.Io.Io_error _ -> ()) r.follower;
  r.bootstraps <- r.bootstraps + 1;
  (* From here until Ship.bootstrap returns, the replica's disk is allowed
     to show anything between its old durable state and the incoming
     snapshot — the written mark moves to [snap_ops] now, the synced mark
     only once the install's atomic manifest swing is done. *)
  r.r_written <- (Sim.syscalls r.r_sim, r.snap_ops) :: r.r_written;
  let f =
    Ship.bootstrap ~io:(Sim.io r.r_sim) ~fsync_every:max_int ~base:"replica"
      ~snapshot:(J.snapshot_bytes j)
      ~pos:{ J.p_epoch = J.epoch j; p_offset = J.log_start j }
      ()
  in
  r.follower <- Some f;
  r.r_ops <- r.snap_ops;
  r.r_synced <- (Sim.syscalls r.r_sim, r.r_ops) :: r.r_synced;
  if r.first_boot_done = max_int then r.first_boot_done <- Sim.syscalls r.r_sim;
  f

(* One shipping round, after the primary's flush at syscall [pc]: drain
   the durable log into the follower, re-bootstrapping across an epoch
   roll, and record the state a promotion would now serve. *)
let ship_round r j ~pc ~n_recorded =
  let f = ref (match r.follower with Some f -> f | None -> bootstrap r j) in
  let draining = ref true in
  while !draining do
    let pos = Ship.position !f in
    if pos.J.p_epoch <> J.epoch j then f := bootstrap r j
    else begin
      let data, _durable = J.ship j ~from:pos.J.p_offset ~limit:512 in
      if data = "" then draining := false
      else begin
        let before = r.r_ops in
        let applied =
          Ship.apply !f ~epoch:pos.J.p_epoch ~offset:pos.J.p_offset data ~progress:(fun k ->
              r.r_written <- (Sim.syscalls r.r_sim, before + k) :: r.r_written)
        in
        r.r_ops <- before + applied;
        r.r_synced <- (Sim.syscalls r.r_sim, r.r_ops) :: r.r_synced
      end
    end
  done;
  if Ship.position !f <> J.durable_position j then
    failwith "crash-sweep rig: replica position diverged from the primary's durable prefix";
  if r.r_ops <> n_recorded then
    failwith "crash-sweep rig: replica operation count diverged from the recorded stream";
  r.rounds <- (pc, r.r_ops, flat (Ship.session !f)) :: r.rounds

(* Power-cut the primary at every boundary up to [total] and promote. The
   replica only changes during rounds, and a round runs no primary
   syscalls after its opening flush, so the replica a boundary-k crash
   would promote is exactly the one recorded by the latest round with
   pc <= k. Its state must equal the replay of precisely the operations
   it acknowledged. Returns the number of distinct states checked. *)
let promote_sweep r ~total ~expected ~fail =
  let rounds = Array.of_list (List.rev r.rounds) in
  let checked = Array.make (Array.length rounds) false in
  let promotions = ref 0 in
  let idx = ref (-1) in
  for k = 0 to total do
    while
      !idx + 1 < Array.length rounds
      && (let pc, _, _ = rounds.(!idx + 1) in
          pc <= k)
    do
      incr idx
    done;
    if !idx >= 0 && not checked.(!idx) then begin
      checked.(!idx) <- true;
      incr promotions;
      let _, n, fl = rounds.(!idx) in
      if fl <> expected.(n) then
        fail ~boundary:k ~image:0
          (Printf.sprintf
             "promoted replica diverges from the %d operations it acknowledged (of %d \
              journaled)"
             n
             (Array.length expected - 1))
    end
  done;
  !promotions

(* One (scheme, seed) case. The primary durable session runs on a
   simulated-crash file system with fsync batching driven from here
   (fsync_every = max_int below), so every flush, checkpoint and shipping
   round is bracketed by exact syscall counters. The workload is
   Uniform_random for ops/2 steps, then Mixed_with_deletes; every
   [interval] steps the log is flushed (and, when [replicated], shipped),
   every [checkpoint_every] steps the primary checkpoints (which rolls
   the epoch and forces a follower to re-bootstrap). *)
let run_case ~replicated ~interval ~pack ~scheme ~seed ~ops ~checkpoint_every =
  let sim = Sim.create () in
  let live = Core.Session.make pack (make_doc seed) in
  let reference = Core.Session.make pack (make_doc seed) in
  let base = "journal" in
  let d = DS.create ~io:(Sim.io sim) ~fsync_every:max_int ~base live in
  let j = DS.journal d in
  let create_done = Sim.syscalls sim in
  let recorded = ref [] and n_recorded = ref 0 in
  let view =
    recording (DS.session d) (fun op ->
        recorded := op :: !recorded;
        incr n_recorded)
  in
  let written = ref [ (create_done, 0) ] and synced = ref [ (create_done, 0) ] in
  let mark marks = marks := (Sim.syscalls sim, !n_recorded) :: !marks in
  let replica =
    if not replicated then None
    else
      Some
        {
          r_sim = Sim.create ();
          follower = None;
          r_ops = 0;
          snap_ops = 0;
          r_written = [];
          r_synced = [];
          bootstraps = 0;
          first_boot_done = max_int;
          rounds = [];
        }
  in
  let flush () =
    J.flush j;
    mark synced;
    Option.iter (fun r -> ship_round r j ~pc:(Sim.syscalls sim) ~n_recorded:!n_recorded) replica
  in
  if replicated then flush ();
  let step_no = ref 0 in
  let run_pattern pattern pseed n =
    let drv = Repro_workload.Updates.start pattern ~seed:pseed view in
    for _ = 1 to n do
      Repro_workload.Updates.step drv;
      mark written;
      incr step_no;
      if !step_no mod interval = 0 then flush ();
      if !step_no mod checkpoint_every = 0 then begin
        DS.checkpoint d;
        mark synced;
        Option.iter (fun r -> r.snap_ops <- !n_recorded) replica
      end
    done
  in
  let half = ops / 2 in
  run_pattern Repro_workload.Updates.Uniform_random ((seed * 7) + 1) half;
  run_pattern Repro_workload.Updates.Mixed_with_deletes ((seed * 7) + 2) (ops - half);
  if replicated then flush ();
  DS.close d;
  mark synced;
  (* Reference states: expected.(j) is the snapshot plus the first j
     records. Replaying onto the identically-seeded twin must land on the
     live state — if it does not, the harness itself is broken. *)
  let expected = Array.make (!n_recorded + 1) [] in
  expected.(0) <- flat reference;
  List.iteri
    (fun i op ->
      J.apply reference op;
      expected.(i + 1) <- flat reference)
    (List.rev !recorded);
  if expected.(!n_recorded) <> flat live then
    failwith "crash-sweep rig: replaying the recorded operations diverged from the live session";
  let violations = ref [] in
  let fail v_sweep ~boundary ~image reason =
    violations :=
      {
        v_scheme = scheme;
        v_seed = seed;
        v_sweep;
        v_boundary = boundary;
        v_image = image;
        v_reason = reason;
      }
      :: !violations
  in
  let case =
    {
      c_scheme = scheme;
      c_seed = seed;
      c_rounds = 0;
      c_bootstraps = 0;
      c_promotions = 0;
      c_boundaries = Sim.syscalls sim + 1;
      c_replica_boundaries = 0;
      c_images = 0;
      c_violations = 0;
    }
  in
  let case =
    match replica with
    | None ->
      let images =
        sweep_images sim ~base ~ready:create_done ~written:!written ~synced:!synced ~expected
          ~fail:(fail Primary_crash)
      in
      { case with c_images = images }
    | Some r ->
      (match r.follower with
      | Some f when flat (Ship.session f) = expected.(!n_recorded) -> ()
      | _ -> failwith "crash-sweep rig: fully caught-up replica diverged from the live session");
      let promotions =
        promote_sweep r ~total:(Sim.syscalls sim) ~expected ~fail:(fail Promote)
      in
      let images =
        sweep_images r.r_sim ~base:"replica" ~ready:r.first_boot_done ~written:r.r_written
          ~synced:r.r_synced ~expected ~fail:(fail Replica_crash)
      in
      {
        case with
        c_rounds = List.length r.rounds;
        c_bootstraps = r.bootstraps;
        c_promotions = promotions;
        c_replica_boundaries = Sim.syscalls r.r_sim + 1;
        c_images = images;
      }
  in
  let violations = List.rev !violations in
  ({ case with c_violations = List.length violations }, violations)

let sweep_all ~fn ~replicated ~interval:(interval_name, interval) ~ops ~checkpoint_every
    ~schemes ~progress ~seeds =
  let at_least_1 what v =
    if v < 1 then invalid_arg (Printf.sprintf "%s: %s must be at least 1, got %d" fn what v)
  in
  at_least_1 "seeds" seeds;
  at_least_1 "ops" ops;
  at_least_1 interval_name interval;
  at_least_1 "checkpoint_every" checkpoint_every;
  let packs =
    List.map
      (fun name ->
        match Repro_schemes.Registry.find name with
        | Some pack -> (name, pack)
        | None -> invalid_arg (Printf.sprintf "%s: unknown scheme %S" fn name))
      schemes
  in
  let cases = ref [] and violations = ref [] in
  List.iter
    (fun (scheme, pack) ->
      for seed = 0 to seeds - 1 do
        let case, vs =
          run_case ~replicated ~interval ~pack ~scheme ~seed ~ops ~checkpoint_every
        in
        cases := case :: !cases;
        violations := List.rev_append vs !violations;
        Option.iter (fun f -> f case) progress
      done)
    packs;
  let cases = List.rev !cases in
  let sum f = List.fold_left (fun a c -> a + f c) 0 cases in
  {
    t_cases = cases;
    t_rounds = sum (fun c -> c.c_rounds);
    t_bootstraps = sum (fun c -> c.c_bootstraps);
    t_boundaries = sum (fun c -> c.c_boundaries);
    t_replica_boundaries = sum (fun c -> c.c_replica_boundaries);
    t_images = sum (fun c -> c.c_images);
    t_violations = List.rev !violations;
  }

let run ?(ops = 200) ?(fsync_every = 8) ?(checkpoint_every = 75)
    ?(schemes = [ "QED"; "Vector" ]) ?progress ~seeds () =
  sweep_all ~fn:"Torture.run" ~replicated:false ~interval:("fsync_every", fsync_every) ~ops
    ~checkpoint_every ~schemes ~progress ~seeds

let failover ?(ops = 120) ?(ship_every = 7) ?(checkpoint_every = 45)
    ?(schemes = [ "QED"; "Vector" ]) ?progress ~seeds () =
  sweep_all ~fn:"Torture.failover" ~replicated:true ~interval:("ship_every", ship_every) ~ops
    ~checkpoint_every ~schemes ~progress ~seeds
