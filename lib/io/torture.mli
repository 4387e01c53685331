(** The crash-consistency torture harness: one engine, three power-cut
    sweeps.

    PR 1's journal claims that a crash at any point leaves the manifest
    naming a consistent (snapshot, log) pair and costs at most the
    unsynced log tail; journal shipping claims that a promoted replica
    serves exactly the acknowledged durable prefix. This module makes
    both claims the verdict of an executable assay rather than of
    hand-picked truncation tests. Every case:

    + runs a seeded random workload (uniform inserts for [ops/2] steps,
      then a mixed insert/delete phase) through
      {!Repro_journal.Durable_session} on the {!Repro_io.Crashsim} file
      system, recording every journaled operation, flushing the log every
      N operations (and, in a replicated case, shipping a round to a
      {!Repro_journal.Ship} follower on a {e separate} simulated file
      system right after that flush) and checkpointing every M;
    + builds the reference states [expected.(j)] — the initial document
      plus the first [j] recorded operations — by replaying the stream
      against an identically-seeded twin, so the check also re-proves
      replay determinism on every run;
    + takes a simulated power cut at {e every} mutating-syscall boundary,
      under every crash image the simulator derives (unsynced pages
      lost / kept / torn, pending directory operations reordered), and
      machine-checks the sweeps below.

    The sweeps:

    - {b Primary_crash} (single-node cases): recover the primary's
      journal through the ordinary {!Repro_journal.Journal.recover}.
      Recovery must succeed once [Durable_session.create] has returned,
      and the recovered document — names, values, levels and
      {e rendered labels} of every node, in document order — must equal
      [expected.(j)] for some [j] between the operations covered by a
      completed fsync or checkpoint at that boundary and the operations
      written at all by then: no fsynced record lost, no record partially
      applied, order consistent, codec clean.
    - {b Promote} (replicated cases): power-cut the primary and promote
      the replica. Between rounds the replica is frozen and a round runs
      no primary syscalls after its opening flush, so each boundary maps
      to an exact recorded replica state — which must equal the replay of
      {e precisely} the operations the replica acknowledged by then:
      nothing acked lost, nothing unacked invented.
    - {b Replica_crash} (replicated cases): power-cut the replica on its
      own file system and recover its journal, which must be a
      whole-record prefix within its durable range — the transitive
      durable-prefix invariant that justifies promoting a follower's
      journal into a primary's. Re-bootstraps after a primary checkpoint
      rolls the epoch must stay atomic: until the new manifest swings,
      the old follower journal recovers untouched. *)

(** {1 Checking primitives} *)

val flat : Core.Session.t -> (string * string option * int * string) list
(** The state fingerprint every invariant is checked over: name, value,
    level and {e rendered label} of every node, in document order. *)

val make_doc : int -> Repro_xml.Tree.doc
(** The seeded 30-node starting document every torture case opens on. *)

(** {1 The assay} *)

type sweep = Primary_crash | Promote | Replica_crash

val sweep_name : sweep -> string
(** ["primary-crash"], ["promote"], ["replica-crash"]. *)

type violation = {
  v_scheme : string;
  v_seed : int;
  v_sweep : sweep;
  v_boundary : int;  (** syscall boundary on the crashed side's file system *)
  v_image : int;  (** crash image index within that boundary; 0 for [Promote] *)
  v_reason : string;
}

type case = {
  c_scheme : string;
  c_seed : int;
  c_rounds : int;  (** shipping rounds run; 0 in a single-node case *)
  c_bootstraps : int;  (** snapshot bootstraps, initial + per epoch roll *)
  c_promotions : int;  (** distinct promoted-replica states checked *)
  c_boundaries : int;  (** primary syscall boundaries crashed at *)
  c_replica_boundaries : int;  (** replica syscall boundaries crashed at *)
  c_images : int;  (** deduplicated crash images, each recovered and verified *)
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

val run :
  ?ops:int ->
  ?fsync_every:int ->
  ?checkpoint_every:int ->
  ?schemes:string list ->
  ?progress:(case -> unit) ->
  seeds:int ->
  unit ->
  report
(** Single-node cases ({!Primary_crash}) for every (scheme, seed) pair:
    [schemes] defaults to [["QED"; "Vector"]] (a prefix-stable and a
    relabelling scheme), [seeds] numbers [0 .. seeds-1], [ops] defaults
    to 200, [fsync_every] to 8, [checkpoint_every] to 75. [progress]
    fires after each completed case. Raises [Invalid_argument] on an
    unknown scheme name, on [seeds < 1], on [ops < 1] or on an interval
    below 1; a harness-internal inconsistency (replay divergence) raises
    [Failure] rather than being reported as a journal violation. *)

val failover :
  ?ops:int ->
  ?ship_every:int ->
  ?checkpoint_every:int ->
  ?schemes:string list ->
  ?progress:(case -> unit) ->
  seeds:int ->
  unit ->
  report
(** Replicated cases ({!Promote} and {!Replica_crash}), as {!run}: [ops]
    defaults to 120, [ship_every] to 7, [checkpoint_every] to 45. *)
