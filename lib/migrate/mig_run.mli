(** The offline per-scheme migration matrix.

    For each labelling scheme: generate a seeded document, run a storm of
    migration operators (round-robin over the six kinds), and account the
    blast radius per operator kind — primitives compiled, nodes
    relabelled, overflow events, journal bytes, incremental-index time
    and renumber events — while an oracle twin (same seed, same scheme,
    hence byte-identical labels) replays every emitted plan through
    {!Repro_journal.Journal.Resolver} and must serialize to the same
    bytes, and a standing-query pool is classified
    survived/changed/broken after every step — with every answer the
    survival tracker kept re-checked by a full re-evaluation. *)

type cell = {
  mutable c_ops : int;
  mutable c_prims : int;
  mutable c_relabelled : int;
  mutable c_overflow : int;
  mutable c_journal_bytes : int;
  mutable c_axis_ns : int64;
  mutable c_renumbered : int;
}

type row = {
  r_scheme : string;
  r_cells : cell array;
  r_steps : int;
  r_skipped : int;
  r_nodes0 : int;
  r_nodes1 : int;
  r_avg_bits0 : float;
  r_avg_bits1 : float;
  r_max_bits1 : int;
  r_disagreements : int;
  r_axis_ok : bool;
  r_survived : int;
  r_changed : int;
  r_broken : int;
  r_queries : int;
  r_evaluated : int;  (** standing-query evaluations the steps made *)
  r_kept : int;  (** answers the steps kept without evaluation *)
  r_mismatches : int;
      (** kept answers the full re-evaluation ([step ~check:true])
          contradicted — must be 0 *)
  r_error : string option;
}

type config = { seed : int; nodes : int; steps : int; queries : int }

val default_config : config

val run_scheme : config -> Core.Scheme.packed -> row
(** Never raises: a scheme blowing up mid-storm is recorded in [r_error]
    with the storm cut short at that step. *)

val run : config -> Core.Scheme.packed list -> row list

val total_disagreements : row list -> int

val total_mismatches : row list -> int
(** Kept survival answers contradicted by the full re-evaluation. *)

val render : Format.formatter -> config -> row list -> unit

val to_json : config -> row list -> string
