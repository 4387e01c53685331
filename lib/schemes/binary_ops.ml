(** Lexicographic betweenness on bit strings, shared by ImprovedBinary and
    CDBS.

    Under prefix-first lexicographic order ([Bitstr.compare]):
    - when [l] is not a prefix of [r], [l·1] lies strictly between them
      (they first differ at an index inside both, so appending to [l]
      cannot move it past [r]);
    - when [r = l·s], a code below [s] but above the empty string is
      [0^j·01] where [0^j] is [s]'s run of leading zeros — [s] cannot be
      all zeros, because nothing at all fits between [l] and [l·0^k].

    Both cases produce codes ending in 1, which is the invariant Li & Ling
    prove for their AssignMiddleSelfLabel function. *)

open Repro_codes

let one = Bitstr.of_string "1"
let zero_one = Bitstr.of_string "01"

let after l = Bitstr.snoc l true

(* The last 1 of [f] becomes 01; trailing zeros (possible only in CDBS's
   fixed-length initial codes) are dropped first so the result stays below
   [f] and ends in 1. *)
let before f =
  let rec strip f =
    if Bitstr.length f = 0 then
      invalid_arg "Binary_ops.before: no code below an all-zero code"
    else if Bitstr.last f then f
    else strip (Bitstr.drop_last f)
  in
  let f = strip f in
  Bitstr.concat (Bitstr.drop_last f) zero_one

let between l r =
  if Bitstr.compare l r >= 0 then
    invalid_arg "Binary_ops.between: codes are not ordered";
  if not (Bitstr.is_prefix l r) then Bitstr.concat l one
  else begin
    (* r = l·s: emit l·0^j·01 where j is the length of s's zero run. *)
    let s_start = Bitstr.length l in
    let rec zeros j =
      if s_start + j >= Bitstr.length r then
        invalid_arg "Binary_ops.between: no code fits below an all-zero suffix"
      else if Bitstr.get r (s_start + j) then j
      else zeros (j + 1)
    in
    let j = zeros 0 in
    (* one concatenation, not a snoc per zero: the skewed insert-after
       workload grows the zero run by one every operation *)
    Bitstr.concat_list [ l; Bitstr.zeroes j; zero_one ]
  end
