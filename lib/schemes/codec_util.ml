(** Helpers shared by the schemes' binary label codecs. *)

open Repro_codes

let write_byte w b = Bitpack.write_bits w b 8

(* Varint bytes go straight to and from the bit stream, one at a time:
   no string per component. *)
let write_varint w v =
  let len = Varint.byte_length v in
  for i = 0 to len - 1 do
    write_byte w (Varint.nth_byte v ~len i)
  done

let read_varint r =
  let b0 = Bitpack.read_bits r 8 in
  let len = Varint.length_of_lead b0 in
  let v = ref (Varint.lead_payload b0 ~len) in
  for _ = 2 to len do
    v := (!v lsl 6) lor Varint.continuation_payload (Bitpack.read_bits r 8)
  done;
  !v

(* Zigzag maps signed values to naturals so varint/prefix-free layouts
   apply: 0, -1, 1, -2, 2, ... -> 0, 1, 2, 3, 4, ... *)
let zigzag v = if v >= 0 then 2 * v else (-2 * v) - 1
let unzigzag z = if z land 1 = 0 then z / 2 else -((z + 1) / 2)
