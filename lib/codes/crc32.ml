(* Table-driven CRC-32 with the reflected IEEE polynomial 0xEDB88320, on
   native ints: the running value stays within 32 bits, so nothing is
   boxed per byte. *)

let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let update crc s =
  let crc = ref crc in
  for i = 0 to String.length s - 1 do
    crc := table.((!crc lxor Char.code s.[i]) land 0xFF) lxor (!crc lsr 8)
  done;
  !crc

let strings parts = Int32.of_int (0xFFFFFFFF lxor List.fold_left update 0xFFFFFFFF parts)

let string s = strings [ s ]
