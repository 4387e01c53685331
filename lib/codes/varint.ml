exception Overflow of int

let max_encodable = (1 lsl 21) - 1

let byte_length v =
  if v < 0 then invalid_arg "Varint.byte_length: negative value";
  if v < 0x80 then 1
  else if v < 0x800 then 2
  else if v < 0x10000 then 3
  else if v <= max_encodable then 4
  else raise (Overflow v)

let bits v = 8 * byte_length v

(* Leading byte of an [n]-byte sequence, before its payload bits. *)
let lead = [| 0; 0; 0xC0; 0xE0; 0xF0 |]

let nth_byte v ~len i =
  if len = 1 then v
  else if i = 0 then lead.(len) lor (v lsr (6 * (len - 1)))
  else 0x80 lor ((v lsr (6 * (len - 1 - i))) land 0x3F)

let encode v =
  let len = byte_length v in
  let b = Bytes.create len in
  for i = 0 to len - 1 do
    Bytes.set b i (Char.chr (nth_byte v ~len i))
  done;
  Bytes.unsafe_to_string b

let add buf v =
  let len = byte_length v in
  for i = 0 to len - 1 do
    Buffer.add_char buf (Char.chr (nth_byte v ~len i))
  done

let length_of_lead b0 =
  if b0 < 0x80 then 1
  else if b0 land 0xE0 = 0xC0 then 2
  else if b0 land 0xF0 = 0xE0 then 3
  else if b0 land 0xF8 = 0xF0 then 4
  else invalid_arg "Varint.decode: bad leading byte"

let lead_payload b0 ~len = if len = 1 then b0 else b0 land (0xFF lsr (len + 1))

let continuation_payload b =
  if b land 0xC0 <> 0x80 then invalid_arg "Varint.decode: bad continuation";
  b land 0x3F

let decode s pos =
  if pos < 0 || pos >= String.length s then
    invalid_arg "Varint.decode: position out of range";
  let b0 = Char.code s.[pos] in
  let len = length_of_lead b0 in
  if pos + len > String.length s then invalid_arg "Varint.decode: truncated sequence";
  let v = ref (lead_payload b0 ~len) in
  for i = 1 to len - 1 do
    v := (!v lsl 6) lor continuation_payload (Char.code s.[pos + i])
  done;
  (!v, pos + len)

let encode_list vs = String.concat "" (List.map encode vs)

let decode_all s =
  let rec go pos acc =
    if pos = String.length s then List.rev acc
    else
      let v, next = decode s pos in
      go next (v :: acc)
  in
  go 0 []
