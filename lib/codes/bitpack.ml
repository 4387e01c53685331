(* [acc] holds the [used] < 8 bits of the partial byte; [write_bits]
   shifts a whole field in and emits every byte it completes. *)
type writer = { buf : Buffer.t; mutable acc : int; mutable used : int; mutable total : int }

let writer () = { buf = Buffer.create 16; acc = 0; used = 0; total = 0 }

let write_bit w b =
  w.acc <- (w.acc lsl 1) lor (if b then 1 else 0);
  w.used <- w.used + 1;
  w.total <- w.total + 1;
  if w.used = 8 then begin
    Buffer.add_char w.buf (Char.unsafe_chr w.acc);
    w.acc <- 0;
    w.used <- 0
  end

(* Up to 7 pending bits plus [n] <= 55 new ones fit the 63-bit int. *)
let rec put w v n =
  if n > 55 then begin
    put w (v lsr 32) (n - 32);
    put w (v land 0xFFFF_FFFF) 32
  end
  else begin
    let acc = (w.acc lsl n) lor v and used = ref (w.used + n) in
    while !used >= 8 do
      used := !used - 8;
      Buffer.add_char w.buf (Char.unsafe_chr ((acc lsr !used) land 0xFF))
    done;
    w.acc <- acc land ((1 lsl !used) - 1);
    w.used <- !used
  end

let write_bits w v n =
  if n < 0 || n > 62 then invalid_arg "Bitpack.write_bits: width out of range";
  if n < 62 && v lsr n <> 0 then invalid_arg "Bitpack.write_bits: value does not fit";
  if v < 0 then invalid_arg "Bitpack.write_bits: negative value";
  put w v n;
  w.total <- w.total + n

let write_bitstr w b =
  for i = 0 to Bitstr.length b - 1 do
    write_bit w (Bitstr.get b i)
  done

let bit_length w = w.total

let contents w =
  if w.used = 0 then Buffer.contents w.buf
  else begin
    (* Zero-pad the final partial byte without disturbing the writer. *)
    let len = Buffer.length w.buf in
    let b = Bytes.create (len + 1) in
    Buffer.blit w.buf 0 b 0 len;
    Bytes.unsafe_set b len (Char.unsafe_chr (w.acc lsl (8 - w.used)));
    Bytes.unsafe_to_string b
  end

type reader = { data : string; total_bits : int; mutable pos : int }

let reader data = { data; total_bits = 8 * String.length data; pos = 0 }

let read_bit r =
  if r.pos >= r.total_bits then invalid_arg "Bitpack.read_bit: past the end";
  let byte = Char.code r.data.[r.pos / 8] in
  let bit = byte land (0x80 lsr (r.pos mod 8)) <> 0 in
  r.pos <- r.pos + 1;
  bit

(* A byte's worth of bits per round: the rest of the current byte, or
   what is left of the field. *)
let read_bits r n =
  if n < 0 || n > 62 then invalid_arg "Bitpack.read_bits: width out of range";
  if n > r.total_bits - r.pos then invalid_arg "Bitpack.read_bits: past the end";
  let v = ref 0 and left = ref n in
  while !left > 0 do
    let avail = 8 - (r.pos land 7) in
    let take = min avail !left in
    let byte = Char.code (String.unsafe_get r.data (r.pos lsr 3)) in
    v := (!v lsl take) lor ((byte lsr (avail - take)) land ((1 lsl take) - 1));
    r.pos <- r.pos + take;
    left := !left - take
  done;
  !v

let read_bitstr r n =
  let b = ref Bitstr.empty in
  for _ = 1 to n do
    b := Bitstr.snoc !b (read_bit r)
  done;
  !b

let bits_left r = r.total_bits - r.pos
let position r = r.pos

let bit_width v =
  let rec go n v = if v = 0 then n else go (n + 1) (v lsr 1) in
  go 0 v

let gamma_bits v =
  if v < 1 then invalid_arg "Bitpack.gamma_bits: value must be positive";
  (2 * bit_width v) - 1

let write_gamma w v =
  if v < 1 then invalid_arg "Bitpack.write_gamma: value must be positive";
  let width = bit_width v in
  write_bits w 0 (width - 1);
  write_bits w v width

let read_gamma r =
  let rec zeros n = if read_bit r then n else zeros (n + 1) in
  let leading = zeros 0 in
  (* the leading 1 already consumed is the top bit of the value *)
  let rest = read_bits r leading in
  (1 lsl leading) lor rest
