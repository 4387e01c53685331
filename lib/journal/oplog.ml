open Repro_xml

type label = { l_bytes : string; l_bits : int }

type op =
  | Insert_first of label * Tree.frag
  | Insert_last of label * Tree.frag
  | Insert_before of label * Tree.frag
  | Insert_after of label * Tree.frag
  | Delete of label
  | Replace_value of label * string option
  | Rename of label * string
  | Mark of { mk_client : string; mk_seq : int; mk_applied : int; mk_err : (int * string) option }

(* ---- payload encoding -------------------------------------------- *)

let add_varint = Repro_codes.Varint.add

let add_str buf s =
  add_varint buf (String.length s);
  Buffer.add_string buf s

let add_label buf { l_bytes; l_bits } =
  add_varint buf l_bits;
  add_str buf l_bytes

let add_opt buf = function
  | None -> Buffer.add_char buf '\000'
  | Some v ->
    Buffer.add_char buf '\001';
    add_str buf v

(* Sequence numbers outlive the varint's 21-bit ceiling on a long-lived
   client, so they travel as fixed 8-byte little-endian. *)
let add_u64 buf v =
  for i = 0 to 7 do
    Buffer.add_char buf (Char.chr ((v lsr (8 * i)) land 0xFF))
  done

let rec add_frag buf (f : Tree.frag) =
  Buffer.add_char buf (match f.f_kind with Tree.Element -> '\000' | Tree.Attribute -> '\001');
  add_str buf f.f_name;
  add_opt buf f.f_value;
  add_varint buf (List.length f.f_children);
  List.iter (add_frag buf) f.f_children

let opcode = function
  | Insert_first _ -> 0
  | Insert_last _ -> 1
  | Insert_before _ -> 2
  | Insert_after _ -> 3
  | Delete _ -> 4
  | Replace_value _ -> 5
  | Rename _ -> 6
  | Mark _ -> 7

let payload op =
  let buf = Buffer.create 64 in
  Buffer.add_char buf (Char.chr (opcode op));
  (match op with
  | Insert_first (l, f) | Insert_last (l, f) | Insert_before (l, f) | Insert_after (l, f) ->
    add_label buf l;
    add_frag buf f
  | Delete l -> add_label buf l
  | Replace_value (l, v) ->
    add_label buf l;
    add_opt buf v
  | Rename (l, n) ->
    add_label buf l;
    add_str buf n
  | Mark { mk_client; mk_seq; mk_applied; mk_err } ->
    add_str buf mk_client;
    add_u64 buf mk_seq;
    add_varint buf mk_applied;
    (match mk_err with
    | None -> Buffer.add_char buf '\000'
    | Some (code, msg) ->
      Buffer.add_char buf '\001';
      Buffer.add_char buf (Char.chr (code land 0xFF));
      add_str buf msg));
  Buffer.contents buf

let crc s = Int32.to_int (Repro_codes.Crc32.string s) land 0xFFFFFFFF

let encode_record op =
  let p = payload op in
  let buf = Buffer.create (String.length p + 8) in
  add_varint buf (String.length p);
  Buffer.add_string buf p;
  let c = crc p in
  Buffer.add_char buf (Char.chr (c land 0xFF));
  Buffer.add_char buf (Char.chr ((c lsr 8) land 0xFF));
  Buffer.add_char buf (Char.chr ((c lsr 16) land 0xFF));
  Buffer.add_char buf (Char.chr ((c lsr 24) land 0xFF));
  Buffer.contents buf

(* ---- payload decoding -------------------------------------------- *)

(* A decoding failure anywhere in a frame means the frame is torn or
   corrupt; [Bad] carries the reason up to [read_record], which never lets
   it escape as an exception. *)
module Reader = struct
  exception Bad of string

  let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

  type cursor = { data : string; limit : int; mutable pos : int }

  let rvarint c =
    if c.pos >= c.limit then bad "truncated varint";
    match Repro_codes.Varint.decode c.data c.pos with
    | v, next ->
      if next > c.limit then bad "truncated varint";
      c.pos <- next;
      v
    | exception Invalid_argument m -> bad "%s" m

  let rbyte c =
    if c.pos >= c.limit then bad "truncated payload";
    let b = Char.code c.data.[c.pos] in
    c.pos <- c.pos + 1;
    b

  let rstr c =
    let n = rvarint c in
    if c.pos + n > c.limit then bad "truncated string (%d bytes wanted)" n;
    let s = String.sub c.data c.pos n in
    c.pos <- c.pos + n;
    s

  let rlabel c =
    let l_bits = rvarint c in
    let l_bytes = rstr c in
    { l_bytes; l_bits }

  let ru64 c =
    if c.pos + 8 > c.limit then bad "truncated u64";
    let v = ref 0 in
    for i = 7 downto 0 do
      v := (!v lsl 8) lor Char.code c.data.[c.pos + i]
    done;
    c.pos <- c.pos + 8;
    !v
end

open Reader

let ropt c =
  match rbyte c with
  | 0 -> None
  | 1 -> Some (rstr c)
  | f -> bad "bad option flag %d" f

let rec rfrag c =
  let kind = match rbyte c with 0 -> Tree.Element | 1 -> Tree.Attribute | k -> bad "bad node kind %d" k in
  let name = rstr c in
  let value = ropt c in
  let n = rvarint c in
  let children = ref [] in
  for _ = 1 to n do
    children := rfrag c :: !children
  done;
  let children = List.rev !children in
  match kind with
  | Tree.Attribute ->
    if children <> [] then bad "attribute fragment with children";
    Tree.attr name (Option.value value ~default:"")
  | Tree.Element -> Tree.elt ?value name children

let decode_payload data ~pos ~limit =
  let c = { data; limit; pos } in
  (* OCaml evaluates constructor arguments right to left: sequence the
     reads explicitly, the label always comes first in the payload *)
  let labelled_frag make =
    let l = rlabel c in
    let f = rfrag c in
    make l f
  in
  let op =
    match rbyte c with
    | 0 -> labelled_frag (fun l f -> Insert_first (l, f))
    | 1 -> labelled_frag (fun l f -> Insert_last (l, f))
    | 2 -> labelled_frag (fun l f -> Insert_before (l, f))
    | 3 -> labelled_frag (fun l f -> Insert_after (l, f))
    | 4 -> Delete (rlabel c)
    | 5 ->
      let l = rlabel c in
      Replace_value (l, ropt c)
    | 6 ->
      let l = rlabel c in
      Rename (l, rstr c)
    | 7 ->
      let mk_client = rstr c in
      let mk_seq = ru64 c in
      let mk_applied = rvarint c in
      let mk_err =
        match rbyte c with
        | 0 -> None
        | 1 ->
          let code = rbyte c in
          Some (code, rstr c)
        | f -> bad "bad mark error flag %d" f
      in
      Mark { mk_client; mk_seq; mk_applied; mk_err }
    | o -> bad "unknown opcode %d" o
  in
  if c.pos <> limit then bad "trailing bytes inside the record payload";
  op

(* ---- framing ------------------------------------------------------ *)

type read_result = Record of op * int | End_of_log | Torn of string

let read_record data pos =
  let len = String.length data in
  if pos = len then End_of_log
  else if pos > len then Torn "position past the end of the log"
  else
    match Repro_codes.Varint.decode data pos with
    | exception Invalid_argument _ -> Torn "truncated record length"
    | plen, body ->
      if body + plen + 4 > len then Torn "truncated record frame"
      else
        let stored =
          Char.code data.[body + plen]
          lor (Char.code data.[body + plen + 1] lsl 8)
          lor (Char.code data.[body + plen + 2] lsl 16)
          lor (Char.code data.[body + plen + 3] lsl 24)
        in
        let actual = crc (String.sub data body plen) in
        if stored <> actual then Torn "record checksum mismatch"
        else begin
          match decode_payload data ~pos:body ~limit:(body + plen) with
          | op -> Record (op, body + plen + 4)
          | exception Bad reason -> Torn ("corrupt record: " ^ reason)
        end

let read_all data ~pos =
  let rec go pos acc =
    match read_record data pos with
    | End_of_log -> (List.rev acc, pos, None)
    | Torn reason -> (List.rev acc, pos, Some reason)
    | Record (op, next) -> go next (op :: acc)
  in
  go pos []

(* ---- rendering ---------------------------------------------------- *)

let hex s =
  String.concat "" (List.map (Printf.sprintf "%02x") (List.map Char.code (List.init (String.length s) (String.get s))))

let label_to_string l = Printf.sprintf "@%s/%db" (hex l.l_bytes) l.l_bits

let op_to_string = function
  | Insert_first (l, f) ->
    Printf.sprintf "insert %s as first into %s" (Serializer.frag_to_string f) (label_to_string l)
  | Insert_last (l, f) ->
    Printf.sprintf "insert %s as last into %s" (Serializer.frag_to_string f) (label_to_string l)
  | Insert_before (l, f) ->
    Printf.sprintf "insert %s before %s" (Serializer.frag_to_string f) (label_to_string l)
  | Insert_after (l, f) ->
    Printf.sprintf "insert %s after %s" (Serializer.frag_to_string f) (label_to_string l)
  | Delete l -> Printf.sprintf "delete %s" (label_to_string l)
  | Replace_value (l, v) ->
    Printf.sprintf "replace value of %s with %s" (label_to_string l)
      (match v with None -> "(none)" | Some v -> Printf.sprintf "%S" v)
  | Rename (l, n) -> Printf.sprintf "rename %s as %s" (label_to_string l) n
  | Mark { mk_client; mk_seq; mk_applied; mk_err } ->
    Printf.sprintf "mark client %S seq %d applied %d%s" mk_client mk_seq mk_applied
      (match mk_err with
      | None -> ""
      | Some (code, msg) -> Printf.sprintf " err %d %S" code msg)
