open Repro_xml

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

let magic = "XLS1"
let no_parent = 0xFFFFFFFF

(* ---- little-endian primitives ------------------------------------ *)

let w8 buf v = Buffer.add_char buf (Char.chr (v land 0xFF))

let w16 buf v =
  w8 buf v;
  w8 buf (v lsr 8)

let w32 buf v =
  w16 buf (v land 0xFFFF);
  w16 buf ((v lsr 16) land 0xFFFF)

let wstr16 buf s =
  if String.length s > 0xFFFF then corrupt "string too long for the format";
  w16 buf (String.length s);
  Buffer.add_string buf s

type cursor = { data : string; mutable pos : int; mutable section : string }
(** [section] names what is being read, so truncation errors can say which
    part of the store the data ran out under. *)

let need c n =
  if c.pos + n > String.length c.data then
    corrupt "truncated store while reading the %s (byte %d of %d)" c.section c.pos
      (String.length c.data)

let r8 c =
  need c 1;
  let v = Char.code c.data.[c.pos] in
  c.pos <- c.pos + 1;
  v

let r16 c =
  let lo = r8 c in
  lo lor (r8 c lsl 8)

let r32 c =
  let lo = r16 c in
  lo lor (r16 c lsl 16)

let rstr16 c =
  let n = r16 c in
  need c n;
  let s = String.sub c.data c.pos n in
  c.pos <- c.pos + n;
  s

(* ---- saving ------------------------------------------------------ *)

(* Labels are read straight from the scheme ([label_encoded_direct]): one
   pass over the whole document would otherwise fill the session's label
   memos, only for the next mutation to drop them. The buffer starts at
   a typical node's size times the node count. *)
let save session =
  let doc = session.Core.Session.doc in
  let nodes = Tree.preorder_array doc in
  let buf = Buffer.create (64 + (32 * Array.length nodes)) in
  Buffer.add_string buf magic;
  wstr16 buf session.Core.Session.scheme_name;
  (* node id -> document position, for parent references *)
  let position = Hashtbl.create (Array.length nodes) in
  Array.iteri (fun i (n : Tree.node) -> Hashtbl.replace position n.id i) nodes;
  w32 buf (Array.length nodes);
  Array.iter
    (fun (n : Tree.node) ->
      w8 buf (match n.kind with Tree.Element -> 0 | Tree.Attribute -> 1);
      w32 buf
        (match Tree.parent n with
        | Some p -> Hashtbl.find position p.id
        | None -> no_parent);
      wstr16 buf n.name;
      (match n.value with
      | None -> w8 buf 0
      | Some v ->
        w8 buf 1;
        w32 buf (String.length v);
        Buffer.add_string buf v);
      let bytes, bits = session.Core.Session.label_encoded_direct n in
      w16 buf bits;
      wstr16 buf bytes)
    nodes;
  (* the checksum goes in a reserved slot of the one copy out of [buf] *)
  let body_len = Buffer.length buf in
  w32 buf 0;
  let out = Buffer.to_bytes buf in
  Bytes.set_int32_le out body_len (Repro_codes.Crc32.bytes out ~pos:0 ~len:body_len);
  Bytes.unsafe_to_string out

let save_file ?(io = Repro_io.Io.real) session path =
  let f = io.Repro_io.Io.open_file path Repro_io.Io.Trunc in
  Fun.protect
    ~finally:(fun () -> f.Repro_io.Io.f_close ())
    (fun () -> f.Repro_io.Io.f_write (save session))

(* ---- loading ------------------------------------------------------ *)

let is_truncation msg =
  String.length msg >= 9 && String.sub msg 0 9 = "truncated"

type stored_node = {
  s_kind : Tree.kind;
  s_parent : int;
  s_name : string;
  s_value : string option;
  s_label_bits : int;
  s_label_bytes : string;
}

(* The node count is untrusted: nodes are read one at a time until it or
   the data runs out, so a damaged count costs a truncation error, never
   an allocation of its size. *)
let read_nodes c =
  c.section <- "node count";
  let count = r32 c in
  let read_node () =
    c.section <- "node header";
    let s_kind =
      match r8 c with 0 -> Tree.Element | 1 -> Tree.Attribute | k -> corrupt "bad node kind %d" k
    in
    let s_parent = r32 c in
    c.section <- "node name";
    let s_name = rstr16 c in
    c.section <- "node value";
    let s_value =
      match r8 c with
      | 0 -> None
      | 1 ->
        let n = r32 c in
        need c n;
        let v = String.sub c.data c.pos n in
        c.pos <- c.pos + n;
        Some v
      | f -> corrupt "bad value flag %d" f
    in
    c.section <- "node label";
    let s_label_bits = r16 c in
    let s_label_bytes = rstr16 c in
    { s_kind; s_parent; s_name; s_value; s_label_bits; s_label_bytes }
  in
  let rec go i acc =
    if i = count then Array.of_list (List.rev acc) else go (i + 1) (read_node () :: acc)
  in
  go 0 []

(* ---- envelope ----------------------------------------------------- *)

let body_cursor body = { data = body; pos = String.length magic; section = "scheme name" }

let parse_body body =
  let c = body_cursor body in
  let _scheme = rstr16 c in
  let _nodes = read_nodes c in
  if c.pos <> String.length c.data then corrupt "trailing bytes after the node table"

let check_envelope data =
  if String.length data < String.length magic + 4 then
    corrupt "truncated store: %d bytes is shorter than the header and checksum"
      (String.length data);
  if String.sub data 0 (String.length magic) <> magic then
    corrupt "bad magic number in the header";
  let body = String.sub data 0 (String.length data - 4) in
  let stored_crc =
    let c = { data; pos = String.length data - 4; section = "checksum" } in
    r32 c
  in
  let actual = Int32.to_int (Repro_codes.Crc32.string body) land 0xFFFFFFFF in
  if stored_crc <> actual then begin
    (* A store cut off mid-write fails its checksum too, but "truncated
       while reading the node label" is a better diagnosis than a bare
       mismatch: probe-parse the body and prefer the truncation error when
       that is what the probe hits. *)
    (match parse_body body with
    | () -> ()
    | exception Corrupt msg when is_truncation msg -> raise (Corrupt msg)
    | exception Corrupt _ -> ());
    corrupt "checksum mismatch over the store body (stored %08lx, computed %08lx)"
      (Int32.of_int stored_crc) (Int32.of_int actual)
  end;
  body_cursor body

let scheme_of data =
  let c = check_envelope data in
  rstr16 c

(* Rebuild the fragment tree from positional parent links: children follow
   their parent in document order, so a single pass with a position->frag
   accumulation suffices; we go through an intermediate mutable record. *)
let rebuild_doc stored =
  if Array.length stored = 0 then corrupt "store holds no nodes";
  if stored.(0).s_parent <> no_parent then corrupt "first node is not the root";
  let children = Array.make (Array.length stored) [] in
  (* collect child positions per parent (reverse order) *)
  Array.iteri
    (fun i s ->
      if i > 0 then begin
        if s.s_parent >= i then corrupt "parent reference out of order";
        children.(s.s_parent) <- i :: children.(s.s_parent)
      end)
    stored;
  let rec frag i =
    let s = stored.(i) in
    (* children were accumulated in reverse document order *)
    let kids = List.rev_map frag children.(i) in
    match s.s_kind with
    | Tree.Attribute ->
      if kids <> [] then corrupt "attribute with children";
      Tree.attr s.s_name (Option.value s.s_value ~default:"")
    | Tree.Element -> Tree.elt ?value:s.s_value s.s_name kids
  in
  Tree.create (frag 0)

let load ?scheme data =
  let c = check_envelope data in
  let scheme_name = rstr16 c in
  let pack =
    match scheme with
    | Some pack ->
      if Core.Scheme.name pack <> scheme_name then
        corrupt "store was written by %S, not %S" scheme_name (Core.Scheme.name pack);
      pack
    | None -> (
      match Repro_schemes.Registry.find scheme_name with
      | Some pack -> pack
      | None -> corrupt "unknown scheme %S" scheme_name)
  in
  let stored = read_nodes c in
  if c.pos <> String.length c.data then corrupt "trailing bytes after the node table";
  let doc = rebuild_doc stored in
  (* document order of the fresh tree matches the stored order *)
  let by_position = Tree.preorder_array doc in
  if Array.length by_position <> Array.length stored then corrupt "node count mismatch";
  let by_id = Hashtbl.create (Array.length stored) in
  Array.iteri (fun i (n : Tree.node) -> Hashtbl.replace by_id n.id stored.(i)) by_position;
  let lookup (n : Tree.node) =
    let s = Hashtbl.find by_id n.id in
    (s.s_label_bytes, s.s_label_bits)
  in
  match Core.Session.restore pack doc lookup with
  | session -> session
  | exception Invalid_argument msg -> corrupt "label decoding failed: %s" msg

let load_file ?(io = Repro_io.Io.real) ?scheme path =
  load ?scheme (io.Repro_io.Io.read_file path)
