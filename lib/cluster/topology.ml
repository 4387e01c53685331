open Repro_io

exception Bad_topology of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad_topology s)) fmt

let magic = "XCL1"

type node = { n_host : string; n_port : int }
type shard = { s_primary : node; s_replicas : node list }
type t = { version : int; shards : shard array }

let node_to_string n = Printf.sprintf "%s:%d" n.n_host n.n_port

let node_of_string s =
  match String.rindex_opt s ':' with
  | None -> bad "%S: expected host:port" s
  | Some i -> (
    let host = String.sub s 0 i in
    let port = String.sub s (i + 1) (String.length s - i - 1) in
    if host = "" then bad "%S: empty host" s;
    match int_of_string_opt port with
    | Some p when p > 0 && p < 65536 -> { n_host = host; n_port = p }
    | Some _ | None -> bad "%S: bad port" s)

let n_shards t = Array.length t.shards

(* Placement is the same CRC-32 the wire frames and the journal already
   trust, masked to non-negative: every client, on any machine,
   maps a document name to the same shard without coordination. *)
let shard_of t doc =
  if Array.length t.shards = 0 then bad "topology has no shards";
  Int32.to_int (Repro_codes.Crc32.string doc) land 0x3FFFFFFF mod Array.length t.shards

let render t =
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "%s %d\n" magic t.version);
  Array.iter
    (fun s ->
      Buffer.add_string b "shard ";
      Buffer.add_string b
        (String.concat " " (List.map node_to_string (s.s_primary :: s.s_replicas)));
      Buffer.add_char b '\n')
    t.shards;
  Buffer.contents b

let parse data =
  let lines =
    String.split_on_char '\n' data
    |> List.map String.trim
    |> List.filter (fun l -> l <> "")
  in
  match lines with
  | [] -> bad "empty topology"
  | header :: rest ->
    let version =
      try Scanf.sscanf header "XCL1 %d%!" (fun v -> v)
      with Scanf.Scan_failure _ | Failure _ | End_of_file ->
        bad "bad topology header %S" header
    in
    if version < 1 then bad "bad topology version %d" version;
    let shard_of_line line =
      match String.split_on_char ' ' line |> List.filter (fun w -> w <> "") with
      | "shard" :: primary :: replicas ->
        {
          s_primary = node_of_string primary;
          s_replicas = List.map node_of_string replicas;
        }
      | _ -> bad "bad shard line %S" line
    in
    let shards = Array.of_list (List.map shard_of_line rest) in
    if Array.length shards = 0 then bad "topology has no shards";
    { version; shards }

let save ?(io = Io.real) path t = Io.write_atomic io path (render t)

let load ?(io = Io.real) path =
  let data =
    try io.Io.read_file path
    with Io.Io_error { reason; _ } -> bad "topology %s unreadable: %s" path reason
  in
  parse data

let resolver path =
  let last = ref (load path) in
  fun doc ->
    (match load path with topo -> last := topo | exception Bad_topology _ -> ());
    let n = !last.shards.(shard_of !last doc).s_primary in
    (n.n_host, n.n_port)
