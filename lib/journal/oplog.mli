(** The journal's binary record format.

    One record is one update operation from the §3.1 update classes — the
    same operations {!Repro_encoding.Update_lang} models — addressed not by
    a transient node id or an XPath, but by the target node's own encoded
    label in the bound scheme's binary layout. Labels are the only node
    identity that survives a restart (the §5.2 persistence argument), so
    they are the only identity a durable log may rely on.

    Framing, per record:
    {v
    length   varint  — byte count of the payload below
    payload  length bytes (opcode, label, operands)
    crc      u32 LE — CRC-32 of the payload
    v}

    The varint length makes records self-delimiting; the per-record CRC
    makes a torn or bit-flipped tail detectable without trusting anything
    that follows it. Reading stops cleanly at the first frame that is
    incomplete or fails its checksum — exactly the crash-recovery contract
    {!Journal.recover} needs.

    Payload layout (all varints {!Repro_codes.Varint}):
    {v
    opcode   u8 — 0..6 for the seven operations, 7 for the dedup mark
    label    varint bit count, varint byte count, bytes
    insert   fragment: u8 kind, varint name length + name,
             u8 value flag (+ varint length + bytes),
             varint child count, children recursively
    replace  u8 value flag (+ varint length + bytes)
    rename   varint name length + name
    v} *)

type label = { l_bytes : string; l_bits : int }
(** A label exactly as {!Core.Scheme.S.encode_label} produced it. *)

type op =
  | Insert_first of label * Repro_xml.Tree.frag  (** label addresses the parent *)
  | Insert_last of label * Repro_xml.Tree.frag  (** label addresses the parent *)
  | Insert_before of label * Repro_xml.Tree.frag  (** label addresses the anchor sibling *)
  | Insert_after of label * Repro_xml.Tree.frag  (** label addresses the anchor sibling *)
  | Delete of label
  | Replace_value of label * string option
  | Rename of label * string
  | Mark of { mk_client : string; mk_seq : int; mk_applied : int; mk_err : (int * string) option }
      (** Opcode 7: a dedup watermark, not a tree mutation. Journalled by the
          server right after a client-identified update batch so that the
          exactly-once window survives recovery (and ships to replicas with
          the ops it covers). [mk_applied] is how many ops of the batch
          applied; [mk_err] carries the wire error (code byte, message) when
          the batch stopped early. Replay treats it as a no-op; clients may
          not send it inside an update batch. *)

val encode_record : op -> string
(** The full frame: varint length, payload, CRC-32. *)

val add_str : Buffer.t -> string -> unit
(** A varint byte count, then the bytes: how every string field of a
    record (and of a {!Repro_server.Protocol} frame) is written. *)

val add_label : Buffer.t -> label -> unit
(** A varint bit count, then the label bytes as by {!add_str}. *)

val add_u64 : Buffer.t -> int -> unit
(** Fixed 8-byte little-endian, for counters past the varint's 21-bit
    ceiling (sequence numbers, offsets, byte totals). *)

(** The cursor every record field is decoded through, shared with
    {!Repro_server.Protocol}'s payloads. A read past [limit] or a
    malformed varint raises {!Bad} with the reason; each user turns it
    into an error value at one catch site, so corrupt bytes never escape
    as an exception. *)
module Reader : sig
  exception Bad of string

  val bad : ('a, unit, string, 'b) format4 -> 'a
  (** [bad fmt ...] raises {!Bad} with the formatted reason. *)

  type cursor = { data : string; limit : int; mutable pos : int }

  val rvarint : cursor -> int
  val rbyte : cursor -> int

  val rstr : cursor -> string
  (** As written by {!add_str}. *)

  val rlabel : cursor -> label
  (** As written by {!add_label}. *)

  val ru64 : cursor -> int
  (** As written by {!add_u64}. *)
end

type read_result =
  | Record of op * int  (** decoded record and the offset just past its frame *)
  | End_of_log  (** [pos] sits exactly at the end of the data *)
  | Torn of string  (** incomplete or corrupt frame; the reason names what broke *)

val read_record : string -> int -> read_result
(** [read_record data pos] decodes one frame. Never raises: every framing,
    checksum or payload-decoding failure is a [Torn]. *)

val read_all : string -> pos:int -> op list * int * string option
(** [read_all data ~pos] is every whole valid record from [pos] on, the
    offset just past the last one (the log's valid prefix length), and the
    torn-tail reason when the data does not end cleanly. *)

val label_to_string : label -> string
(** [@<hex bytes>/<bit count>b]. *)

val op_to_string : op -> string
(** Human-readable rendering for [xmlrepro journal inspect]: the opcode,
    the target label in hex, and the operand. *)
