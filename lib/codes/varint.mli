(** UTF-8-style variable-length integer codec.

    The Vector labelling scheme [Xu, Bao & Ling, DEXA 2007] stores each
    vector component with UTF-8 encoding so that component boundaries are
    self-delimiting and no length field is needed. UTF-8 spends one to four
    bytes per value; a four-byte sequence carries 21 payload bits, so the
    largest encodable value is [2^21 - 1] — the ceiling the survey questions
    in its §4 discussion of the Vector scheme. *)

exception Overflow of int
(** Raised when asked to encode a value beyond {!max_encodable}. *)

val max_encodable : int
(** [2^21 - 1], the largest value a four-byte UTF-8 sequence can carry. *)

val byte_length : int -> int
(** Bytes needed for a value: 1, 2, 3 or 4. Raises {!Overflow} beyond
    {!max_encodable} and [Invalid_argument] on negatives. *)

val bits : int -> int
(** [8 * byte_length v]. *)

val encode : int -> string
(** UTF-8 byte sequence for the value. Raises like {!byte_length}. *)

val add : Buffer.t -> int -> unit
(** [add buf v] appends {!encode}[ v] to [buf] without allocating the
    string. Raises like {!byte_length}, before writing anything. *)

val decode : string -> int -> int * int
(** [decode s pos] reads one value at byte offset [pos] and returns
    [(value, next_pos)]. Raises [Invalid_argument] on malformed input. *)

val nth_byte : int -> len:int -> int -> int
(** [nth_byte v ~len i] is byte [i] of {!encode}[ v], where [len] is
    [byte_length v] — for writers that emit the bytes one at a time
    instead of allocating the string. *)

val length_of_lead : int -> int
(** Length of the sequence a leading byte opens: 1, 2, 3 or 4. Raises
    [Invalid_argument] on a byte no sequence starts with. *)

val lead_payload : int -> len:int -> int
(** The payload bits of a leading byte, for a sequence of [len] bytes. *)

val continuation_payload : int -> int
(** The six payload bits of a continuation byte. Raises
    [Invalid_argument] on a byte that is not one. *)

val encode_list : int list -> string
val decode_all : string -> int list
