(* The wire protocol: payload codecs for every request and response the
   server speaks. Framing (varint length + CRC-32 around each payload)
   lives in {!Wire}; this module is pure string <-> value and never does
   IO, so the codec is testable byte-by-byte without a socket. *)

type label = Repro_journal.Oplog.label = { l_bytes : string; l_bits : int }

type pred =
  | Order of label * label
  | Ancestor of label * label
  | Parent of label * label
  | Sibling of label * label
  | Level of label

type req =
  | Ping
  | Open of { o_doc : string; o_scheme : string; o_nodes : int; o_seed : int }
  | Update of {
      u_doc : string;
      u_client : string;  (** "" = anonymous: no dedup, at-most-once only *)
      u_seq : int;  (** per-client request sequence; retries resend the same seq *)
      u_ops : Repro_journal.Oplog.op list;
    }
  | Query of { q_doc : string; q_pred : pred }
  | Stats of string
  | Labels of { lb_doc : string; lb_limit : int }
  | Checkpoint of string
  | Metrics
  | Subscribe of { sb_doc : string; sb_replica : string }
  | Replicate of {
      rp_doc : string;
      rp_replica : string;
      rp_epoch : int;
      rp_snap : bool;
      rp_offset : int;
      rp_limit : int;
    }
  | Ack of { ak_doc : string; ak_replica : string; ak_epoch : int; ak_offset : int }
  | Promote of string
  | Docs
  | Xpath of { xq_doc : string; xq_src : string; xq_limit : int }
  | Twig of { tq_doc : string; tq_src : string; tq_limit : int }
  | Migrate of {
      mg_doc : string;
      mg_client : string;  (** same identity/dedup contract as [Update] *)
      mg_seq : int;
      mg_specs : Repro_migrate.Migrate.spec list;
    }

type err =
  | Bad_frame
  | Unknown_doc
  | Unknown_scheme
  | Unknown_label
  | Bad_request
  | Shutting_down
  | Internal
  | Not_primary
  | Stale_pos
  | Overloaded

type answer = Bool of bool | Int of int | Unsupported

type stats_reply = {
  st_nodes : int;
  st_total_bits : int;
  st_max_bits : int;
  st_inserts : int;
  st_deletes : int;
  st_relabelled : int;
  st_overflow : int;
  st_epoch : int;
  st_records : int;
  st_log_bytes : int;
  st_offset : int;  (** durable log offset: the shippable prefix *)
  st_lag : (string * int) list;  (** per-replica lag in unacknowledged durable bytes *)
}

type metric = {
  m_key : string;
  m_count : int;
  m_errors : int;
  m_total_ns : int;
  m_max_ns : int;
}

type qrow = {
  qr_kind : Repro_xml.Tree.kind;
  qr_level : int;
  qr_name : string;
  qr_value : string option;
}

type query_reply = { qy_total : int; qy_rev : int; qy_rows : qrow list }

type resp =
  | Pong of string
  | Opened of { ok_scheme : string; ok_root : label; ok_nodes : int; ok_fresh : bool }
  | Updated of {
      up_applied : int;
      up_fresh : label list;
      up_relabelled : bool;
      up_dedup : bool;  (** true: cached reply for a retried (client, seq) *)
    }
  | Answer of answer
  | Stats_r of stats_reply
  | Labels_r of (label * Repro_xml.Tree.kind * string) list
  | Checkpointed of int
  | Metrics_r of metric list
  | Sub_ok of {
      su_scheme : string;
      su_epoch : int;
      su_log_start : int;
      su_offset : int;  (** durable log offset at subscription time *)
      su_snap_bytes : int;  (** size of the epoch snapshot to fetch *)
    }
  | Shipped of { sh_epoch : int; sh_offset : int; sh_total : int; sh_data : string }
  | Acked of { ac_lag : int }
  | Promoted of { pr_epoch : int; pr_offset : int }
  | Docs_r of (string * string * bool) list  (** doc, scheme, is-primary *)
  | Query_r of query_reply
  | Query_error of { qe_parse : bool; qe_pos : int; qe_msg : string }
  | Err of err * string

let magic = "XSRV1"

let err_name = function
  | Bad_frame -> "bad-frame"
  | Unknown_doc -> "unknown-doc"
  | Unknown_scheme -> "unknown-scheme"
  | Unknown_label -> "unknown-label"
  | Bad_request -> "bad-request"
  | Shutting_down -> "shutting-down"
  | Internal -> "internal"
  | Not_primary -> "not-primary"
  | Stale_pos -> "stale-pos"
  | Overloaded -> "overloaded"

let err_code = function
  | Bad_frame -> 0
  | Unknown_doc -> 1
  | Unknown_scheme -> 2
  | Unknown_label -> 3
  | Bad_request -> 4
  | Shutting_down -> 5
  | Internal -> 6
  | Not_primary -> 7
  | Stale_pos -> 8
  | Overloaded -> 9

let err_of_code = function
  | 0 -> Some Bad_frame
  | 1 -> Some Unknown_doc
  | 2 -> Some Unknown_scheme
  | 3 -> Some Unknown_label
  | 4 -> Some Bad_request
  | 5 -> Some Shutting_down
  | 6 -> Some Internal
  | 7 -> Some Not_primary
  | 8 -> Some Stale_pos
  | 9 -> Some Overloaded
  | _ -> None

let req_class = function
  | Ping -> "ping"
  | Open _ -> "open"
  | Update _ -> "update"
  | Query _ -> "query"
  | Stats _ -> "stats"
  | Labels _ -> "labels"
  | Checkpoint _ -> "checkpoint"
  | Metrics -> "metrics"
  | Subscribe _ -> "subscribe"
  | Replicate _ -> "replicate"
  | Ack _ -> "ack"
  | Promote _ -> "promote"
  | Docs -> "docs"
  | Xpath _ -> "xpath"
  | Twig _ -> "twig"
  | Migrate _ -> "migrate"

(* ---- encoding ------------------------------------------------------

   Same conventions as {!Oplog}: varints for small counts and string
   lengths. Wide counters (bit totals, nanoseconds) use fixed u64 LE —
   the varint caps out at 2^21-1, which a busy session's statistics blow
   through. *)

let add_varint = Repro_codes.Varint.add
let add_str = Repro_journal.Oplog.add_str
let add_label = Repro_journal.Oplog.add_label

let add_u64 = Repro_journal.Oplog.add_u64

let add_bool buf b = Buffer.add_char buf (if b then '\001' else '\000')

let encode_req req =
  let buf = Buffer.create 64 in
  (match req with
  | Ping -> Buffer.add_char buf '\000'
  | Open { o_doc; o_scheme; o_nodes; o_seed } ->
    Buffer.add_char buf '\001';
    add_str buf o_doc;
    add_str buf o_scheme;
    add_varint buf o_nodes;
    add_varint buf o_seed
  | Update { u_doc; u_client; u_seq; u_ops } ->
    Buffer.add_char buf '\002';
    add_str buf u_doc;
    add_str buf u_client;
    add_u64 buf u_seq;
    add_varint buf (List.length u_ops);
    (* each op rides as a whole Oplog record — frame, CRC and all — so
       the update payload is bit-compatible with the journal that will
       persist it *)
    List.iter (fun op -> Buffer.add_string buf (Repro_journal.Oplog.encode_record op)) u_ops
  | Query { q_doc; q_pred } ->
    Buffer.add_char buf '\003';
    add_str buf q_doc;
    (match q_pred with
    | Order (a, b) ->
      Buffer.add_char buf '\000';
      add_label buf a;
      add_label buf b
    | Ancestor (a, b) ->
      Buffer.add_char buf '\001';
      add_label buf a;
      add_label buf b
    | Parent (a, b) ->
      Buffer.add_char buf '\002';
      add_label buf a;
      add_label buf b
    | Sibling (a, b) ->
      Buffer.add_char buf '\003';
      add_label buf a;
      add_label buf b
    | Level a ->
      Buffer.add_char buf '\004';
      add_label buf a)
  | Stats doc ->
    Buffer.add_char buf '\004';
    add_str buf doc
  | Labels { lb_doc; lb_limit } ->
    Buffer.add_char buf '\005';
    add_str buf lb_doc;
    add_varint buf lb_limit
  | Checkpoint doc ->
    Buffer.add_char buf '\006';
    add_str buf doc
  | Metrics -> Buffer.add_char buf '\007'
  | Subscribe { sb_doc; sb_replica } ->
    Buffer.add_char buf '\008';
    add_str buf sb_doc;
    add_str buf sb_replica
  | Replicate { rp_doc; rp_replica; rp_epoch; rp_snap; rp_offset; rp_limit } ->
    Buffer.add_char buf '\009';
    add_str buf rp_doc;
    add_str buf rp_replica;
    add_u64 buf rp_epoch;
    add_bool buf rp_snap;
    add_u64 buf rp_offset;
    add_varint buf rp_limit
  | Ack { ak_doc; ak_replica; ak_epoch; ak_offset } ->
    Buffer.add_char buf '\010';
    add_str buf ak_doc;
    add_str buf ak_replica;
    add_u64 buf ak_epoch;
    add_u64 buf ak_offset
  | Promote doc ->
    Buffer.add_char buf '\011';
    add_str buf doc
  | Docs -> Buffer.add_char buf '\012'
  | Xpath { xq_doc; xq_src; xq_limit } ->
    Buffer.add_char buf '\013';
    add_str buf xq_doc;
    add_str buf xq_src;
    add_varint buf xq_limit
  | Twig { tq_doc; tq_src; tq_limit } ->
    Buffer.add_char buf '\014';
    add_str buf tq_doc;
    add_str buf tq_src;
    add_varint buf tq_limit
  | Migrate { mg_doc; mg_client; mg_seq; mg_specs } ->
    Buffer.add_char buf '\015';
    add_str buf mg_doc;
    add_str buf mg_client;
    add_u64 buf mg_seq;
    add_varint buf (List.length mg_specs);
    List.iter
      (fun spec ->
        match spec with
        | Repro_migrate.Migrate.S_wrap (ls, name) ->
          Buffer.add_char buf '\000';
          add_varint buf (List.length ls);
          List.iter (add_label buf) ls;
          add_str buf name
        | S_unwrap l ->
          Buffer.add_char buf '\001';
          add_label buf l
        | S_hoist (l, k) ->
          Buffer.add_char buf '\002';
          add_label buf l;
          add_varint buf k
        | S_split (l, at) ->
          Buffer.add_char buf '\003';
          add_label buf l;
          add_varint buf at
        | S_merge l ->
          Buffer.add_char buf '\004';
          add_label buf l
        | S_rename_all (l, from_, to_) ->
          Buffer.add_char buf '\005';
          add_label buf l;
          add_str buf from_;
          add_str buf to_)
      mg_specs);
  Buffer.contents buf

let encode_resp resp =
  let buf = Buffer.create 64 in
  (match resp with
  | Pong m ->
    Buffer.add_char buf '\000';
    add_str buf m
  | Opened { ok_scheme; ok_root; ok_nodes; ok_fresh } ->
    Buffer.add_char buf '\001';
    add_str buf ok_scheme;
    add_label buf ok_root;
    add_u64 buf ok_nodes;
    add_bool buf ok_fresh
  | Updated { up_applied; up_fresh; up_relabelled; up_dedup } ->
    Buffer.add_char buf '\002';
    add_varint buf up_applied;
    add_varint buf (List.length up_fresh);
    List.iter (add_label buf) up_fresh;
    add_bool buf up_relabelled;
    add_bool buf up_dedup
  | Answer a ->
    Buffer.add_char buf '\003';
    (match a with
    | Bool b ->
      Buffer.add_char buf '\000';
      add_bool buf b
    | Int v ->
      Buffer.add_char buf '\001';
      add_bool buf (v < 0);
      add_u64 buf (abs v)
    | Unsupported -> Buffer.add_char buf '\002')
  | Stats_r st ->
    Buffer.add_char buf '\004';
    add_u64 buf st.st_nodes;
    add_u64 buf st.st_total_bits;
    add_u64 buf st.st_max_bits;
    add_u64 buf st.st_inserts;
    add_u64 buf st.st_deletes;
    add_u64 buf st.st_relabelled;
    add_u64 buf st.st_overflow;
    add_u64 buf st.st_epoch;
    add_u64 buf st.st_records;
    add_u64 buf st.st_log_bytes;
    add_u64 buf st.st_offset;
    add_varint buf (List.length st.st_lag);
    List.iter
      (fun (replica, lag) ->
        add_str buf replica;
        add_u64 buf lag)
      st.st_lag
  | Labels_r entries ->
    Buffer.add_char buf '\005';
    add_varint buf (List.length entries);
    List.iter
      (fun (l, kind, name) ->
        add_label buf l;
        Buffer.add_char buf
          (match kind with Repro_xml.Tree.Element -> '\000' | Repro_xml.Tree.Attribute -> '\001');
        add_str buf name)
      entries
  | Checkpointed epoch ->
    Buffer.add_char buf '\006';
    add_u64 buf epoch
  | Metrics_r ms ->
    Buffer.add_char buf '\007';
    add_varint buf (List.length ms);
    List.iter
      (fun m ->
        add_str buf m.m_key;
        add_u64 buf m.m_count;
        add_u64 buf m.m_errors;
        add_u64 buf m.m_total_ns;
        add_u64 buf m.m_max_ns)
      ms
  | Sub_ok { su_scheme; su_epoch; su_log_start; su_offset; su_snap_bytes } ->
    Buffer.add_char buf '\008';
    add_str buf su_scheme;
    add_u64 buf su_epoch;
    add_varint buf su_log_start;
    add_u64 buf su_offset;
    add_u64 buf su_snap_bytes
  | Shipped { sh_epoch; sh_offset; sh_total; sh_data } ->
    Buffer.add_char buf '\009';
    add_u64 buf sh_epoch;
    add_u64 buf sh_offset;
    add_u64 buf sh_total;
    add_str buf sh_data
  | Acked { ac_lag } ->
    Buffer.add_char buf '\010';
    add_u64 buf ac_lag
  | Promoted { pr_epoch; pr_offset } ->
    Buffer.add_char buf '\011';
    add_u64 buf pr_epoch;
    add_u64 buf pr_offset
  | Docs_r docs ->
    Buffer.add_char buf '\012';
    add_varint buf (List.length docs);
    List.iter
      (fun (doc, scheme, primary) ->
        add_str buf doc;
        add_str buf scheme;
        add_bool buf primary)
      docs
  | Query_r { qy_total; qy_rev; qy_rows } ->
    Buffer.add_char buf '\013';
    add_u64 buf qy_total;
    add_u64 buf qy_rev;
    add_varint buf (List.length qy_rows);
    List.iter
      (fun q ->
        Buffer.add_char buf
          (match q.qr_kind with Repro_xml.Tree.Element -> '\000' | Repro_xml.Tree.Attribute -> '\001');
        add_varint buf q.qr_level;
        add_str buf q.qr_name;
        match q.qr_value with
        | None -> add_bool buf false
        | Some v ->
          add_bool buf true;
          add_str buf v)
      qy_rows
  | Query_error { qe_parse; qe_pos; qe_msg } ->
    Buffer.add_char buf '\014';
    add_bool buf qe_parse;
    add_varint buf qe_pos;
    add_str buf qe_msg
  | Err (e, msg) ->
    Buffer.add_char buf '\255';
    Buffer.add_char buf (Char.chr (err_code e));
    add_str buf msg);
  Buffer.contents buf

(* ---- decoding ------------------------------------------------------

   {!Oplog.Reader}'s cursor: its [Bad] exception carries the
   reason to the single catch site, so a truncated or bit-flipped payload
   always comes back as [Error reason] — never as an exception escaping
   into a connection handler. *)

open Repro_journal.Oplog.Reader

let rbool c =
  match rbyte c with 0 -> false | 1 -> true | b -> bad "bad bool byte %d" b

let rkind c =
  match rbyte c with
  | 0 -> Repro_xml.Tree.Element
  | 1 -> Repro_xml.Tree.Attribute
  | k -> bad "bad node kind %d" k

let rlist c f =
  let n = rvarint c in
  List.init n (fun _ -> f c)

let finished c = if c.pos <> c.limit then bad "%d trailing bytes" (c.limit - c.pos)

let decoding data f =
  let c = { data; limit = String.length data; pos = 0 } in
  match
    let v = f c in
    finished c;
    v
  with
  | v -> Ok v
  | exception Bad reason -> Error reason
  | exception Invalid_argument reason -> Error reason

let decode_req data =
  decoding data (fun c ->
      match rbyte c with
      | 0 -> Ping
      | 1 ->
        let o_doc = rstr c in
        let o_scheme = rstr c in
        let o_nodes = rvarint c in
        let o_seed = rvarint c in
        Open { o_doc; o_scheme; o_nodes; o_seed }
      | 2 ->
        let u_doc = rstr c in
        let u_client = rstr c in
        let u_seq = ru64 c in
        let n = rvarint c in
        let ops = ref [] in
        for _ = 1 to n do
          match Repro_journal.Oplog.read_record c.data c.pos with
          | Repro_journal.Oplog.Record (op, next) ->
            if next > c.limit then bad "op record past payload end";
            c.pos <- next;
            ops := op :: !ops
          | Repro_journal.Oplog.End_of_log -> bad "truncated op record"
          | Repro_journal.Oplog.Torn reason -> bad "op record: %s" reason
        done;
        Update { u_doc; u_client; u_seq; u_ops = List.rev !ops }
      | 3 ->
        let q_doc = rstr c in
        let q_pred =
          match rbyte c with
          | 0 ->
            let a = rlabel c in
            Order (a, rlabel c)
          | 1 ->
            let a = rlabel c in
            Ancestor (a, rlabel c)
          | 2 ->
            let a = rlabel c in
            Parent (a, rlabel c)
          | 3 ->
            let a = rlabel c in
            Sibling (a, rlabel c)
          | 4 -> Level (rlabel c)
          | p -> bad "bad predicate tag %d" p
        in
        Query { q_doc; q_pred }
      | 4 -> Stats (rstr c)
      | 5 ->
        let lb_doc = rstr c in
        Labels { lb_doc; lb_limit = rvarint c }
      | 6 -> Checkpoint (rstr c)
      | 7 -> Metrics
      | 8 ->
        let sb_doc = rstr c in
        let sb_replica = rstr c in
        Subscribe { sb_doc; sb_replica }
      | 9 ->
        let rp_doc = rstr c in
        let rp_replica = rstr c in
        let rp_epoch = ru64 c in
        let rp_snap = rbool c in
        let rp_offset = ru64 c in
        let rp_limit = rvarint c in
        Replicate { rp_doc; rp_replica; rp_epoch; rp_snap; rp_offset; rp_limit }
      | 10 ->
        let ak_doc = rstr c in
        let ak_replica = rstr c in
        let ak_epoch = ru64 c in
        let ak_offset = ru64 c in
        Ack { ak_doc; ak_replica; ak_epoch; ak_offset }
      | 11 -> Promote (rstr c)
      | 12 -> Docs
      | 13 ->
        let xq_doc = rstr c in
        let xq_src = rstr c in
        Xpath { xq_doc; xq_src; xq_limit = rvarint c }
      | 14 ->
        let tq_doc = rstr c in
        let tq_src = rstr c in
        Twig { tq_doc; tq_src; tq_limit = rvarint c }
      | 15 ->
        let mg_doc = rstr c in
        let mg_client = rstr c in
        let mg_seq = ru64 c in
        let mg_specs =
          rlist c (fun c ->
              match rbyte c with
              | 0 ->
                let ls = rlist c rlabel in
                Repro_migrate.Migrate.S_wrap (ls, rstr c)
              | 1 -> S_unwrap (rlabel c)
              | 2 ->
                let l = rlabel c in
                S_hoist (l, rvarint c)
              | 3 ->
                let l = rlabel c in
                S_split (l, rvarint c)
              | 4 -> S_merge (rlabel c)
              | 5 ->
                let l = rlabel c in
                let from_ = rstr c in
                S_rename_all (l, from_, rstr c)
              | s -> bad "bad migrate spec tag %d" s)
        in
        Migrate { mg_doc; mg_client; mg_seq; mg_specs }
      | t -> bad "unknown request tag %d" t)

let decode_resp data =
  decoding data (fun c ->
      match rbyte c with
      | 0 -> Pong (rstr c)
      | 1 ->
        let ok_scheme = rstr c in
        let ok_root = rlabel c in
        let ok_nodes = ru64 c in
        let ok_fresh = rbool c in
        Opened { ok_scheme; ok_root; ok_nodes; ok_fresh }
      | 2 ->
        let up_applied = rvarint c in
        let up_fresh = rlist c rlabel in
        let up_relabelled = rbool c in
        let up_dedup = rbool c in
        Updated { up_applied; up_fresh; up_relabelled; up_dedup }
      | 3 ->
        Answer
          (match rbyte c with
          | 0 -> Bool (rbool c)
          | 1 ->
            let neg = rbool c in
            let v = ru64 c in
            Int (if neg then -v else v)
          | 2 -> Unsupported
          | a -> bad "bad answer tag %d" a)
      | 4 ->
        let st_nodes = ru64 c in
        let st_total_bits = ru64 c in
        let st_max_bits = ru64 c in
        let st_inserts = ru64 c in
        let st_deletes = ru64 c in
        let st_relabelled = ru64 c in
        let st_overflow = ru64 c in
        let st_epoch = ru64 c in
        let st_records = ru64 c in
        let st_log_bytes = ru64 c in
        let st_offset = ru64 c in
        let st_lag =
          rlist c (fun c ->
              let replica = rstr c in
              let lag = ru64 c in
              (replica, lag))
        in
        Stats_r
          {
            st_nodes;
            st_total_bits;
            st_max_bits;
            st_inserts;
            st_deletes;
            st_relabelled;
            st_overflow;
            st_epoch;
            st_records;
            st_log_bytes;
            st_offset;
            st_lag;
          }
      | 5 ->
        Labels_r
          (rlist c (fun c ->
               let l = rlabel c in
               let kind = rkind c in
               let name = rstr c in
               (l, kind, name)))
      | 6 -> Checkpointed (ru64 c)
      | 7 ->
        Metrics_r
          (rlist c (fun c ->
               let m_key = rstr c in
               let m_count = ru64 c in
               let m_errors = ru64 c in
               let m_total_ns = ru64 c in
               let m_max_ns = ru64 c in
               { m_key; m_count; m_errors; m_total_ns; m_max_ns }))
      | 8 ->
        let su_scheme = rstr c in
        let su_epoch = ru64 c in
        let su_log_start = rvarint c in
        let su_offset = ru64 c in
        let su_snap_bytes = ru64 c in
        Sub_ok { su_scheme; su_epoch; su_log_start; su_offset; su_snap_bytes }
      | 9 ->
        let sh_epoch = ru64 c in
        let sh_offset = ru64 c in
        let sh_total = ru64 c in
        let sh_data = rstr c in
        Shipped { sh_epoch; sh_offset; sh_total; sh_data }
      | 10 -> Acked { ac_lag = ru64 c }
      | 11 ->
        let pr_epoch = ru64 c in
        let pr_offset = ru64 c in
        Promoted { pr_epoch; pr_offset }
      | 12 ->
        Docs_r
          (rlist c (fun c ->
               let doc = rstr c in
               let scheme = rstr c in
               let primary = rbool c in
               (doc, scheme, primary)))
      | 13 ->
        let qy_total = ru64 c in
        let qy_rev = ru64 c in
        let qy_rows =
          rlist c (fun c ->
              let qr_kind = rkind c in
              let qr_level = rvarint c in
              let qr_name = rstr c in
              let qr_value = if rbool c then Some (rstr c) else None in
              { qr_kind; qr_level; qr_name; qr_value })
        in
        Query_r { qy_total; qy_rev; qy_rows }
      | 14 ->
        let qe_parse = rbool c in
        let qe_pos = rvarint c in
        let qe_msg = rstr c in
        Query_error { qe_parse; qe_pos; qe_msg }
      | 255 ->
        let code = rbyte c in
        let msg = rstr c in
        (match err_of_code code with
        | Some e -> Err (e, msg)
        | None -> bad "unknown error code %d" code)
      | t -> bad "unknown response tag %d" t)
