open Repro_io
module P = Protocol

type counters = {
  c_retries : int;
  c_reconnects : int;
  c_dedup_hits : int;
  c_overloaded : int;
}

type conn = { fd : Unix.file_descr; reader : Wire.reader }

type t = {
  resolve : unit -> string * int;
  sock : Io.sock;
  timeout : float;
  client : string;
  retries : int;
  backoff : float;
  backoff_cap : float;
  rng : Random.State.t;
  mutable conn : conn option;
  mutable closed : bool;
  mutable seq : int;
  mutable n_retries : int;
  mutable n_reconnects : int;
  mutable n_dedup_hits : int;
  mutable n_overloaded : int;
}

let dial t =
  let host, port = t.resolve () in
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  match
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.timeout;
    Unix.setsockopt_float fd Unix.SO_SNDTIMEO t.timeout
  with
  | () -> { fd; reader = Wire.reader t.sock fd }
  | exception Unix.Unix_error (e, _, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise (Io.Io_error { op = "connect"; path = host; reason = Unix.error_message e })

let connect ?(sock = Io.real_sock) ?(timeout = 30.) ?(client = "") ?(retries = 0)
    ?(backoff = 0.05) ?(backoff_cap = 1.0) ?resolve ~host ~port () =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let t =
    {
      resolve = Option.value resolve ~default:(fun () -> (host, port));
      sock;
      timeout;
      client;
      retries = max 0 retries;
      backoff = max 0. backoff;
      backoff_cap = max 0. backoff_cap;
      rng = Random.State.make [| Hashtbl.hash (host, port, client); 0x5eed |];
      conn = None;
      closed = false;
      seq = 0;
      n_retries = 0;
      n_reconnects = 0;
      n_dedup_hits = 0;
      n_overloaded = 0;
    }
  in
  t.conn <- Some (dial t);
  t

let close t =
  if not t.closed then begin
    t.closed <- true;
    (match t.conn with
    | Some c -> ( try t.sock.Io.s_close c.fd with Io.Io_error _ -> ())
    | None -> ());
    t.conn <- None
  end

let counters t =
  {
    c_retries = t.n_retries;
    c_reconnects = t.n_reconnects;
    c_dedup_hits = t.n_dedup_hits;
    c_overloaded = t.n_overloaded;
  }

(* Capped exponential backoff with full jitter: attempt n waits
   uniform(0.5, 1.5) * min(cap, base * 2^n), so a thundering herd of
   retrying clients decorrelates instead of re-arriving in lockstep. *)
let backoff_delay ~base ~cap rng n =
  min cap (base *. (2. ** float_of_int n)) *. (0.5 +. Random.State.float rng 1.0)

let sleep_backoff t n =
  let d = backoff_delay ~base:t.backoff ~cap:t.backoff_cap t.rng n in
  if d > 0. then Thread.delay d

(* A fresh mutation from an identified client gets the next sequence
   number; everything else travels as built. Retries inside [request]
   reuse the stamped value, which is the whole point: the server sees the
   same (client, seq) and answers from its dedup window. *)
let stamp t req =
  match req with
  | P.Update { u_doc; u_client = ""; u_seq = _; u_ops } when t.client <> "" ->
    t.seq <- t.seq + 1;
    P.Update { u_doc; u_client = t.client; u_seq = t.seq; u_ops }
  | P.Migrate { mg_doc; mg_client = ""; mg_seq = _; mg_specs } when t.client <> "" ->
    (* migration batches draw from the same sequence space as updates, so
       one dedup watermark per client covers both *)
    t.seq <- t.seq + 1;
    P.Migrate { mg_doc; mg_client = t.client; mg_seq = t.seq; mg_specs }
  | _ -> req

let request t req =
  if t.closed then Error "connection closed"
  else begin
    let req = stamp t req in
    (* An anonymous mutation is not idempotent: once the request bytes may
       have reached the server, resending risks double-application, so
       only connect-phase failures are retried for it. *)
    let anon_mutation =
      match req with
      | P.Update { u_client = ""; _ } | P.Migrate { mg_client = ""; _ } -> true
      | _ -> false
    in
    let rec go n =
      let again () =
        t.n_retries <- t.n_retries + 1;
        sleep_backoff t n;
        go (n + 1)
      in
      let retry ~sent reason =
        if n >= t.retries || (sent && anon_mutation) then Error reason else again ()
      in
      let conn =
        match t.conn with
        | Some c -> Ok c
        | None -> (
          match dial t with
          | c ->
            t.n_reconnects <- t.n_reconnects + 1;
            t.conn <- Some c;
            Ok c
          | exception Io.Io_error { reason; _ } -> Error reason)
      in
      match conn with
      | Error reason -> retry ~sent:false ("connect: " ^ reason)
      | Ok c -> (
        let hang_up () =
          t.conn <- None;
          try t.sock.Io.s_close c.fd with Io.Io_error _ -> ()
        in
        let fail reason =
          hang_up ();
          retry ~sent:true reason
        in
        match Wire.send_frame t.sock c.fd (P.encode_req req) with
        | exception Io.Io_error { reason; _ } -> fail ("send: " ^ reason)
        | () -> (
          match Wire.recv_frame c.reader with
          | Wire.Frame payload -> (
            match P.decode_resp payload with
            | Ok (P.Err (P.Overloaded, _) as resp) ->
              (* the server applied nothing: always safe to back off and
                 retry, even for an anonymous mutation *)
              t.n_overloaded <- t.n_overloaded + 1;
              if n >= t.retries then Ok resp else again ()
            | Ok (P.Err ((P.Not_primary | P.Shutting_down) as code, _))
              when n < t.retries && not (code = P.Shutting_down && anon_mutation) ->
              (* the cluster moved: resend as stamped to wherever [resolve]
                 now points (the .mli says which resends are safe) *)
              hang_up ();
              again ()
            | Ok resp ->
              (match resp with
              | P.Updated { up_dedup = true; _ } ->
                t.n_dedup_hits <- t.n_dedup_hits + 1
              | _ -> ());
              Ok resp
            | Error reason -> fail ("bad response payload: " ^ reason))
          | Wire.Eof -> fail "server closed the connection"
          | Wire.Bad reason -> fail ("bad response frame: " ^ reason)
          | Wire.Io_fail reason -> fail ("recv: " ^ reason)))
    in
    go 0
  end

let ping t =
  match request t P.Ping with
  | Ok (P.Pong m) when m = P.magic -> Ok ()
  | Ok (P.Pong m) -> Error ("protocol version mismatch: " ^ m)
  | Ok _ -> Error "unexpected reply to ping"
  | Error _ as e -> e

let open_doc t ~doc ~scheme ~nodes ~seed =
  request t (P.Open { o_doc = doc; o_scheme = scheme; o_nodes = nodes; o_seed = seed })

let update t ~doc ops =
  request t (P.Update { u_doc = doc; u_client = ""; u_seq = 0; u_ops = ops })

let migrate t ~doc specs =
  request t (P.Migrate { mg_doc = doc; mg_client = ""; mg_seq = 0; mg_specs = specs })

let query t ~doc pred = request t (P.Query { q_doc = doc; q_pred = pred })

(* Queries are read-only and idempotent, so unlike anonymous mutations
   they resend freely through [request]'s retry loop. *)
let xpath t ~doc ~limit src =
  request t (P.Xpath { xq_doc = doc; xq_src = src; xq_limit = limit })

let twig t ~doc ~limit src =
  request t (P.Twig { tq_doc = doc; tq_src = src; tq_limit = limit })

let stats t ~doc = request t (P.Stats doc)
let labels t ~doc ~limit = request t (P.Labels { lb_doc = doc; lb_limit = limit })
let checkpoint t ~doc = request t (P.Checkpoint doc)
let metrics t = request t P.Metrics

let subscribe t ~doc ~replica =
  request t (P.Subscribe { sb_doc = doc; sb_replica = replica })

let replicate t ~doc ~replica ~epoch ~snap ~offset ~limit =
  request t
    (P.Replicate
       {
         rp_doc = doc;
         rp_replica = replica;
         rp_epoch = epoch;
         rp_snap = snap;
         rp_offset = offset;
         rp_limit = limit;
       })

let ack t ~doc ~replica ~epoch ~offset =
  request t (P.Ack { ak_doc = doc; ak_replica = replica; ak_epoch = epoch; ak_offset = offset })

let promote t ~doc = request t (P.Promote doc)
let docs t = request t P.Docs
