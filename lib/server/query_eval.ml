(* Wire-query evaluation for the server.

   An Xpath/Twig request is parsed and evaluated here, against the
   snapshot+index pair the document's writer last published — never under
   the document lock, never parked behind a mutation. A malformed query
   is the client's problem (Query_error); an answer that disagrees with
   the scan reference under [--paranoid] is the server's (Internal).

   Each document keeps a bounded answer cache. Served queries repeat a
   handful of texts while mutations rarely touch the names they read, so
   an answer taken at one revision is reused at a later one whenever
   [Axis_source.holds]: same change history, and either the same
   revision or a signature ([Xpath.signature], taken at the snapshot the
   answer came from) none of whose stamps the served snapshot moved
   later than the answer. A [Name] stamp moves with every insert,
   delete, rename or revalue of a node of that name, a [Kids] stamp with
   every one of a child or attribute of such a node; no primitive moves
   a surviving node, so nothing else can change the answer's nodes,
   their order, values or levels. *)

module P = Protocol
module Axis_inc = Repro_encoding.Axis_inc
module Axis_source = Repro_encoding.Axis_source
module Xpath = Repro_encoding.Xpath
module Twig = Repro_encoding.Twig
module Rank_join = Repro_encoding.Rank_join

type query = Q_xpath of string | Q_twig of string

exception Divergence of string

(* Replies are bounded server-side regardless of what the client asked
   for: a query can still name the whole document, but the reply cannot. *)
let max_rows = 10_000

(* ---- the answer cache ---------------------------------------------- *)

let max_cached_entries = 64
let max_cached_rows = 16_384

type entry = {
  e_history : int;  (** the change history the answer was taken from *)
  e_rev : int;  (** ... and the snapshot revision *)
  e_sig : Axis_source.stamp list option;  (** the answer's signature *)
  e_total : int;
  e_rows : P.qrow list;
  e_nrows : int;
  mutable e_used : int;  (** LRU tick *)
}

(* Keyed by query (kind and text) and clamped limit. One mutex, never
   held while evaluating. *)
type cache = {
  c_mu : Mutex.t;
  c_tbl : (query * int, entry) Hashtbl.t;
  mutable c_rows : int;
  mutable c_tick : int;
}

let cache () = { c_mu = Mutex.create (); c_tbl = Hashtbl.create 16; c_rows = 0; c_tick = 0 }

let cache_size c = Mutex.protect c.c_mu (fun () -> (Hashtbl.length c.c_tbl, c.c_rows))

(* The entry that answers [key] at [src], or the metric key saying why
   none does: no entry, an unsigned one at another revision, or a signed
   one whose stamps moved (or, rarely, one from another history or a
   later revision than [src]). *)
let lookup c key (src : Axis_source.t) =
  Mutex.protect c.c_mu (fun () ->
      match Hashtbl.find_opt c.c_tbl key with
      | Some e when Axis_source.holds src ~history:e.e_history ~rev:e.e_rev e.e_sig ->
        c.c_tick <- c.c_tick + 1;
        e.e_used <- c.c_tick;
        Ok e
      | Some { e_sig = None; _ } -> Error "query/cache_miss_unsigned"
      | Some _ -> Error "query/cache_miss_stale"
      | None -> Error "query/cache_miss_cold")

let drop c key e =
  Hashtbl.remove c.c_tbl key;
  c.c_rows <- c.c_rows - e.e_nrows

(* Keep [e] unless the entry under [key] is from a later history or
   revision: workers serve older snapshots concurrently, and an older
   answer must not push out a newer one. Least recently used entries
   make room. Returns the rows held afterwards. *)
let store c key e =
  Mutex.protect c.c_mu (fun () ->
      let newer =
        match Hashtbl.find_opt c.c_tbl key with
        | None -> true
        | Some old -> compare (e.e_history, e.e_rev) (old.e_history, old.e_rev) > 0
      in
      if newer && e.e_nrows <= max_cached_rows then begin
        Option.iter (drop c key) (Hashtbl.find_opt c.c_tbl key);
        while
          Hashtbl.length c.c_tbl >= max_cached_entries
          || c.c_rows + e.e_nrows > max_cached_rows
        do
          let oldest k v = function
            | Some (_, o) as acc when o.e_used <= v.e_used -> acc
            | _ -> Some (k, v)
          in
          let k, v = Option.get (Hashtbl.fold oldest c.c_tbl None) in
          drop c k v
        done;
        c.c_tick <- c.c_tick + 1;
        e.e_used <- c.c_tick;
        Hashtbl.replace c.c_tbl key e;
        c.c_rows <- c.c_rows + e.e_nrows
      end;
      c.c_rows)

(* ---- evaluation ---------------------------------------------------- *)

let qrow_of (r : Repro_encoding.Encoding.row) =
  {
    P.qr_kind =
      (match r.Repro_encoding.Encoding.kind with
      | Repro_encoding.Encoding.Element -> Repro_xml.Tree.Element
      | Repro_encoding.Encoding.Attribute -> Repro_xml.Tree.Attribute);
    qr_level = r.Repro_encoding.Encoding.level;
    qr_name = r.Repro_encoding.Encoding.name;
    qr_value = r.Repro_encoding.Encoding.value;
  }

(* The answer is counted from its stream; rows are built only for the
   entries the reply carries. *)
let reply snap ~limit answer =
  P.Query_r
    {
      qy_total = Rank_join.length answer;
      qy_rev = Axis_inc.rev snap;
      qy_rows = List.map qrow_of (Rank_join.rows ~limit (Axis_inc.source snap) answer);
    }

(* Under [paranoid], the served answer in full against the scan route
   over the same snapshot rows. *)
let cross_check snap what src answer scan =
  let rows = Rank_join.rows (Axis_inc.source snap) answer in
  if rows <> scan then
    raise
      (Divergence
         (Printf.sprintf "%s %S at revision %d: served %d rows, scan %d" what src (Axis_inc.rev snap)
            (List.length rows) (List.length scan)))

(* The reply, and the answer's signature (taken only when a miss stores
   it) when the query parsed. *)
let eval_xpath ~paranoid snap src ~limit =
  match Xpath.parse src with
  | exception Xpath.Parse_error { Xpath.position; message } ->
    (P.Query_error { qe_parse = true; qe_pos = position; qe_msg = message }, lazy None)
  | ast ->
    let answer = Xpath.select_src (Axis_inc.source snap) ast in
    if paranoid then
      cross_check snap "xpath" src answer (Xpath.eval_scan_rows (Axis_inc.rows snap) ast);
    (reply snap ~limit answer, lazy (Xpath.signature (Axis_inc.source snap) ast))

let eval_twig ~paranoid snap src ~limit =
  match Twig.parse src with
  | exception Twig.Parse_error { Twig.position; message } ->
    (P.Query_error { qe_parse = true; qe_pos = position; qe_msg = message }, lazy None)
  | t ->
    let answer = Twig.select_src (Axis_inc.source snap) t in
    (* an independent route: the pattern's navigational XPath
       equivalent, scan-evaluated over the same snapshot rows *)
    if paranoid then
      cross_check snap "twig" src answer
        (Xpath.eval_scan_rows (Axis_inc.rows snap) (Xpath.parse (Twig.matches_xpath_equivalent t)));
    (reply snap ~limit answer, lazy (Some (Twig.signature t)))

let evaluate ~paranoid snap query ~limit =
  match query with
  | Q_xpath src -> eval_xpath ~paranoid snap src ~limit
  | Q_twig src -> eval_twig ~paranoid snap src ~limit

let text = function Q_xpath s | Q_twig s -> s

(* A hit under [paranoid] is evaluated afresh (and that answer checked
   against the scan route); a cached reply that differs is refused. *)
let serve_hit metrics ~paranoid snap query ~limit e =
  let resp = P.Query_r { qy_total = e.e_total; qy_rev = Axis_inc.rev snap; qy_rows = e.e_rows } in
  if paranoid && fst (evaluate ~paranoid snap query ~limit) <> resp then begin
    Metrics.record metrics ~key:"query/cache_mismatch" ~ok:false ~ns:0;
    P.Err
      ( P.Internal,
        Printf.sprintf "answer cache mismatch: %S at revision %d (cached at %d)" (text query)
          (Axis_inc.rev snap) e.e_rev )
  end
  else resp

let serve_miss metrics ~paranoid snap cache query ~limit =
  let resp, signature = evaluate ~paranoid snap query ~limit in
  (match (cache, resp) with
  | Some c, P.Query_r { qy_total; qy_rows; _ } ->
    let src = Axis_inc.source snap in
    let rows =
      store c (query, limit)
        {
          e_history = src.Axis_source.history;
          e_rev = src.revision;
          e_sig = Lazy.force signature;
          e_total = qy_total;
          e_rows = qy_rows;
          e_nrows = List.length qy_rows;
          e_used = 0;
        }
    in
    Metrics.gauge metrics ~key:"query/cache_rows" ~value:rows
  | _ -> ());
  resp

let clamp limit = max 0 (min limit max_rows)

let guarded metrics f =
  try f ()
  with Divergence msg ->
    Metrics.record metrics ~key:"query/paranoid" ~ok:false ~ns:0;
    P.Err (P.Internal, "paranoid divergence: " ^ msg)

(* The one accounting of a served query, hit or miss, from the clocks
   read before its probe: the outcome's counters ([query/eval] counts
   only answers that were evaluated to be served), the paranoid
   re-verification, and the staleness and upkeep of the pair served. *)
let account metrics ~paranoid ~doc_rev ~inc ~pub_time ~snap ~wall0 ~t0 outcome resp =
  let ns = Int64.to_int (Int64.sub (Metrics.monotonic_ns ()) t0) in
  let ok = match resp with P.Query_r _ -> true | _ -> false in
  (match outcome with
  | `Hit -> Metrics.record metrics ~key:"query/cache_hit" ~ok ~ns
  | `Miss why ->
    Metrics.record metrics ~key:"query/cache_miss" ~ok ~ns:0;
    Metrics.record metrics ~key:why ~ok ~ns:0;
    Metrics.record metrics ~key:"query/eval" ~ok ~ns
  | `Uncached -> Metrics.record metrics ~key:"query/eval" ~ok ~ns);
  (match resp with
  | P.Query_r _ when paranoid -> Metrics.record metrics ~key:"query/paranoid" ~ok:true ~ns:0
  | _ -> ());
  (* staleness of the pair we served: document revisions not yet
     published, and the snapshot's age — on the wall clock, because the
     publisher stamps [pub_time] with it *)
  Metrics.gauge metrics ~key:"query/rev_lag" ~value:(max 0 (doc_rev - Axis_inc.rev snap));
  Metrics.gauge metrics ~key:"query/pub_age_us"
    ~value:(int_of_float (max 0. ((wall0 -. pub_time) *. 1e6)));
  let st = Axis_inc.stats inc in
  Metrics.gauge metrics ~key:"query/maint_ops" ~value:st.Axis_inc.ops;
  if st.Axis_inc.ops > 0 then
    Metrics.gauge metrics ~key:"query/maint_ns_per_op"
      ~value:(Int64.to_int (Int64.div st.Axis_inc.ns (Int64.of_int st.Axis_inc.ops)));
  resp

(* The reply to a hit, accounted, or the metric key saying why [cache]
   has none at [snap] (nothing is recorded for a miss here: the miss
   path accounts it). *)
let hit metrics ~paranoid ~doc_rev ~inc ~pub_time ~snap ~wall0 ~t0 cache query ~limit =
  let limit = clamp limit in
  match lookup cache (query, limit) (Axis_inc.source snap) with
  | Error why -> Error why
  | Ok e ->
    let resp = guarded metrics (fun () -> serve_hit metrics ~paranoid snap query ~limit e) in
    Ok (account metrics ~paranoid ~doc_rev ~inc ~pub_time ~snap ~wall0 ~t0 `Hit resp)

let probe metrics ~paranoid ~doc_rev ~inc ~pub_time ~snap cache query ~limit =
  let wall0 = Unix.gettimeofday () and t0 = Metrics.monotonic_ns () in
  Result.to_option
    (hit metrics ~paranoid ~doc_rev ~inc ~pub_time ~snap ~wall0 ~t0 cache query ~limit)

let serve metrics ~paranoid ~doc_rev ~inc ~pub_time ~snap ?cache query ~limit =
  let wall0 = Unix.gettimeofday () and t0 = Metrics.monotonic_ns () in
  let hit c = hit metrics ~paranoid ~doc_rev ~inc ~pub_time ~snap ~wall0 ~t0 c query ~limit in
  match Option.map hit cache with
  | Some (Ok resp) -> resp
  | looked ->
    let limit = clamp limit in
    let resp = guarded metrics (fun () -> serve_miss metrics ~paranoid snap cache query ~limit) in
    let outcome = match looked with Some (Error why) -> `Miss why | _ -> `Uncached in
    account metrics ~paranoid ~doc_rev ~inc ~pub_time ~snap ~wall0 ~t0 outcome resp
