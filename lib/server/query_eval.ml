(* Wire-query evaluation shared by both server cores.

   An Xpath/Twig request is parsed and evaluated here, against the
   snapshot+index pair the document's writer last published — never under
   the document lock, never parked behind a mutation. A malformed query
   is the client's problem (Query_error); an answer that disagrees with
   the scan reference under [--paranoid] is the server's (Internal). *)

module P = Protocol
module Axis_inc = Repro_encoding.Axis_inc
module Xpath = Repro_encoding.Xpath
module Twig = Repro_encoding.Twig
module Rank_join = Repro_encoding.Rank_join

type query = Q_xpath of string | Q_twig of string

exception Divergence of string

(* Replies are bounded server-side regardless of what the client asked
   for: a query can still name the whole document, but the reply cannot. *)
let max_rows = 10_000

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
  let limit = max 0 (min limit max_rows) in
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

let eval_xpath ~paranoid snap src ~limit =
  match Xpath.parse src with
  | exception Xpath.Parse_error { Xpath.position; message } ->
    P.Query_error { qe_parse = true; qe_pos = position; qe_msg = message }
  | ast ->
    let answer = Xpath.select_src (Axis_inc.source snap) ast in
    if paranoid then
      cross_check snap "xpath" src answer (Xpath.eval_scan_rows (Axis_inc.rows snap) ast);
    reply snap ~limit answer

let eval_twig ~paranoid snap src ~limit =
  match Twig.parse src with
  | exception Twig.Parse_error { Twig.position; message } ->
    P.Query_error { qe_parse = true; qe_pos = position; qe_msg = message }
  | t ->
    let answer = Twig.select_src (Axis_inc.source snap) t in
    (* an independent route: the pattern's navigational XPath
       equivalent, scan-evaluated over the same snapshot rows *)
    if paranoid then
      cross_check snap "twig" src answer
        (Xpath.eval_scan_rows (Axis_inc.rows snap) (Xpath.parse (Twig.matches_xpath_equivalent t)));
    reply snap ~limit answer

let serve metrics ~paranoid ~doc_rev ~inc ~pub_time ~snap query ~limit =
  let wall0 = Unix.gettimeofday () in
  let t0 = Metrics.monotonic_ns () in
  let resp =
    try
      match query with
      | Q_xpath src -> eval_xpath ~paranoid snap src ~limit
      | Q_twig src -> eval_twig ~paranoid snap src ~limit
    with Divergence msg ->
      Metrics.record metrics ~key:"query/paranoid" ~ok:false ~ns:0;
      P.Err (P.Internal, "paranoid divergence: " ^ msg)
  in
  let ns = Int64.to_int (Int64.sub (Metrics.monotonic_ns ()) t0) in
  let ok = match resp with P.Query_r _ -> true | _ -> false in
  Metrics.record metrics ~key:"query/eval" ~ok ~ns;
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
