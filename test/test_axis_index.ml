(* Tests for the region-query index and the rank-stream joins, plus the
   differential check: the indexed XPath engine must agree with the
   document-scan reference on arbitrary documents and queries. *)

open Repro_xml
open Repro_encoding

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

let doc_of_seed seed =
  Repro_workload.Docgen.generate ~seed
    { Repro_workload.Docgen.default_shape with target_nodes = 80 }

let pres rows = List.map (fun (r : Encoding.row) -> r.Encoding.pre) rows

(* ------------------------------------------------------------------ *)
(* Axis source entries against the naive definitions                   *)
(* ------------------------------------------------------------------ *)

(* Every rank-level entry of the dense index's axis source, and the region
   scans the fallback axes are built from, against filters over the rows. *)
let source_against_scan =
  QCheck.Test.make ~name:"axis source entries agree with the row-scan definitions" ~count:40
    (QCheck.int_bound 100_000) (fun seed ->
      let enc = Encoding.of_doc (doc_of_seed seed) in
      let src = Axis_source.of_index (Axis_index.build enc) in
      let all = Encoding.rows enc in
      let scan p = pres (List.filter p all) in
      let region from while_ =
        let acc = ref [] in
        src.scan from (fun pre n -> while_ n && (acc := pre :: !acc; true));
        List.rev !acc
      in
      let rec ancestors acc key = if key = -1 then acc else
          let pre = src.rank_of_key key in
          ancestors (pre :: acc) (src.node pre).n_parent in
      List.for_all
        (fun (ctx : Encoding.row) ->
          let n = src.node ctx.pre in
          n.n_post = ctx.post && n.n_kind = ctx.kind && n.n_level = ctx.level
          && n.n_name = ctx.name && n.n_value = ctx.value
          && src.rank_of_key n.n_key = ctx.pre
          && Array.to_list (src.ranks ctx.name) = scan (fun r -> r.name = ctx.name)
          && region (ctx.pre + 1) (fun m -> m.n_post < ctx.post)
             = scan (fun r -> r.pre > ctx.pre && r.post < ctx.post)
          && List.filter
               (fun p -> (src.node p).n_kind <> Encoding.Attribute && (src.node p).n_post > ctx.post)
               (region (ctx.pre + 1) (fun _ -> true))
             = scan (fun r -> r.pre > ctx.pre && r.post > ctx.post && r.kind <> Encoding.Attribute)
          && Array.to_list (src.children_of n.n_key) = scan (fun r -> r.parent_pre = Some ctx.pre)
          && ancestors [] n.n_parent = scan (fun r -> r.pre < ctx.pre && r.post > ctx.post))
        all)

(* ------------------------------------------------------------------ *)
(* Rank joins vs the nested loop                                       *)
(* ------------------------------------------------------------------ *)

let contains (a : Encoding.row) (d : Encoding.row) = a.pre < d.pre && d.post < a.post

(* Two arbitrary element streams in document order, with their rows. *)
let two_streams seed amod dmod =
  let enc = Encoding.of_doc (doc_of_seed seed) in
  let src = Axis_source.of_index (Axis_index.build enc) in
  let elements =
    List.filter (fun (r : Encoding.row) -> r.kind = Encoding.Element) (Encoding.rows enc)
  in
  let pick m = List.filteri (fun i _ -> i mod (m + 2) = 0) elements in
  let stream rows = Rank_join.of_ranks src (Array.of_list (pres rows)) in
  let a = pick amod and d = pick dmod in
  (a, d, stream a, stream d)

let stream_pres (s : Rank_join.t) = Array.to_list s.pre

let streams =
  QCheck.pair (QCheck.int_bound 100_000) (QCheck.pair (QCheck.int_bound 3) (QCheck.int_bound 3))

let step_joins_correct =
  QCheck.Test.make ~name:"descendant and child joins equal the nested loop" ~count:60 streams
    (fun (seed, (amod, dmod)) ->
      let a, d, sa, sd = two_streams seed amod dmod in
      let parent_in (r : Encoding.row) =
        List.exists (fun (p : Encoding.row) -> r.parent_pre = Some p.pre) a
      in
      stream_pres (Rank_join.descendants ~ctx:sa sd)
      = pres (List.filter (fun r -> List.exists (fun p -> contains p r) a) d)
      && stream_pres (Rank_join.children ~ctx:sa sd) = pres (List.filter parent_in d))

let semijoins_correct =
  QCheck.Test.make ~name:"ancestor semijoins equal the filter definitions" ~count:60 streams
    (fun (seed, (amod, dmod)) ->
      let a, d, sa, sd = two_streams seed amod dmod in
      let child_of (p : Encoding.row) (r : Encoding.row) = r.parent_pre = Some p.pre in
      stream_pres (Rank_join.having_descendant sa sd)
      = pres (List.filter (fun p -> List.exists (contains p) d) a)
      && stream_pres (Rank_join.having_child sa sd)
         = pres (List.filter (fun p -> List.exists (child_of p) d) a))

let of_list_sorts () =
  let enc = Encoding.of_doc (Samples.book ()) in
  let src = Axis_source.of_index (Axis_index.build enc) in
  let e pre = (pre, src.node pre) in
  let s = Rank_join.of_list [ e 3; e 1; e 3; e 0 ] in
  check (Alcotest.list Alcotest.int) "sorted, one entry per rank" [ 0; 1; 3 ] (stream_pres s);
  check (Alcotest.list Alcotest.int) "filter" [ 1; 3 ]
    (stream_pres (Rank_join.filter (fun pre _ -> pre > 0) s))

(* ------------------------------------------------------------------ *)
(* Indexed evaluator ≡ scan evaluator                                  *)
(* ------------------------------------------------------------------ *)

let query_pool =
  [| "//*"; "//item"; "//item//field"; "/*/*"; "//*[@id]"; "//group/ancestor::*";
     "//field/following::*"; "//entry/preceding::*"; "//record/following-sibling::*";
     "//list/preceding-sibling::node()"; "//*[2]"; "//*[count(*) > 1]/node()";
     "//data/.."; "descendant::*[position() = last()]"; "//*[not(@kind)]/meta";
     "//section/descendant-or-self::*"; "//node()/self::item"; "//*/@*" |]

let indexed_equals_scan =
  QCheck.Test.make ~name:"indexed evaluation equals scan evaluation" ~count:40
    (QCheck.pair (QCheck.int_bound 100_000) (QCheck.int_bound (Array.length query_pool - 1)))
    (fun (seed, qi) ->
      let enc = Encoding.of_doc (doc_of_seed seed) in
      let q = query_pool.(qi) in
      pres (Xpath.eval enc q) = pres (Xpath.eval_scan enc q))

let indexed_equals_scan_after_updates () =
  let doc = doc_of_seed 77 in
  let session = Core.Session.make (module Repro_schemes.Qed : Core.Scheme.S) doc in
  Repro_workload.Updates.run Repro_workload.Updates.Mixed_with_deletes ~seed:7 ~ops:60
    session;
  let enc = Encoding.of_doc doc in
  Array.iter
    (fun q ->
      check (Alcotest.list Alcotest.int) q (pres (Xpath.eval_scan enc q))
        (pres (Xpath.eval enc q)))
    query_pool

let suite =
  [
    ("rank stream of_list sorts and merges", `Quick, of_list_sorts);
    ("indexed = scan after updates", `Quick, indexed_equals_scan_after_updates);
    qcheck source_against_scan;
    qcheck step_joins_correct;
    qcheck semijoins_correct;
    qcheck indexed_equals_scan;
  ]
