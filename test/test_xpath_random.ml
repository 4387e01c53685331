(* Randomised differential testing of the XPath engine: generate random
   path expressions (as text, through a grammar-directed generator), then
   check that (a) parse-print-parse is stable and (b) the indexed
   evaluation equals the scan evaluation on random documents, over the
   dense batch index and over sparse-ranked incremental snapshots. *)

open Repro_encoding

let qcheck = QCheck_alcotest.to_alcotest

let names = [| "item"; "entry"; "record"; "section"; "node"; "data"; "list"; "group" |]
let attrs = [| "id"; "kind"; "lang"; "ref" |]

let axes =
  [| "child"; "descendant"; "descendant-or-self"; "parent"; "ancestor";
     "ancestor-or-self"; "following"; "preceding"; "following-sibling";
     "preceding-sibling"; "self"; "attribute" |]

(* Grammar-directed random path text. [fuel] bounds nesting. *)
let rec gen_path st fuel =
  let open QCheck.Gen in
  let absolute = bool st in
  let steps = 1 + int_bound 3 st in
  let parts = List.init steps (fun _ -> gen_step st fuel) in
  (if absolute then "/" else "") ^ String.concat "/" parts

and gen_step st fuel =
  let open QCheck.Gen in
  match int_bound 9 st with
  | 0 -> "."
  | 1 -> ".."
  | 2 -> "@" ^ attrs.(int_bound (Array.length attrs - 1) st)
  | 3 -> "*" ^ gen_predicates st fuel
  | 4 | 5 ->
    axes.(int_bound (Array.length axes - 1) st)
    ^ "::"
    ^ (if bool st then "*" else names.(int_bound 7 st))
    ^ gen_predicates st fuel
  | _ -> names.(int_bound 7 st) ^ gen_predicates st fuel

and gen_predicates st fuel =
  let open QCheck.Gen in
  if fuel <= 0 then ""
  else begin
    let n = int_bound 2 st in
    String.concat ""
      (List.init n (fun _ -> "[" ^ gen_expr st (fuel - 1) ^ "]"))
  end

and gen_expr st fuel =
  let open QCheck.Gen in
  match int_bound 7 st with
  | 0 -> string_of_int (1 + int_bound 4 st)
  | 1 -> "@" ^ attrs.(int_bound 3 st)
  | 2 -> Printf.sprintf "position() = %d" (1 + int_bound 3 st)
  | 3 -> "position() = last()"
  | 4 -> Printf.sprintf "count(%s) > %d" (gen_step st 0) (int_bound 2 st)
  | 5 -> Printf.sprintf "not(%s)" (gen_step st 0)
  | 6 -> Printf.sprintf "%s and %s" (gen_step st 0) (gen_step st 0)
  | _ -> gen_step st (fuel - 1)

let arb_query =
  QCheck.make ~print:Fun.id (fun st -> gen_path st 2)

let parse_print_stable =
  QCheck.Test.make ~name:"random queries: parse (to_string (parse q)) is stable" ~count:300
    arb_query (fun q ->
      match Xpath.parse q with
      | ast ->
        let s = Xpath.to_string ast in
        Xpath.to_string (Xpath.parse s) = s
      | exception Xpath.Parse_error _ -> QCheck.assume_fail ())

let indexed_equals_scan_random =
  QCheck.Test.make ~name:"random queries: indexed evaluation equals scan" ~count:250
    (QCheck.pair arb_query (QCheck.int_bound 100_000)) (fun (q, seed) ->
      match Xpath.parse q with
      | exception Xpath.Parse_error _ -> QCheck.assume_fail ()
      | ast ->
        let doc =
          Repro_workload.Docgen.generate ~seed
            { Repro_workload.Docgen.default_shape with target_nodes = 50 }
        in
        let enc = Encoding.of_doc doc in
        let pres rows = List.map (fun (r : Encoding.row) -> r.Encoding.pre) rows in
        pres (Xpath.eval_ast enc ast) = pres (Xpath.eval_scan_ast enc ast))

(* Random twig patterns, checked against the navigational XPath. *)
let rec gen_twig st fuel =
  let open QCheck.Gen in
  let name = names.(int_bound 7 st) in
  if fuel <= 0 then name
  else begin
    let branches = int_bound 2 st in
    name
    ^ String.concat ""
        (List.init branches (fun _ ->
             let axis = if bool st then "//" else "" in
             "[" ^ axis ^ gen_twig st (fuel - 1) ^ "]"))
  end

let arb_twig =
  QCheck.make ~print:Fun.id (fun st -> gen_twig st 2)

let random_twig_equals_xpath =
  QCheck.Test.make ~name:"random twigs: joins equal navigational XPath" ~count:250
    (QCheck.pair arb_twig (QCheck.int_bound 100_000)) (fun (pattern, seed) ->
      let doc =
        Repro_workload.Docgen.generate ~seed
          { Repro_workload.Docgen.default_shape with target_nodes = 60 }
      in
      let enc = Encoding.of_doc doc in
      let idx = Axis_index.build enc in
      let t = Twig.parse pattern in
      let pres rows = List.map (fun (r : Encoding.row) -> r.Encoding.pre) rows in
      pres (Twig.matches idx t) = pres (Xpath.eval enc (Twig.matches_xpath_equivalent t)))

(* ---- sparse ranks -----------------------------------------------------

   The properties above run over the dense batch index. The served engine
   runs over an Axis_inc snapshot, whose ranks are sparse and, after a
   skewed insertion run exhausts a gap, renumbered in windows. These
   properties take snapshots after such a storm and check the full rows
   the source route answers against the scan route over the same rows. *)

let sparse_seeds = 6

(* One storm per seed, built on first use: a skewed insertion run that
   exhausts a rank gap (forcing window renumbering), then a mixed
   insert/delete run. [None] when Docgen collapsed the document. *)
let sparse_snaps =
  let memo = Hashtbl.create sparse_seeds in
  fun seed ->
    let seed = seed mod sparse_seeds in
    match Hashtbl.find_opt memo seed with
    | Some s -> s
    | None ->
      let doc =
        Repro_workload.Docgen.generate ~seed
          { Repro_workload.Docgen.default_shape with target_nodes = 400 }
      in
      let s =
        if Repro_xml.Tree.size doc < 300 then None
        else begin
          let session = Core.Session.make (module Repro_schemes.Qed : Core.Scheme.S) doc in
          let inc = Axis_inc.create doc in
          Repro_workload.Updates.run Repro_workload.Updates.Skewed_after_anchor ~seed ~ops:80 session;
          Repro_workload.Updates.run Repro_workload.Updates.Mixed_with_deletes ~seed ~ops:120 session;
          let snap = Axis_inc.snapshot inc in
          Axis_inc.detach inc;
          Some (snap, (Axis_inc.stats inc).Axis_inc.renumbered)
        end
      in
      Hashtbl.replace memo seed s;
      s

(* Paths built from '//' and '/' steps with the existential predicates
   the kernel answers by semijoin, mixed with ones it does not. *)
let rec gen_deep_path st fuel =
  let open QCheck.Gen in
  let steps = 1 + int_bound 2 st in
  String.concat ""
    (List.init steps (fun i -> (if i = 0 || bool st then "//" else "/") ^ gen_deep_step st fuel))

and gen_deep_step st fuel =
  let open QCheck.Gen in
  let test =
    match int_bound 9 st with
    | 0 -> "*"
    | 1 -> "@" ^ attrs.(int_bound 3 st)
    | 2 -> "following-sibling::" ^ names.(int_bound 7 st)
    | 3 -> "preceding-sibling::*"
    | _ -> names.(int_bound 7 st)
  in
  test ^ if fuel <= 0 then "" else if bool st then "[" ^ gen_deep_pred st (fuel - 1) ^ "]" else ""

and gen_deep_pred st fuel =
  let open QCheck.Gen in
  let name () = names.(int_bound 7 st) in
  match int_bound 9 st with
  | 0 -> name ()
  | 1 -> ".//" ^ name ()
  | 2 -> Printf.sprintf "count(%s) > 0" (name ())
  | 3 -> name () ^ "/" ^ name ()
  | 4 -> Printf.sprintf "%s[%s]" (name ()) (gen_deep_pred st (fuel - 1))
  | 5 -> Printf.sprintf "not(%s)" (name ())
  | 6 -> Printf.sprintf "%s or .//%s" (name ()) (name ())
  | 7 -> string_of_int (1 + int_bound 2 st)
  | 8 -> "@" ^ attrs.(int_bound 3 st)
  | _ -> "position() = last()"

let arb_deep_query = QCheck.make ~print:Fun.id (fun st -> gen_deep_path st 2)

let sparse_rows_equal_scan =
  QCheck.Test.make ~name:"sparse snapshots: source rows equal scan rows" ~count:120
    (QCheck.pair arb_deep_query (QCheck.int_bound 1000)) (fun (q, seed) ->
      match (sparse_snaps seed, Xpath.parse q) with
      | exception Xpath.Parse_error _ -> QCheck.assume_fail ()
      | None, _ -> QCheck.assume_fail ()
      | Some (snap, _), ast ->
        Xpath.eval_src_ast (Axis_inc.source snap) ast = Xpath.eval_scan_rows (Axis_inc.rows snap) ast)

let sparse_twigs_equal_scan =
  QCheck.Test.make ~name:"sparse snapshots: twig joins equal scanned XPath" ~count:120
    (QCheck.pair arb_twig (QCheck.int_bound 1000)) (fun (pattern, seed) ->
      match sparse_snaps seed with
      | None -> QCheck.assume_fail ()
      | Some (snap, _) ->
        let t = Twig.parse pattern in
        Twig.matches_src (Axis_inc.source snap) t
        = Xpath.eval_scan_rows (Axis_inc.rows snap) (Xpath.parse (Twig.matches_xpath_equivalent t)))

(* The storms above do renumber windows, so the properties see them. *)
let storms_renumber () =
  let renumbered =
    List.init sparse_seeds (fun seed ->
        match sparse_snaps seed with Some (_, r) -> r | None -> 0)
  in
  Alcotest.(check bool) "some storm renumbered a window" true (List.exists (fun r -> r > 0) renumbered)

(* The server counts an answer from its ranks and builds rows only for
   the reply's prefix: both must agree with the full answer. *)
let served_total_and_prefix () =
  let module P = Repro_server.Protocol in
  let module Q = Repro_server.Query_eval in
  match List.find_map sparse_snaps (List.init sparse_seeds Fun.id) with
  | None -> Alcotest.fail "every sparse document collapsed"
  | Some (snap, _) ->
    let src = Axis_inc.source snap in
    let doc = Repro_workload.Docgen.generate ~seed:1 Repro_workload.Docgen.default_shape in
    let inc = Axis_inc.create doc in
    List.iter
      (fun (query, full) ->
        List.iter
          (fun limit ->
            match
              Q.serve (Repro_server.Metrics.create ()) ~paranoid:true ~doc_rev:(Axis_inc.rev snap) ~inc
                ~pub_time:0. ~snap query ~limit
            with
            | P.Query_r { P.qy_total; qy_rows; _ } ->
              Alcotest.(check int) "qy_total" (List.length full) qy_total;
              let prefix = List.filteri (fun i _ -> i < limit) full in
              Alcotest.(check (list (triple int string (option string))))
                "first rows"
                (List.map (fun (r : Encoding.row) -> (r.level, r.name, r.value)) prefix)
                (List.map (fun (q : P.qrow) -> (q.P.qr_level, q.qr_name, q.qr_value)) qy_rows)
            | _ -> Alcotest.fail "query refused")
          [ 0; 1; 5; 32; 10_000 ])
      [
        (Q.Q_xpath "//item", Xpath.eval_src src "//item");
        (Q.Q_xpath "//section//field", Xpath.eval_src src "//section//field");
        (Q.Q_xpath "//item/following-sibling::*", Xpath.eval_src src "//item/following-sibling::*");
        (Q.Q_twig "entry[field][//meta]", Twig.matches_src src (Twig.parse "entry[field][//meta]"));
      ];
    Axis_inc.detach inc

let suite =
  [
    qcheck parse_print_stable;
    qcheck indexed_equals_scan_random;
    qcheck random_twig_equals_xpath;
    ("sparse storms renumber", `Quick, storms_renumber);
    qcheck sparse_rows_equal_scan;
    qcheck sparse_twigs_equal_scan;
    ("served total and prefix", `Quick, served_total_and_prefix);
  ]
