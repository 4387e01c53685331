open Repro_xml
open Repro_encoding

(* A standing query doesn't care which labels its answer nodes carry —
   ranks and levels shift under every structural rewrite by design — so
   answers are compared as ordered (kind, name, value) sequences. *)

type query = Q_xpath of string * Xpath.ast | Q_twig of string * Twig.t

type verdict = Survived | Changed | Broken

let query_text = function Q_xpath (s, _) -> s | Q_twig (s, _) -> s

let parse_xpath s = Q_xpath (s, Xpath.parse s)
let parse_twig s = Q_twig (s, Twig.parse s)

type answer = (Encoding.kind * string * string option) list

(* Read straight from the answer stream: no row (and no parent link) is
   built for a node the comparison never looks at. *)
let answer src q =
  let s =
    match q with Q_xpath (_, ast) -> Xpath.select_src src ast | Q_twig (_, t) -> Twig.select_src src t
  in
  Array.to_list (Array.map (fun n -> (n.Axis_source.n_kind, n.n_name, n.n_value)) s.Rank_join.node)

let classify ~before ~after =
  if before = after then Survived else if before <> [] && after = [] then Broken else Changed

let verdict_name = function Survived -> "survived" | Changed -> "changed" | Broken -> "broken"

(* ---- seeded pool generation -----------------------------------------

   Drawn from the names actually present in the document, so every query
   starts out non-trivial (most have non-empty answers at step 0) and its
   later emptiness is informative. *)

let element_names doc =
  let seen = Hashtbl.create 32 in
  let acc = ref [] in
  Tree.iter_preorder
    (fun n ->
      if n.Tree.kind = Tree.Element && not (Hashtbl.mem seen n.Tree.name) then begin
        Hashtbl.add seen n.Tree.name ();
        acc := n.Tree.name :: !acc
      end)
    doc;
  Array.of_list (List.rev !acc)

let pool ~seed ~count doc =
  let rng = Repro_codes.Prng.create seed in
  let names = element_names doc in
  let pick () = names.(Repro_codes.Prng.int rng (Array.length names)) in
  let root_name = (Tree.root doc).Tree.name in
  let mk i =
    match i mod 6 with
    | 0 -> parse_xpath (Printf.sprintf "//%s" (pick ()))
    | 1 -> parse_xpath (Printf.sprintf "//%s//%s" (pick ()) (pick ()))
    | 2 -> parse_xpath (Printf.sprintf "//%s/%s" (pick ()) (pick ()))
    | 3 -> parse_xpath (Printf.sprintf "/%s//%s" root_name (pick ()))
    | 4 -> parse_twig (Printf.sprintf "%s[%s]" (pick ()) (pick ()))
    | _ -> parse_twig (Printf.sprintf "%s[%s//%s]" (pick ()) (pick ()) (pick ()))
  in
  List.init count mk

(* The stamps whose changes can move a query's answer taken from [src]
   (see [Xpath.signature] and [Twig.signature]). *)
let signature src = function
  | Q_xpath (_, ast) -> Xpath.signature src ast
  | Q_twig (_, t) -> Some (Twig.signature t)

type tracked = {
  tq : query;
  mutable t_sig : Axis_source.stamp list option;
  mutable t_answer : answer;
  mutable t_verdict : verdict;
  mutable t_history : int;
  mutable t_rev : int;
}

let track (src : Axis_source.t) qs =
  List.map
    (fun q ->
      {
        tq = q;
        t_sig = signature src q;
        t_answer = answer src q;
        t_verdict = Survived;
        t_history = src.history;
        t_rev = src.revision;
      })
    qs

type tally = { mutable evaluated : int; mutable skipped : int; mutable mismatches : int }

let tally () = { evaluated = 0; skipped = 0; mismatches = 0 }

(* A kept answer still holds when it came from the same change history,
   no later than [src], and none of its signature's stamps moved since
   ([Axis_source.holds]). *)
let unchanged (src : Axis_source.t) t =
  Axis_source.holds src ~history:t.t_history ~rev:t.t_rev t.t_sig

(* Bring the pool up to a fresh snapshot, re-evaluating only the queries
   whose kept answers may have moved; [check] re-evaluates the rest too
   and counts every kept answer that differs. Verdicts are sticky in the
   worst direction (a query that broke once stays counted as broken even
   if a later rewrite resurrects its answer), because the standing
   subscriber already saw the damage. *)
let step ?(check = false) ?(tally = tally ()) (src : Axis_source.t) tracked =
  let stepped = ref (0, 0) in
  List.iter
    (fun t ->
      let now =
        if unchanged src t then begin
          tally.skipped <- tally.skipped + 1;
          if not check then t.t_answer
          else begin
            let fresh = answer src t.tq in
            if fresh <> t.t_answer then tally.mismatches <- tally.mismatches + 1;
            fresh
          end
        end
        else begin
          tally.evaluated <- tally.evaluated + 1;
          t.t_sig <- signature src t.tq;
          answer src t.tq
        end
      in
      (match classify ~before:t.t_answer ~after:now with
      | Survived -> ()
      | Changed ->
        let c, b = !stepped in
        stepped := (c + 1, b);
        if t.t_verdict = Survived then t.t_verdict <- Changed
      | Broken ->
        let c, b = !stepped in
        stepped := (c, b + 1);
        t.t_verdict <- Broken);
      t.t_answer <- now;
      t.t_history <- src.history;
      t.t_rev <- src.revision)
    tracked;
  !stepped

let totals tracked =
  List.fold_left
    (fun (s, c, b) t ->
      match t.t_verdict with
      | Survived -> (s + 1, c, b)
      | Changed -> (s, c + 1, b)
      | Broken -> (s, c, b + 1))
    (0, 0, 0) tracked
