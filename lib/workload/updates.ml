open Repro_xml
open Repro_codes

type pattern =
  | Uniform_random
  | Skewed_before_first
  | Skewed_after_anchor
  | Append_only
  | Prepend_only
  | Deep_chain
  | Mixed_with_deletes
  | Subtree_bursts

let all_patterns =
  [
    Uniform_random;
    Skewed_before_first;
    Skewed_after_anchor;
    Append_only;
    Prepend_only;
    Deep_chain;
    Mixed_with_deletes;
    Subtree_bursts;
  ]

let pattern_name = function
  | Uniform_random -> "uniform-random"
  | Skewed_before_first -> "skewed-before-first"
  | Skewed_after_anchor -> "skewed-after-anchor"
  | Append_only -> "append-only"
  | Prepend_only -> "prepend-only"
  | Deep_chain -> "deep-chain"
  | Mixed_with_deletes -> "mixed-with-deletes"
  | Subtree_bursts -> "subtree-bursts"

type driver = {
  pattern : pattern;
  rng : Prng.t;
  session : Core.Session.t;
  mutable counter : int;
  mutable fixed : Tree.node option;  (** skewed patterns' fixed node *)
  mutable last_inserted : Tree.node option;
  (* Revision-stamped snapshots backing the random pickers: rebuilt at
     most once per document revision, shared by every pick within one
     operation (all picks happen before the operation's mutation). *)
  mutable cache_rev : int;
  mutable cache_all : Tree.node array;  (** preorder snapshot, root first *)
  mutable cache_elements : Tree.node array;  (** element nodes, in preorder *)
}

let start pattern ~seed session =
  {
    pattern;
    rng = Prng.create seed;
    session;
    counter = 0;
    fixed = None;
    last_inserted = None;
    cache_rev = min_int;
    cache_all = [||];
    cache_elements = [||];
  }

let fresh_leaf d =
  d.counter <- d.counter + 1;
  Tree.elt (Printf.sprintf "u%d" d.counter) []

(* Uniform choice over the picker snapshots: each draw is one PRNG index —
   exactly the draw [Prng.choose] would make on the equivalent filtered
   preorder list, so seeded workloads replay identically to list-building
   pickers (the workload tests hold the two side by side). *)
let refresh_cache d =
  let doc = d.session.Core.Session.doc in
  let rev = Tree.revision doc in
  if d.cache_rev <> rev then begin
    let all = Tree.preorder_array doc in
    d.cache_all <- all;
    let elts = ref 0 in
    Array.iter (fun (n : Tree.node) -> if n.kind = Tree.Element then incr elts) all;
    let elems = Array.make !elts all.(0) in
    let i = ref 0 in
    Array.iter
      (fun (n : Tree.node) ->
        if n.kind = Tree.Element then begin
          elems.(!i) <- n;
          incr i
        end)
      all;
    d.cache_elements <- elems;
    d.cache_rev <- rev
  end

(* A uniformly random live element node (the root included). *)
let random_element d =
  refresh_cache d;
  if Array.length d.cache_elements = 0 then
    invalid_arg "Updates.random_element: no element nodes";
  d.cache_elements.(Prng.int d.rng (Array.length d.cache_elements))

let random_non_root d =
  refresh_cache d;
  (* The preorder snapshot leads with the root; everything after it is a
     non-root node, so the k-th match is a direct index. *)
  let count = Array.length d.cache_all - 1 in
  if count = 0 then None else Some d.cache_all.(1 + Prng.int d.rng count)

let uniform_insert d =
  let s = d.session in
  let payload = fresh_leaf d in
  let n =
    match (Prng.int d.rng 4, random_non_root d) with
    | 0, Some anchor -> s.insert_before anchor payload
    | 1, Some anchor -> s.insert_after anchor payload
    | 2, _ -> s.insert_first (random_element d) payload
    | _, _ -> s.insert_last (random_element d) payload
  in
  d.last_inserted <- Some n

let fixed_node d =
  match d.fixed with
  | Some n when Tree.mem d.session.doc n.Tree.id -> n
  | _ ->
    let n = random_element d in
    d.fixed <- Some n;
    n

let step d =
  let s = d.session in
  match d.pattern with
  | Uniform_random -> uniform_insert d
  | Skewed_before_first ->
    let parent = fixed_node d in
    let payload = fresh_leaf d in
    let n =
      match Tree.first_child parent with
      | Some first -> s.insert_before first payload
      | None -> s.insert_first parent payload
    in
    d.last_inserted <- Some n
  | Skewed_after_anchor -> (
    (* Pin an anchor child under the fixed node, then pile insertions
       right after it. *)
    match d.last_inserted with
    | None ->
      let parent = fixed_node d in
      d.last_inserted <- Some (s.insert_first parent (fresh_leaf d))
    | Some _ ->
      let parent = fixed_node d in
      let anchor =
        match Tree.first_child parent with
        | Some a -> a
        | None -> s.insert_first parent (fresh_leaf d)
      in
      ignore (s.insert_after anchor (fresh_leaf d)))
  | Append_only ->
    d.last_inserted <- Some (s.insert_last (Tree.root s.doc) (fresh_leaf d))
  | Prepend_only ->
    d.last_inserted <- Some (s.insert_first (Tree.root s.doc) (fresh_leaf d))
  | Deep_chain ->
    let parent =
      match d.last_inserted with
      | Some n when Tree.mem s.doc n.Tree.id -> n
      | _ -> Tree.root s.doc
    in
    d.last_inserted <- Some (s.insert_first parent (fresh_leaf d))
  | Mixed_with_deletes ->
    if Prng.float d.rng 1.0 < 0.3 && Tree.size s.doc > 4 then begin
      match random_non_root d with
      | Some victim -> s.delete victim
      | None -> uniform_insert d
    end
    else uniform_insert d
  | Subtree_bursts ->
    let parent = random_element d in
    d.counter <- d.counter + 1;
    let frag = Docgen.random_fragment d.rng ~depth:2 in
    d.last_inserted <- Some (s.insert_last parent frag)

let run pattern ~seed ~ops session =
  let d = start pattern ~seed session in
  for _ = 1 to ops do
    step d
  done
