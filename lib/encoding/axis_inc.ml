module Tree = Repro_xml.Tree
module Imap = Map.Make (Int)
module Smap = Map.Make (String)
module Iset = Set.Make (Int)

(* Spacing between consecutive ranks at build time, and between ranks
   appended at either end of a plane: 2^32 leaves room for ~2^30 nodes
   below max_int. Gaps inside the plane are closed by [alloc]'s
   density-threshold renumbering. *)
let gap = 1 lsl 32

let kind_of = function
  | Tree.Element -> Encoding.Element
  | Tree.Attribute -> Encoding.Attribute

(* One node's slot in the plane: the axis source's node record itself, so
   a rank lookup hands out the stored cell without allocating. The parent
   link is the parent's stable node id, not its pre rank — renumbering a
   window must not have to rewrite the children's cells. *)
type cell = Axis_source.node = {
  n_post : int;  (* sparse post rank *)
  n_kind : Encoding.kind;
  n_level : int;
  n_key : int;  (* Tree node id *)
  n_parent : int;  (* parent's node id; -1 at the document element *)
  n_name : string;
  n_value : string option;
}

(* One name's live nodes and its two change stamps. [changed] is the
   Tree.revision at which a node carrying the name was last inserted,
   deleted, renamed to or from it, or given a new value; it rides in the
   name index entry that every such mutation updates anyway.
   [kids_changed] is the revision at which a child or attribute of some
   node carrying the name was last inserted, deleted, renamed or
   revalued: every primitive knows the parent it acts under, so this
   costs one more entry update, at the parent's name. *)
type entry = { ranks : Iset.t; changed : int; kids_changed : int }

(* The stamps of names whose last node went. A name in neither this nor
   the name index last changed at [floor]. Once [buried] holds more
   names than the index held live ones at the last fold, it is folded
   into [floor], so the stamps stay within a constant factor of the live
   names however many names come and go. *)
type gone = { buried : int Smap.t; count : int; limit : int; floor : int }

(* All maps are persistent, so a snapshot is the record itself: O(1) to
   take, immutable to read, safely shared across domains. *)
type snap = {
  plane : cell Imap.t;  (* sparse pre rank -> cell, document order *)
  pre_of : int Imap.t;  (* node id -> pre rank *)
  post_of : int Imap.t;  (* post rank -> pre rank *)
  names : entry Smap.t;  (* name -> its nodes' pre ranks and stamp *)
  kids : Iset.t Imap.t;  (* parent node id -> child pre ranks *)
  s_rev : int;  (* Tree.revision this snapshot reflects *)
  gone : gone;
  history : int;  (* this index's change history, for Axis_source *)
}

type stats = { ops : int; renumbered : int; ns : int64 }

type t = {
  doc : Tree.doc;
  clock : unit -> int64;
  mutable snap : snap;
  mutable obs : int;
  mutable m_ops : int;
  mutable m_renumbered : int;
  mutable m_ns : int64;
}

let rev s = s.s_rev
let size s = Imap.cardinal s.plane
let stamped s = Smap.cardinal s.names + s.gone.count

(* A gone name's node went at its buried (or the floor) revision, after
   any change to its children: both stamps read that. *)
let stamp field s name =
  match Smap.find_opt name s.names with
  | Some e -> field e
  | None -> ( match Smap.find_opt name s.gone.buried with Some r -> r | None -> s.gone.floor)

let changed_at = stamp (fun e -> e.changed)
let kids_changed_at = stamp (fun e -> max e.changed e.kids_changed)

let stats t = { ops = t.m_ops; renumbered = t.m_renumbered; ns = t.m_ns }

(* ------------------------------------------------------------------ *)
(* Map plumbing                                                        *)
(* ------------------------------------------------------------------ *)

let iset_add k pre m =
  Imap.update k (fun s -> Some (Iset.add pre (Option.value s ~default:Iset.empty))) m

let iset_remove k pre m =
  Imap.update k
    (function
      | None -> None
      | Some s ->
        let s = Iset.remove pre s in
        if Iset.is_empty s then None else Some s)
    m

(* [at] stamps the name. Renumbering changes no name and passes none:
   the stamps are kept, and an entry left without ranks stays until the
   renumbered rank comes back (so a new entry without [at] cannot occur;
   it would read as changed after everything). A real removal that
   takes a name's last node drops its entry and says so. *)
let names_add ?at name pre m =
  Smap.update name
    (function
      | Some e ->
        Some { e with ranks = Iset.add pre e.ranks; changed = Option.value at ~default:e.changed }
      | None ->
        let at = Option.value at ~default:max_int in
        Some { ranks = Iset.singleton pre; changed = at; kids_changed = at })
    m

let names_remove ?at name pre m =
  let died = ref false in
  let m =
    Smap.update name
      (function
        | None -> None
        | Some e -> (
          let ranks = Iset.remove pre e.ranks in
          match at with
          | Some _ when Iset.is_empty ranks ->
            died := true;
            None
          | _ -> Some { e with ranks; changed = Option.value at ~default:e.changed }))
      m
  in
  (m, !died)

let names_touch at name m = Smap.update name (Option.map (fun e -> { e with changed = at })) m

(* Stamp the children of [n]'s parent, under the name the tree gives it
   (the index has folded in every rename the tree made): none at the
   document element. *)
let parent_touch at n m =
  match Tree.parent n with
  | Some p -> Smap.update p.Tree.name (Option.map (fun e -> { e with kids_changed = at })) m
  | None -> m

let min_limit = 64

(* Keep the stamp of a name whose last node went at [at]. A fold sets
   [floor] to [at], at least every buried stamp, so a folded name reads
   as changed no earlier than it did. *)
let bury at names g name =
  let fresh = ref true in
  let buried =
    Smap.update name
      (fun old ->
        fresh := old = None;
        Some at)
      g.buried
  in
  let count = if !fresh then g.count + 1 else g.count in
  if count <= g.limit then { g with buried; count }
  else
    { buried = Smap.empty; count = 0; limit = max min_limit (Smap.cardinal names); floor = at }

let add_cell ?at snap (pre, c) =
  {
    snap with
    plane = Imap.add pre c snap.plane;
    pre_of = Imap.add c.n_key pre snap.pre_of;
    post_of = Imap.add c.n_post pre snap.post_of;
    names = names_add ?at c.n_name pre snap.names;
    kids = (if c.n_parent < 0 then snap.kids else iset_add c.n_parent pre snap.kids);
  }

let remove_cell at snap (pre, c) =
  let names, died = names_remove ~at c.n_name pre snap.names in
  {
    snap with
    plane = Imap.remove pre snap.plane;
    pre_of = Imap.remove c.n_key snap.pre_of;
    post_of = Imap.remove c.n_post snap.post_of;
    names;
    kids = (if c.n_parent < 0 then snap.kids else iset_remove c.n_parent pre snap.kids);
    gone = (if died then bury at names snap.gone c.n_name else snap.gone);
  }

(* ------------------------------------------------------------------ *)
(* Rank allocation: density-threshold list labelling                   *)
(* ------------------------------------------------------------------ *)

(* How many ranks an aligned range of 2^i may hold after a renumbering:
   (2/T)^i with T = 3/2, the density thresholds of Bender, Cole,
   Demaine, Farach-Colton and Zito ("Two simplified algorithms for
   maintaining order in a list", ESA 2002). Renumbering the smallest
   range within its threshold leaves each half at most 1/T of its own,
   so the ranks a range absorbs before it overflows again pay for its
   renumbering: O(log n) ranks renumbered per insert, amortized, for
   every insertion pattern. *)
let capacity = Array.init 63 (fun i -> Float.to_int (Float.pow (4. /. 3.) (float_of_int i)))

(* Allocate [k] fresh increasing ranks strictly between [lo] and [hi]
   (0 / max_int are the "no neighbour" sentinels; every real rank is
   positive and below max_int). A gap with room takes evenly spaced
   ranks, at most [gap] apart next to a sentinel, so appends at either
   end of a plane cost what the build did. An exhausted gap renumbers
   the smallest aligned range of 2^i ranks around it whose live ranks
   plus the [k] fresh ones are within [capacity.(i)] (at the top level,
   the whole plane whatever its density), spreading them evenly across
   it. Returns the fresh ranks and the (old, new) remapping of
   the renumbered ranks that moved. *)
let alloc keys ~lo ~hi ~k =
  if hi - lo > k then begin
    let step = (hi - lo) / (k + 1) in
    let fresh =
      if lo = 0 && hi < max_int then List.init k (fun j -> hi - ((k - j) * min gap step))
      else if hi = max_int then List.init k (fun j -> lo + ((j + 1) * min gap step))
      else List.init k (fun j -> lo + ((j + 1) * step))
    in
    (fresh, [])
  end
  else begin
    (* Every aligned range around the gap holds [p], the rank after [lo];
       its live ranks below [p] precede the fresh ones, the rest follow. *)
    let p = lo + 1 in
    (* the live ranks of the range of 2^i, or None past [limit] of them *)
    let live i limit =
      let mask = if i >= 62 then max_int else (1 lsl i) - 1 in
      let last = p lor mask in
      let rec go acc n seq =
        if n > limit then None
        else
          match seq () with
          | Seq.Cons ((x, _), rest) when x <= last -> go (x :: acc) (n + 1) rest
          | _ -> Some (p land lnot mask, last, List.rev acc)
      in
      go [] 0 (Imap.to_seq_from (p land lnot mask) keys)
    in
    let rec level i =
      match live i (if i = 62 then max_int else capacity.(i) - k) with
      | Some found -> found
      | None -> level (i + 1)
    in
    let base, last, ranks = level 1 in
    let left, right = List.partition (fun x -> x < p) ranks in
    let a = max base 1 in
    let step = (min last (max_int - 1) - a + 1) / (List.length ranks + k) in
    let pos j = a + (j * step) + (step / 2) in
    let nl = List.length left in
    let moved = List.filter (fun (o, n) -> o <> n) in
    ( List.init k (fun j -> pos (nl + j)),
      moved (List.mapi (fun j x -> (x, pos j)) left)
      @ moved (List.mapi (fun j x -> (x, pos (nl + k + j))) right) )
  end

(* Renumbered pre ranks appear as map keys in [plane] and as set members
   in [names]/[kids]; as values they live in [pre_of]/[post_of], where an
   overwrite suffices. Old and new ranks interleave, so: clear every old
   entry first, then write every new one. *)
let apply_pre_remaps snap remaps =
  if remaps = [] then snap
  else begin
    let items = List.map (fun (o, n) -> (o, n, Imap.find o snap.plane)) remaps in
    let snap =
      List.fold_left
        (fun s (o, _, c) ->
          {
            s with
            plane = Imap.remove o s.plane;
            names = fst (names_remove c.n_name o s.names);
            kids = (if c.n_parent < 0 then s.kids else iset_remove c.n_parent o s.kids);
          })
        snap items
    in
    List.fold_left
      (fun s (_, n, c) ->
        {
          s with
          plane = Imap.add n c s.plane;
          pre_of = Imap.add c.n_key n s.pre_of;
          post_of = Imap.add c.n_post n s.post_of;
          names = names_add c.n_name n s.names;
          kids = (if c.n_parent < 0 then s.kids else iset_add c.n_parent n s.kids);
        })
      snap items
  end

let apply_post_remaps snap remaps =
  if remaps = [] then snap
  else begin
    let items = List.map (fun (o, n) -> (o, n, Imap.find o snap.post_of)) remaps in
    let snap =
      List.fold_left (fun s (o, _, _) -> { s with post_of = Imap.remove o s.post_of }) snap items
    in
    List.fold_left
      (fun s (_, n, pre) ->
        let c = Imap.find pre s.plane in
        {
          s with
          post_of = Imap.add n pre s.post_of;
          plane = Imap.add pre { c with n_post = n } s.plane;
        })
      snap items
  end

(* ------------------------------------------------------------------ *)
(* Initial build                                                       *)
(* ------------------------------------------------------------------ *)

let next_history = Atomic.make 0

let build_snap doc =
  let pre_ctr = ref 0 and post_ctr = ref 0 in
  let cells = ref [] in
  let rec go level parent_id n =
    incr pre_ctr;
    let pre = !pre_ctr * gap in
    List.iter (go (level + 1) n.Tree.id) (Tree.children n);
    incr post_ctr;
    cells :=
      ( pre,
        {
          n_key = n.Tree.id;
          n_post = !post_ctr * gap;
          n_kind = kind_of n.Tree.kind;
          n_parent = parent_id;
          n_level = level;
          n_name = n.Tree.name;
          n_value = n.Tree.value;
        } )
      :: !cells
  in
  go 0 (-1) (Tree.root doc);
  List.fold_left (add_cell ~at:(Tree.revision doc))
    {
      plane = Imap.empty;
      pre_of = Imap.empty;
      post_of = Imap.empty;
      names = Smap.empty;
      kids = Imap.empty;
      s_rev = Tree.revision doc;
      gone = { buried = Smap.empty; count = 0; limit = min_limit; floor = Tree.revision doc };
      history = Atomic.fetch_and_add next_history 1;
    }
    !cells

(* ------------------------------------------------------------------ *)
(* Mutation maintenance                                                *)
(* ------------------------------------------------------------------ *)

(* The document-order predecessor of a freshly attached subtree root: the
   tail of the previous sibling's subtree, else the parent. *)
let rec subtree_tail n = match Tree.last_child n with Some c -> subtree_tail c | None -> n

(* The postorder predecessor of [n]'s subtree: the previous sibling's own
   post rank (the maximum of its subtree), recursing through parents when
   [n] leads its sibling list. 0 when nothing precedes. *)
let rec pred_post snap n =
  match Tree.prev_sibling n with
  | Some s -> (Imap.find (Imap.find s.Tree.id snap.pre_of) snap.plane).n_post
  | None -> (
    match Tree.parent n with Some p -> pred_post snap p | None -> 0)

let succ_key key m =
  match Imap.find_first_opt (fun x -> x > key) m with Some (x, _) -> x | None -> max_int

let on_insert t n =
  let snap = t.snap in
  let sub = n :: Tree.descendants n in
  let k = List.length sub in
  let parent = Option.get (Tree.parent n) in
  let pred_node =
    match Tree.prev_sibling n with Some s -> subtree_tail s | None -> parent
  in
  let pre_lo = Imap.find pred_node.Tree.id snap.pre_of in
  let pre_hi = succ_key pre_lo snap.plane in
  let pres, pre_remaps = alloc snap.plane ~lo:pre_lo ~hi:pre_hi ~k in
  let snap = apply_pre_remaps snap pre_remaps in
  let post_lo = pred_post snap n in
  let post_hi = succ_key post_lo snap.post_of in
  let posts, post_remaps = alloc snap.post_of ~lo:post_lo ~hi:post_hi ~k in
  let snap = apply_post_remaps snap post_remaps in
  (* postorder walk pairs each subtree node with its post rank *)
  let post_of_id = Hashtbl.create 16 in
  let order = ref [] in
  let rec po x =
    List.iter po (Tree.children x);
    order := x.Tree.id :: !order
  in
  po n;
  List.iter2 (fun id post -> Hashtbl.replace post_of_id id post) (List.rev !order) posts;
  let levels = Hashtbl.create 16 in
  let parent_level = (Imap.find (Imap.find parent.Tree.id snap.pre_of) snap.plane).n_level in
  let rec lv l x =
    Hashtbl.replace levels x.Tree.id l;
    List.iter (lv (l + 1)) (Tree.children x)
  in
  lv (parent_level + 1) n;
  let at = Tree.revision t.doc in
  let snap =
    List.fold_left2
      (fun s node pre ->
        add_cell ~at s
          ( pre,
            {
              n_key = node.Tree.id;
              n_post = Hashtbl.find post_of_id node.Tree.id;
              n_kind = kind_of node.Tree.kind;
              n_parent = (Option.get (Tree.parent node)).Tree.id;
              n_level = Hashtbl.find levels node.Tree.id;
              n_name = node.Tree.name;
              n_value = node.Tree.value;
            } ))
      snap sub pres
  in
  t.m_renumbered <- t.m_renumbered + List.length pre_remaps + List.length post_remaps;
  t.snap <- { snap with names = parent_touch at n snap.names; s_rev = at }

let on_delete t n =
  let at = Tree.revision t.doc in
  let snap =
    List.fold_left
      (fun s node ->
        let pre = Imap.find node.Tree.id s.pre_of in
        remove_cell at s (pre, Imap.find pre s.plane))
      { t.snap with names = parent_touch at n t.snap.names }
      (n :: Tree.descendants n)
  in
  t.snap <- { snap with s_rev = at }

let on_rename t n old =
  let snap = t.snap in
  let pre = Imap.find n.Tree.id snap.pre_of in
  let c = Imap.find pre snap.plane in
  let at = Tree.revision t.doc in
  let names, died = names_remove ~at old pre (parent_touch at n snap.names) in
  let names = names_add ~at n.Tree.name pre names in
  t.snap <-
    {
      snap with
      plane = Imap.add pre { c with n_name = n.Tree.name } snap.plane;
      names;
      gone = (if died then bury at names snap.gone old else snap.gone);
      s_rev = at;
    }

let on_value t n =
  let snap = t.snap in
  let pre = Imap.find n.Tree.id snap.pre_of in
  let c = Imap.find pre snap.plane in
  let at = Tree.revision t.doc in
  t.snap <-
    {
      snap with
      plane = Imap.add pre { c with n_value = n.Tree.value } snap.plane;
      names = names_touch at n.Tree.name (parent_touch at n snap.names);
      s_rev = at;
    }

let create ?(clock = fun () -> 0L) doc =
  let t =
    { doc; clock; snap = build_snap doc; obs = -1; m_ops = 0; m_renumbered = 0; m_ns = 0L }
  in
  let timed f =
    let t0 = t.clock () in
    f ();
    t.m_ops <- t.m_ops + 1;
    t.m_ns <- Int64.add t.m_ns (Int64.sub (t.clock ()) t0)
  in
  t.obs <-
    Tree.add_observer doc
      {
        Tree.obs_insert = (fun n -> timed (fun () -> on_insert t n));
        obs_delete = (fun n -> timed (fun () -> on_delete t n));
        obs_rename = (fun n old -> timed (fun () -> on_rename t n old));
        obs_value = (fun n -> timed (fun () -> on_value t n));
      };
  t

let detach t = Tree.remove_observer t.doc t.obs

let snapshot t = t.snap

(* ------------------------------------------------------------------ *)
(* Reading a snapshot                                                  *)
(* ------------------------------------------------------------------ *)

let to_array set =
  let a = Array.make (Iset.cardinal set) 0 and i = ref 0 in
  Iset.iter
    (fun x ->
      a.(!i) <- x;
      incr i)
    set;
  a

(* Every entry is one map lookup; a cell is handed out as it is stored. *)
let source snap : Axis_source.t =
  {
    ranks =
      (fun name ->
        match Smap.find_opt name snap.names with Some e -> to_array e.ranks | None -> [||]);
    more_than =
      (fun name k ->
        match Smap.find_opt name snap.names with
        | Some e -> not (Seq.is_empty (Seq.drop k (Iset.to_seq e.ranks)))
        | None -> false);
    node = (fun pre -> Imap.find pre snap.plane);
    children_of =
      (fun id -> match Imap.find_opt id snap.kids with Some set -> to_array set | None -> [||]);
    rank_of_key = (fun id -> Imap.find id snap.pre_of);
    scan =
      (fun from f ->
        let rec go seq =
          match seq () with Seq.Cons ((pre, c), rest) -> if f pre c then go rest | Seq.Nil -> ()
        in
        go (Imap.to_seq_from from snap.plane));
    history = snap.history;
    revision = snap.s_rev;
    changed_at = changed_at snap;
    kids_changed_at = kids_changed_at snap;
  }

let rows snap = Rank_join.rows (source snap) (Rank_join.of_list (Imap.bindings snap.plane))

(* ------------------------------------------------------------------ *)
(* Verification (--paranoid / the test suite)                          *)
(* ------------------------------------------------------------------ *)

let verify t =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let snap = t.snap in
  let enc = Encoding.of_doc t.doc in
  let dense = Encoding.rows enc in
  let sparse = Imap.bindings snap.plane in
  let nd = List.length dense and ns = List.length sparse in
  if nd <> ns then err "size mismatch: %d rebuilt vs %d incremental" nd ns
  else if snap.s_rev <> Tree.revision t.doc then
    err "stale snapshot: rev %d vs document rev %d" snap.s_rev (Tree.revision t.doc)
  else begin
    (* dense position of each sparse pre rank *)
    let pos = Hashtbl.create ns in
    List.iteri (fun i (pre, _) -> Hashtbl.replace pos pre i) sparse;
    let problem = ref None in
    let check i (d : Encoding.row) (pre, c) =
      let where what = Printf.sprintf "row %d (%s): %s" i c.n_name what in
      let fail what = if !problem = None then problem := Some (where what) in
      if c.n_key <> (Encoding.node_of_row enc d).Tree.id then fail "node id differs";
      if c.n_kind <> d.Encoding.kind then fail "kind differs";
      if c.n_name <> d.Encoding.name then fail "name differs";
      if c.n_value <> d.Encoding.value then fail "value differs";
      if c.n_level <> d.Encoding.level then fail "level differs";
      (match (d.Encoding.parent_pre, c.n_parent) with
      | None, -1 -> ()
      | None, p -> fail (Printf.sprintf "parent %d where rebuilt has none" p)
      | Some _, -1 -> fail "no parent where rebuilt has one"
      | Some dp, p -> (
        match Imap.find_opt p snap.pre_of with
        | None -> fail "parent not in pre_of"
        | Some ppre ->
          if Hashtbl.find_opt pos ppre <> Some dp then fail "parent rank order differs"));
      (match Imap.find_opt c.n_key snap.pre_of with
      | Some p when p = pre -> ()
      | _ -> fail "pre_of out of sync");
      (match Imap.find_opt c.n_post snap.post_of with
      | Some p when p = pre -> ()
      | _ -> fail "post_of out of sync");
      (match Smap.find_opt c.n_name snap.names with
      | Some e when Iset.mem pre e.ranks -> ()
      | _ -> fail "name index out of sync");
      if c.n_parent >= 0 then
        match Imap.find_opt c.n_parent snap.kids with
        | Some set when Iset.mem pre set -> ()
        | _ -> fail "child index out of sync"
    in
    List.iteri (fun i (d, s) -> check i d s) (List.combine dense sparse);
    if !problem = None && Smap.exists (fun _ e -> Iset.is_empty e.ranks) snap.names then
      problem := Some "a name index entry with no nodes";
    (match !problem with
    | Some _ -> ()
    | None ->
      (* post-order isomorphism: sorting positions by sparse post must
         reproduce the rebuilt postorder permutation *)
      let by_sparse_post =
        List.map snd
          (List.sort compare (List.map (fun (pre, c) -> (c.n_post, Hashtbl.find pos pre)) sparse))
      in
      let by_dense_post =
        List.map snd (List.sort compare (List.map (fun (d : Encoding.row) -> (d.Encoding.post, d.Encoding.pre)) dense))
      in
      if by_sparse_post <> by_dense_post then problem := Some "postorder permutation differs");
    match !problem with None -> Ok () | Some msg -> Error msg
  end
