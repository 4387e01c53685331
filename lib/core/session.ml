(** A type-erased labelled document.

    [make] pairs a scheme with a document and hides the scheme's label type
    behind closures, so the evaluation framework, the workload runner and
    the CLI can treat all eighteen schemes uniformly.

    Two mechanisms keep the measurement hot path off the update path's
    back (DESIGN.md §10):

    {ul
    {- {b Incremental bit statistics.} Each session installs a
       {!Stats.label_observer} on its scheme's {!Table.t}, so every fresh,
       changed or removed label updates a running node count, bit total
       and bit-width histogram. {!total_bits}, {!max_bits}, {!avg_bits}
       and {!node_count} are O(1) reads; {!verify_tracked} (and the
       {!paranoid} mode) cross-check them against a full recomputation.}
    {- {b A generation-stamped label cache.} [lab n] memoizes
       [(node id, generation) → label] — and the label's rendered string
       and encoded form — where the generation is the document's
       {!Tree.revision}, bumped on any mutation. Caches are per-session,
       and sessions are per-task under the parallel runtime, so the
       domain-pool byte-identity guarantee of the evaluation runtime is
       untouched.}} *)

open Repro_xml

(** Running per-session label-storage statistics, maintained incrementally
    from the table's label events. [tr_hist.(w)] counts live labels of
    exactly [w] storage bits; [tr_max] is the highest occupied bucket (0
    when the histogram is empty). *)
type tracked = {
  mutable tr_nodes : int;
  mutable tr_bits : int;
  mutable tr_max : int;
  mutable tr_hist : int array;
}

let tracked_create () = { tr_nodes = 0; tr_bits = 0; tr_max = 0; tr_hist = Array.make 64 0 }

let tracked_add tr w =
  if w >= Array.length tr.tr_hist then begin
    let grown = Array.make (max (2 * Array.length tr.tr_hist) (w + 1)) 0 in
    Array.blit tr.tr_hist 0 grown 0 (Array.length tr.tr_hist);
    tr.tr_hist <- grown
  end;
  tr.tr_hist.(w) <- tr.tr_hist.(w) + 1;
  tr.tr_nodes <- tr.tr_nodes + 1;
  tr.tr_bits <- tr.tr_bits + w;
  if w > tr.tr_max then tr.tr_max <- w

let tracked_remove tr w =
  tr.tr_hist.(w) <- tr.tr_hist.(w) - 1;
  tr.tr_nodes <- tr.tr_nodes - 1;
  tr.tr_bits <- tr.tr_bits - w;
  (* Only a removal at the top can lower the max: scan down to the next
     occupied bucket (amortised by the insertions that raised it). *)
  if w = tr.tr_max && tr.tr_hist.(w) = 0 then begin
    let m = ref w in
    while !m > 0 && tr.tr_hist.(!m) = 0 do
      decr m
    done;
    tr.tr_max <- !m
  end

type t = {
  scheme_name : string;
  info : Info.t;
  doc : Tree.doc;
  label_string : Tree.node -> string;
  label_bits : Tree.node -> int;
  label_encoded : Tree.node -> string * int;
      (** the label's concrete binary form: bytes and significant bits *)
  label_encoded_direct : Tree.node -> string * int;
      (** [label_encoded] read straight from the scheme, filling no memo:
          for one-pass walks (the journal's label resolver) whose entries
          the next mutation would throw away *)
  codec_roundtrips : Tree.node -> bool;
      (** decode (encode label) = label — checked by the test suite *)
  order : Tree.node -> Tree.node -> int;
  is_ancestor : (Tree.node -> Tree.node -> bool) option;
  is_parent : (Tree.node -> Tree.node -> bool) option;
  is_sibling : (Tree.node -> Tree.node -> bool) option;
  level_of : (Tree.node -> int) option;
  insert_first : Tree.node -> Tree.frag -> Tree.node;
  insert_last : Tree.node -> Tree.frag -> Tree.node;
  insert_before : Tree.node -> Tree.frag -> Tree.node;
  insert_after : Tree.node -> Tree.frag -> Tree.node;
  delete : Tree.node -> unit;
  set_value : Tree.node -> string option -> unit;
  rename : Tree.node -> string -> unit;
  stats : unit -> Stats.snapshot;
  generation : unit -> int;
      (** the document revision the label cache is stamped with *)
  tracked : tracked;  (** incremental bit statistics — read via the accessors below *)
  recount : unit -> tracked;
      (** full recomputation of {!tracked} by a preorder walk, bypassing
          every cache — the {!paranoid} cross-check's reference *)
  order_check : all_pairs:bool -> bool;
}

(** When true, every statistics read re-derives the incremental counters
    from a full preorder recomputation and fails loudly on divergence
    (set by [--paranoid] on the CLI). *)
let paranoid = ref false

let build (module S : Scheme.S) doc ~stored =
  let state =
    match stored with None -> S.create doc | Some f -> S.restore doc f
  in
  (* Generation-stamped memo: all three tables hold values computed at
     document revision [memo_gen] and are dumped wholesale on the first
     access after any mutation. Label reads between mutations — the assay
     loops, [order_check], duplicate detection, persistence snapshots —
     therefore hit each node's label, rendered string and encoded form at
     most once per generation. *)
  let memo_gen = ref (Tree.revision doc) in
  let memo_label : (int, S.label) Hashtbl.t = Hashtbl.create 512 in
  let memo_string : (int, string) Hashtbl.t = Hashtbl.create 512 in
  let memo_encoded : (int, string * int) Hashtbl.t = Hashtbl.create 512 in
  let refresh_memo () =
    let g = Tree.revision doc in
    if g <> !memo_gen then begin
      Hashtbl.reset memo_label;
      Hashtbl.reset memo_string;
      Hashtbl.reset memo_encoded;
      memo_gen := g
    end
  in
  let lab (n : Tree.node) =
    refresh_memo ();
    match Hashtbl.find_opt memo_label n.id with
    | Some l -> l
    | None ->
      let l = S.label state n in
      Hashtbl.add memo_label n.id l;
      l
  in
  let memoized cache compute (n : Tree.node) =
    refresh_memo ();
    match Hashtbl.find_opt cache n.id with
    | Some v -> v
    | None ->
      let v = compute (lab n) in
      Hashtbl.add cache n.id v;
      v
  in
  let via f = Option.map (fun g a b -> g (lab a) (lab b)) f in
  (* Incremental bit statistics: seeded by one walk over the freshly
     labelled document, then maintained by the table's label events. *)
  let tracked = tracked_create () in
  Stats.set_label_observer (S.stats state)
    {
      Stats.on_fresh = (fun w -> tracked_add tracked w);
      on_change =
        (fun ow nw ->
          tracked_remove tracked ow;
          tracked_add tracked nw);
      on_remove = (fun w -> tracked_remove tracked w);
    };
  Tree.iter_preorder (fun n -> tracked_add tracked (S.storage_bits (lab n))) doc;
  let recount () =
    let tr = tracked_create () in
    Tree.iter_preorder
      (fun n -> tracked_add tr (S.storage_bits (S.label state n)))
      doc;
    tr
  in
  (* Document order against label order without per-pair table lookups:
     materialise the labels once, compare array cells. *)
  let order_check ~all_pairs =
    let n = Tree.size doc in
    let labs =
      let arr = Array.make n (lab (Tree.root doc)) in
      let i = ref 0 in
      Tree.iter_preorder
        (fun nd ->
          arr.(!i) <- lab nd;
          incr i)
        doc;
      arr
    in
    try
      if all_pairs then
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            let got = S.compare_order labs.(i) labs.(j) in
            if compare got 0 <> compare (compare i j) 0 then raise Exit
          done
        done
      else
        for i = 0 to n - 2 do
          if S.compare_order labs.(i) labs.(i + 1) >= 0 then raise Exit
        done;
      true
    with Exit -> false
  in
  let settle node =
    (* Fresh nodes are labelled parents-first, left-to-right. *)
    Stats.record_insert (S.stats state);
    S.after_insert state node;
    Tree.iter_descendants
      (fun d ->
        Stats.record_insert (S.stats state);
        S.after_insert state d)
      node
  in
  {
    scheme_name = S.name;
    info = S.info;
    doc;
    label_string = memoized memo_string S.label_to_string;
    label_bits = (fun n -> S.storage_bits (lab n));
    label_encoded = memoized memo_encoded S.encode_label;
    label_encoded_direct = (fun n -> S.encode_label (S.label state n));
    codec_roundtrips =
      (fun n ->
        let l = lab n in
        let bytes, bits = S.encode_label l in
        S.equal_label l (S.decode_label bytes bits));
    order = (fun a b -> S.compare_order (lab a) (lab b));
    is_ancestor = via S.is_ancestor;
    is_parent = via S.is_parent;
    is_sibling = via S.is_sibling;
    level_of = Option.map (fun g n -> g (lab n)) S.level_of;
    insert_first =
      (fun parent f ->
        let n = Tree.insert_first_child doc parent f in
        settle n;
        n);
    insert_last =
      (fun parent f ->
        let n = Tree.insert_last_child doc parent f in
        settle n;
        n);
    insert_before =
      (fun anchor f ->
        let n = Tree.insert_before doc anchor f in
        settle n;
        n);
    insert_after =
      (fun anchor f ->
        let n = Tree.insert_after doc anchor f in
        settle n;
        n);
    delete =
      (fun n ->
        Stats.record_delete (S.stats state);
        S.before_delete state n;
        Tree.delete doc n);
    (* Content updates (§3.1) never touch labels, but routing them through
       the session lets wrappers — the durable journal above all — observe
       every mutating call in one place. *)
    set_value = (fun n v -> Tree.set_value doc n v);
    rename = (fun n name -> Tree.rename doc n name);
    stats = (fun () -> Stats.snapshot (S.stats state));
    generation = (fun () -> Tree.revision doc);
    tracked;
    recount;
    order_check;
  }

let make pack doc = build pack doc ~stored:None

(** Rebind a scheme to a document with previously persisted labels: every
    node's label comes from [stored] (bytes, significant bits) through the
    scheme's codec, not from fresh assignment. *)
let restore pack doc stored = build pack doc ~stored:(Some stored)

(** [(node id, label text)] for every live node; the persistence assay
    diffs two of these across an update. *)
let labels_snapshot t =
  List.rev
    (Tree.fold_preorder
       (fun acc (n : Tree.node) -> (n.id, t.label_string n) :: acc)
       [] t.doc)

(** Checks that label order matches document order for every adjacent pair
    (and, optionally, all pairs) of the current document. *)
let order_consistent ?(all_pairs = false) t = t.order_check ~all_pairs

(** True when any two live nodes carry the same label text. *)
let has_duplicate_labels t =
  let seen = Hashtbl.create 256 in
  try
    Tree.iter_preorder
      (fun n ->
        let l = t.label_string n in
        if Hashtbl.mem seen l then raise Exit else Hashtbl.replace seen l ())
      t.doc;
    false
  with Exit -> true

let node_count t = t.tracked.tr_nodes

(** Compares the incrementally tracked statistics against a full
    recomputation; [Error] describes the first divergence. *)
let verify_tracked t =
  let want = t.recount () in
  let got = t.tracked in
  if got.tr_nodes <> want.tr_nodes then
    Error
      (Printf.sprintf "node count: tracked %d, recomputed %d" got.tr_nodes want.tr_nodes)
  else if got.tr_bits <> want.tr_bits then
    Error (Printf.sprintf "total bits: tracked %d, recomputed %d" got.tr_bits want.tr_bits)
  else if got.tr_max <> want.tr_max then
    Error (Printf.sprintf "max bits: tracked %d, recomputed %d" got.tr_max want.tr_max)
  else begin
    let width = max (Array.length got.tr_hist) (Array.length want.tr_hist) in
    let at (tr : tracked) w = if w < Array.length tr.tr_hist then tr.tr_hist.(w) else 0 in
    let rec scan w =
      if w >= width then Ok ()
      else if at got w <> at want w then
        Error
          (Printf.sprintf "histogram at %d bits: tracked %d, recomputed %d" w (at got w)
             (at want w))
      else scan (w + 1)
    in
    scan 0
  end

let check_paranoid t =
  if !paranoid then
    match verify_tracked t with
    | Ok () -> ()
    | Error msg ->
      invalid_arg
        (Printf.sprintf "Session (%s): incremental statistics diverged: %s" t.scheme_name
           msg)

let total_bits t =
  check_paranoid t;
  t.tracked.tr_bits

let max_bits t =
  check_paranoid t;
  t.tracked.tr_max

let avg_bits t =
  check_paranoid t;
  if t.tracked.tr_nodes = 0 then 0.0
  else float_of_int t.tracked.tr_bits /. float_of_int t.tracked.tr_nodes

(** The live bit-width histogram as [(width, count)] pairs, sparsest
    first — the hot-path benchmark reports it alongside the aggregates. *)
let bits_histogram t =
  let acc = ref [] in
  for w = Array.length t.tracked.tr_hist - 1 downto 0 do
    if t.tracked.tr_hist.(w) > 0 then acc := (w, t.tracked.tr_hist.(w)) :: !acc
  done;
  !acc
