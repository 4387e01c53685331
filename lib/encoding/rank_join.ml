type t = { pre : int array; node : Axis_source.node array }

let empty = { pre = [||]; node = [||] }
let length s = Array.length s.pre
let is_empty s = length s = 0
let post s i = s.node.(i).Axis_source.n_post
let level s i = s.node.(i).Axis_source.n_level

(* Queries run back to back over large streams, so each constructor
   allocates exact-size arrays and hands an input back as it stands when
   nothing is dropped. *)

(* The entries whose byte in [keep] is set. *)
let select s keep =
  let n = ref 0 in
  Bytes.iter (fun c -> if c <> '\000' then incr n) keep;
  if !n = length s then s
  else if !n = 0 then empty
  else begin
    let pick a =
      let out = Array.make !n a.(0) and k = ref 0 in
      Bytes.iteri
        (fun i c ->
          if c <> '\000' then begin
            out.(!k) <- a.(i);
            incr k
          end)
        keep;
      out
    in
    { pre = pick s.pre; node = pick s.node }
  end

let mask n = Bytes.make n '\000'
let set keep i = Bytes.set keep i '\001'
let is_set keep i = Bytes.get keep i <> '\000'

let filter p s =
  let keep = mask (length s) in
  Array.iteri (fun i pre -> if p pre s.node.(i) then set keep i) s.pre;
  select s keep

(* The ranks array itself becomes the stream's when every rank is kept. *)
let of_ranks ?(kind = Encoding.Element) ?(test = fun _ -> true) (src : Axis_source.t) ranks =
  let node = Array.map src.node ranks in
  let keep = mask (Array.length ranks) in
  Array.iteri (fun i (n : Axis_source.node) -> if n.n_kind = kind && test n then set keep i) node;
  select { pre = ranks; node } keep

let of_list entries =
  let es = Array.of_list (List.sort_uniq (fun (a, _) (b, _) -> Int.compare a b) entries) in
  { pre = Array.map fst es; node = Array.map snd es }

(* Consecutive answers are often siblings: the last parent's rank is
   remembered. *)
let rows ?limit (src : Axis_source.t) s =
  let count = match limit with Some l -> max 0 (min l (length s)) | None -> length s in
  let last = ref (-1, None) in
  let parent_rank key =
    if key = -1 then None
    else begin
      if fst !last <> key then last := (key, Some (src.rank_of_key key));
      snd !last
    end
  in
  List.init count (fun i ->
      let n = s.node.(i) in
      {
        Encoding.pre = s.pre.(i);
        post = n.n_post;
        kind = n.n_kind;
        parent_pre = parent_rank n.n_parent;
        level = n.n_level;
        name = n.n_name;
        value = n.n_value;
      })

(* The one stack join every operation below is an instance of. For each
   entry [j] of [s] in document order, [visit j stack depth] sees the
   entries of [ctx] that properly contain it, as indices into [ctx],
   outermost first: [stack.(depth - 1)] is the innermost. An entry of
   [ctx] is pushed once the cursor passes its pre rank and popped once
   the cursor passes its post rank, so the stack is always one nested
   chain (as deep as the document at most) and every entry is pushed and
   popped once. *)
let walk ~ctx s visit =
  let stack = ref (Array.make 32 0) in
  let depth = ref 0 and i = ref 0 in
  let pop_outside p =
    while !depth > 0 && post ctx !stack.(!depth - 1) < p do decr depth done
  in
  for j = 0 to length s - 1 do
    while !i < length ctx && ctx.pre.(!i) < s.pre.(j) do
      pop_outside (post ctx !i);
      if !depth = Array.length !stack then stack := Array.append !stack (Array.make !depth 0);
      !stack.(!depth) <- !i;
      incr depth;
      incr i
    done;
    pop_outside (post s j);
    visit j !stack !depth
  done

(* The innermost open ancestor is the parent iff it is one level up. *)
let parent_in ~ctx s j stack depth =
  if depth > 0 && level ctx stack.(depth - 1) = level s j - 1 then stack.(depth - 1) else -1

let descendants ~ctx s =
  let keep = mask (length s) in
  walk ~ctx s (fun j _ depth -> if depth > 0 then set keep j);
  select s keep

let children ~ctx s =
  let keep = mask (length s) in
  walk ~ctx s (fun j stack depth -> if parent_in ~ctx s j stack depth >= 0 then set keep j);
  select s keep

(* Marking an ancestor chain stops at the first entry already marked:
   everything below it on the stack was marked in the same visit. *)
let having_descendant s d =
  let keep = mask (length s) in
  walk ~ctx:s d (fun _ stack depth ->
      let k = ref (depth - 1) in
      while !k >= 0 && not (is_set keep stack.(!k)) do
        set keep stack.(!k);
        decr k
      done);
  select s keep

let having_child s d =
  let keep = mask (length s) in
  walk ~ctx:s d (fun j stack depth ->
      let p = parent_in ~ctx:s d j stack depth in
      if p >= 0 then set keep p);
  select s keep
