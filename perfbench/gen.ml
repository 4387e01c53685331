(* Workload definitions and the seeded request generator.

   One generator per client produces the next request from its own PRNG
   and label pools, and learns from each reply. The measured run sends the
   requests over the wire; the traced replay hands the same requests to
   the layers directly. Both therefore drive exactly the same stream for a
   given seed, and the server only ever sees the generated requests.

   The op mixes are the load generator's ({!Repro_server.Loadgen}): a
   correct server answers every request without a protocol error, so any
   failed request is the server's fault, not the workload's. *)

open Repro_codes
module P = Repro_server.Protocol
module Oplog = Repro_journal.Oplog
module Tree = Repro_xml.Tree

type mix =
  | Classic  (** loadgen's classic mix: writes, label reads, checkpoints *)
  | Read_heavy of int  (** that percentage of steps are served XPath/twig queries *)
  | Writes_only of int  (** mutations only; every n-th step is the migrate drill *)

type doc_spec = { ds_name : string; ds_scheme : string; ds_nodes : int; ds_seed : int }

type workload = {
  w_name : string;
  w_docs : doc_spec array;
  w_clients : int;
  w_doc_of_client : int -> int;
  w_mix : mix;
  w_round_steps : int;  (** requests per client in one measured round *)
  w_fresh_docs : bool;  (** each round opens fresh copies of the corpus *)
}

(* Document seeds are part of each workload's fixed corpus; the run seed
   drives the request stream. Every run re-checks the opened sizes against
   [ds_nodes] (the size guard in Measured), so a generator change that
   shrank one of these documents fails the run instead of silently
   benchmarking a smaller input. *)
let workloads =
  [
    {
      w_name = "mixed-small";
      w_docs =
        [|
          { ds_name = "ms-0"; ds_scheme = "QED"; ds_nodes = 500; ds_seed = 3 };
          { ds_name = "ms-1"; ds_scheme = "ORDPATH"; ds_nodes = 500; ds_seed = 4 };
        |];
      w_clients = 2;
      w_doc_of_client = (fun i -> i);
      w_mix = Classic;
      w_round_steps = 2000;
      w_fresh_docs = true;
    };
    {
      w_name = "read-large";
      w_docs = [| { ds_name = "rl-0"; ds_scheme = "QED"; ds_nodes = 20_000; ds_seed = 5 } |];
      w_clients = 2;
      w_doc_of_client = (fun _ -> 0);
      w_mix = Read_heavy 95;
      w_round_steps = 150;
      w_fresh_docs = false;
    };
    {
      w_name = "write-large";
      w_docs =
        [|
          { ds_name = "wl-0"; ds_scheme = "QED"; ds_nodes = 20_000; ds_seed = 6 };
          { ds_name = "wl-1"; ds_scheme = "Vector"; ds_nodes = 20_000; ds_seed = 7 };
        |];
      w_clients = 2;
      w_doc_of_client = (fun i -> i);
      w_mix = Writes_only 100;
      w_round_steps = 500;
      w_fresh_docs = false;
    };
  ]

let find_workload name = List.find_opt (fun w -> w.w_name = name) workloads

(* A run is a sequence of rounds of [w_round_steps] requests per client.
   Under the classic mix a document grows by about a third of the
   requests sent to it, so a 500-node document would be tens of
   thousands of nodes by the end of a window; fresh copies per round keep
   every round on the document size the workload states. *)
let doc_name w (ds : doc_spec) ~round =
  if w.w_fresh_docs then Printf.sprintf "%s-r%d" ds.ds_name round else ds.ds_name

(* ---- request classes ------------------------------------------------ *)

type group = Update | Read | Other

let group_of_class = function
  | "insert" | "delete" | "rename" | "set-value" | "migrate" -> Update
  | "query" | "stats" | "labels" | "xpath" | "twig" -> Read
  | _ -> Other (* checkpoint, and the label-pool reseed *)

let xpath_queries =
  [|
    "//item";
    "//section//field";
    "//entry[field]";
    "//group/@*";
    "/*/*";
    "//record[2]";
    "//item/following-sibling::*";
    "//list[count(item) > 0]";
  |]

let twig_queries = [| "item[field]"; "section[//field]"; "entry[field][//meta]" |]

(* ---- label pools ----------------------------------------------------

   anchors: labels of nodes never deleted (the root plus half the
   inserts); victims: the other half, childless, each deleted at most
   once; extras: labels from a Labels refresh, used only by label
   predicates, which decode whether or not the node is alive. *)

type pool = { mutable items : P.label array; mutable len : int }

let pool_create () = { items = Array.make 64 { P.l_bytes = ""; l_bits = 0 }; len = 0 }

let pool_add p l =
  if p.len = Array.length p.items then begin
    let bigger = Array.make (2 * p.len) l in
    Array.blit p.items 0 bigger 0 p.len;
    p.items <- bigger
  end;
  p.items.(p.len) <- l;
  p.len <- p.len + 1

let pool_pick rng p = p.items.(Prng.int rng p.len)

let pool_take rng p =
  let i = Prng.int rng p.len in
  let l = p.items.(i) in
  p.items.(i) <- p.items.(p.len - 1);
  p.len <- p.len - 1;
  l

(* ---- the generator -------------------------------------------------- *)

(* What the reply to the request in flight should teach the generator. *)
type expect =
  | Plain
  | Fresh_anchor_or_victim  (** an insert: pool its fresh label *)
  | Drill_insert  (** the migrate drill's insert: wrap its fresh label next *)
  | Refresh_extras  (** a Labels read: refill the predicate pool *)
  | Reseed  (** a one-label Labels read: restart the pools from the root *)

type t = {
  rng : Prng.t;
  mix : mix;
  doc : string;
  id : int;
  anchors : pool;
  victims : pool;
  extras : pool;
  mutable counter : int;
  mutable stepno : int;
  mutable wrap_next : P.label option;
  mutable reseed_next : bool;
}

let create w ~seed ~client ~round ~root =
  let ds = w.w_docs.(w.w_doc_of_client client) in
  let g =
    {
      rng = Prng.create ((seed * 7919) + (1_000_003 * (client + 1)) + (104_729 * round));
      mix = w.w_mix;
      doc = doc_name w ds ~round;
      id = client;
      anchors = pool_create ();
      victims = pool_create ();
      extras = pool_create ();
      counter = 0;
      stepno = 0;
      wrap_next = None;
      reseed_next = false;
    }
  in
  pool_add g.anchors root;
  g

let fresh_name g pfx =
  g.counter <- g.counter + 1;
  Printf.sprintf "%s%d_%d" pfx g.id g.counter

let update g op = P.Update { u_doc = g.doc; u_client = ""; u_seq = 0; u_ops = [ op ] }

let insert g =
  let rng = g.rng in
  let payload = Tree.elt (fresh_name g "u") [] in
  let op =
    match Prng.int rng 4 with
    | 0 -> Oplog.Insert_first (pool_pick rng g.anchors, payload)
    | 1 -> Oplog.Insert_last (pool_pick rng g.anchors, payload)
    | (2 | _) as k ->
      if g.anchors.len < 2 then Oplog.Insert_last (g.anchors.items.(0), payload)
      else
        (* never a sibling of the root: index 0 is the root *)
        let anchor = g.anchors.items.(1 + Prng.int rng (g.anchors.len - 1)) in
        if k = 2 then Oplog.Insert_before (anchor, payload)
        else Oplog.Insert_after (anchor, payload)
  in
  (update g op, "insert", Fresh_anchor_or_victim)

let delete_or_insert g =
  if g.victims.len = 0 then insert g
  else (update g (Oplog.Delete (pool_take g.rng g.victims)), "delete", Plain)

let rename g =
  (update g (Oplog.Rename (pool_pick g.rng g.anchors, fresh_name g "r")), "rename", Plain)

let set_value g =
  let v = if Prng.bool g.rng then Some (fresh_name g "v") else None in
  (update g (Oplog.Replace_value (pool_pick g.rng g.anchors, v)), "set-value", Plain)

let mutate g =
  let r = Prng.int g.rng 100 in
  if r < 60 then insert g
  else if r < 75 then delete_or_insert g
  else if r < 90 then rename g
  else set_value g

let served_query g =
  if Prng.int g.rng 4 = 0 then
    let q = twig_queries.(Prng.int g.rng (Array.length twig_queries)) in
    (P.Twig { tq_doc = g.doc; tq_src = q; tq_limit = 32 }, "twig", Plain)
  else
    let q = xpath_queries.(Prng.int g.rng (Array.length xpath_queries)) in
    (P.Xpath { xq_doc = g.doc; xq_src = q; xq_limit = 32 }, "xpath", Plain)

let classic g =
  let rng = g.rng in
  let r = Prng.int rng 100 in
  if r < 46 then insert g
  else if r < 56 then delete_or_insert g
  else if r < 64 then rename g
  else if r < 72 then set_value g
  else if r < 87 then begin
    let pick () =
      if g.extras.len > 0 && Prng.bool rng then pool_pick rng g.extras
      else pool_pick rng g.anchors
    in
    let a = pick () in
    let pred =
      match Prng.int rng 5 with
      | 0 -> P.Order (a, pick ())
      | 1 -> P.Ancestor (a, pick ())
      | 2 -> P.Parent (a, pick ())
      | 3 -> P.Sibling (a, pick ())
      | _ -> P.Level a
    in
    (P.Query { q_doc = g.doc; q_pred = pred }, "query", Plain)
  end
  else if r < 93 then (P.Stats g.doc, "stats", Plain)
  else if r < 97 then (P.Labels { lb_doc = g.doc; lb_limit = 200 }, "labels", Refresh_extras)
  else (P.Checkpoint g.doc, "checkpoint", Plain)

(* The next request, its class and what its reply should teach us. *)
let next g =
  if g.reseed_next then begin
    g.reseed_next <- false;
    (P.Labels { lb_doc = g.doc; lb_limit = 1 }, "reseed", Reseed)
  end
  else
    match g.wrap_next with
    | Some l ->
      (* the drill wraps a node inserted for that purpose alone, so the
         only label the rewrite invalidates is one nothing else holds *)
      g.wrap_next <- None;
      ( P.Migrate
          {
            mg_doc = g.doc;
            mg_client = "";
            mg_seq = 0;
            mg_specs = [ Repro_migrate.Migrate.S_wrap ([ l ], fresh_name g "w") ];
          },
        "migrate",
        Plain )
    | None -> (
      g.stepno <- g.stepno + 1;
      match g.mix with
      | Classic -> classic g
      | Read_heavy pct -> if Prng.int g.rng 100 < pct then served_query g else mutate g
      | Writes_only every ->
        if g.stepno mod every = 1 then
          ( update g
              (Oplog.Insert_last (g.anchors.items.(0), Tree.elt (fresh_name g "m") [])),
            "insert",
            Drill_insert )
        else mutate g)

(* Steps taken so far, and whether the last step still owes a follow-up
   request (the drill's wrap, a pool reseed): a round ends on a step
   boundary with nothing owed, so every round holds the same steps. *)
let steps g = g.stepno
let owes g = g.wrap_next <> None || g.reseed_next

(* Learn from a successful reply. A reply flagged [up_relabelled] means the
   scheme renumbered the document: every pooled label is stale, so the
   pools restart from the root's current label. *)
let observe g expect (resp : P.resp) =
  (match resp with
  | P.Updated { up_relabelled = true; _ } -> g.reseed_next <- true
  | _ -> ());
  match (expect, resp) with
  | Fresh_anchor_or_victim, P.Updated { up_fresh = [ l ]; up_relabelled = false; _ } ->
    if Prng.bool g.rng then pool_add g.anchors l else pool_add g.victims l
  | Drill_insert, P.Updated { up_fresh = [ l ]; up_relabelled = false; _ } ->
    g.wrap_next <- Some l
  | Refresh_extras, P.Labels_r entries ->
    g.extras.len <- 0;
    List.iter (fun (l, _, _) -> pool_add g.extras l) entries
  | Reseed, P.Labels_r ((l, _, _) :: _) ->
    g.anchors.len <- 0;
    g.victims.len <- 0;
    g.extras.len <- 0;
    pool_add g.anchors l
  | _ -> ()
