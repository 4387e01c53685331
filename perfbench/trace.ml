(* In-memory span recorder for the traced replay.

   A span wraps one call into a layer's public function: name, start, end,
   parent span and request id. A layer's self time is its span minus the
   spans of its children. Per-layer totals are folded in as spans close, so
   memory stays bounded however long the replay runs; the spans of the
   first [keep] requests are also kept verbatim and written out when the
   run ends.

   Probe spans time a call the server makes {e inside} another layer's
   call — [Oplog.encode_record] inside [Journal.append], [Xpath.parse]
   inside [Query_eval.serve] — repeated once more from outside so that its
   cost can be reported on its own. They are excluded from a request's
   layer sum, which would otherwise count that work twice. *)

type acc = { mutable count : int; mutable self_ns : int; mutable incl_ns : int }

type frame = {
  f_id : int;
  f_parent : int;
  f_name : string;
  f_start : int;
  f_probe : bool;
  mutable f_child_ns : int;
}

type span = { s_req : int; s_id : int; s_parent : int; s_name : string; s_start : int; s_end : int }

type t = {
  enabled : bool;
  keep : int;
  acc : (string, acc) Hashtbl.t;
  mutable stack : frame list;
  mutable next_id : int;
  mutable req : int;
  mutable req_ns : int;  (** layer sum of the request in flight *)
  mutable kept : span list;
}

let create ~enabled ~keep =
  { enabled; keep; acc = Hashtbl.create 64; stack = []; next_id = 0; req = -1; req_ns = 0; kept = [] }

let acc_of t name =
  match Hashtbl.find_opt t.acc name with
  | Some a -> a
  | None ->
    let a = { count = 0; self_ns = 0; incl_ns = 0 } in
    Hashtbl.add t.acc name a;
    a

let begin_request t =
  t.req <- t.req + 1;
  t.req_ns <- 0

(* The request's layer sum: every counted span's self time, i.e. the
   top-level spans' durations less any probe nested inside them. *)
let end_request t = t.req_ns

let close t fr stop =
  let dur = stop - fr.f_start in
  let a = acc_of t fr.f_name in
  a.count <- a.count + 1;
  a.self_ns <- a.self_ns + (dur - fr.f_child_ns);
  a.incl_ns <- a.incl_ns + dur;
  (match t.stack with
  | parent :: _ -> parent.f_child_ns <- parent.f_child_ns + dur
  | [] -> ());
  if fr.f_probe then begin
    if t.stack <> [] then t.req_ns <- t.req_ns - dur
  end
  else if t.stack = [] then t.req_ns <- t.req_ns + dur;
  if t.req < t.keep then
    t.kept <-
      {
        s_req = t.req;
        s_id = fr.f_id;
        s_parent = fr.f_parent;
        s_name = fr.f_name;
        s_start = fr.f_start;
        s_end = stop;
      }
      :: t.kept

let run t ~probe name f =
  if not t.enabled then f ()
  else begin
    let parent = match t.stack with p :: _ -> p.f_id | [] -> -1 in
    let fr =
      {
        f_id = t.next_id;
        f_parent = parent;
        f_name = name;
        f_start = Stat.now_ns ();
        f_probe = probe;
        f_child_ns = 0;
      }
    in
    t.next_id <- t.next_id + 1;
    t.stack <- fr :: t.stack;
    let finish () =
      let stop = Stat.now_ns () in
      t.stack <- List.tl t.stack;
      close t fr stop
    in
    match f () with
    | r ->
      finish ();
      r
    | exception e ->
      finish ();
      raise e
  end

let span t name f = run t ~probe:false name f
let probe t name f = run t ~probe:true name f

(* Charge [ns] measured by a layer's own clock inside the open span to
   [name]: it counts as that layer's self time, not the enclosing span's. *)
let attribute t name ns =
  if t.enabled then begin
    let a = acc_of t name in
    a.count <- a.count + 1;
    a.self_ns <- a.self_ns + ns;
    a.incl_ns <- a.incl_ns + ns;
    match t.stack with p :: _ -> p.f_child_ns <- p.f_child_ns + ns | [] -> ()
  end

let count t name = match Hashtbl.find_opt t.acc name with Some a -> a.count | None -> 0
let self_ns t name = match Hashtbl.find_opt t.acc name with Some a -> a.self_ns | None -> 0
let incl_ns t name = match Hashtbl.find_opt t.acc name with Some a -> a.incl_ns | None -> 0

let write_spans t path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"req\": %d, \"id\": %d, \"parent\": %d, \"name\": %S, \"start_ns\": %d, \"end_ns\": %d}\n"
        s.s_req s.s_id s.s_parent s.s_name s.s_start s.s_end)
    (List.rev t.kept)
