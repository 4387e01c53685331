(* Mutex-guarded counters shared by every connection thread. Cells are
   tiny and updates are O(1); the lock is held for nanoseconds, which is
   fine at the request rates a single OCaml domain serves. *)

type cell = {
  mutable c_count : int;
  mutable c_errors : int;
  mutable c_total_ns : int;
  mutable c_max_ns : int;
}

type t = { mu : Mutex.t; cells : (string, cell) Hashtbl.t }

let create () = { mu = Mutex.create (); cells = Hashtbl.create 64 }

let monotonic_ns () = Monotonic_clock.now ()

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let record t ~key ~ok ~ns =
  locked t (fun () ->
      let c =
        match Hashtbl.find_opt t.cells key with
        | Some c -> c
        | None ->
          let c = { c_count = 0; c_errors = 0; c_total_ns = 0; c_max_ns = 0 } in
          Hashtbl.add t.cells key c;
          c
      in
      c.c_count <- c.c_count + 1;
      if not ok then c.c_errors <- c.c_errors + 1;
      c.c_total_ns <- c.c_total_ns + ns;
      if ns > c.c_max_ns then c.c_max_ns <- ns)

(* A gauge is a sampled value, not an accumulating counter: the cell is
   replaced wholesale, so [m_total_ns] carries the latest sample and
   [m_max_ns] the high-water mark. Used for the group-commit instruments
   (batch-size percentiles, parked depth, loop utilisation) and for
   echoing effective config values. *)
let gauge t ~key ~value =
  locked t (fun () ->
      match Hashtbl.find_opt t.cells key with
      | Some c ->
        c.c_count <- 1;
        c.c_errors <- 0;
        c.c_total_ns <- value;
        if value > c.c_max_ns then c.c_max_ns <- value
      | None ->
        Hashtbl.add t.cells key
          { c_count = 1; c_errors = 0; c_total_ns = value; c_max_ns = value })

let snapshot t =
  locked t (fun () ->
      Hashtbl.fold
        (fun key c acc ->
          {
            Protocol.m_key = key;
            m_count = c.c_count;
            m_errors = c.c_errors;
            m_total_ns = c.c_total_ns;
            m_max_ns = c.c_max_ns;
          }
          :: acc)
        t.cells [])
  |> List.sort (fun a b -> String.compare a.Protocol.m_key b.Protocol.m_key)
