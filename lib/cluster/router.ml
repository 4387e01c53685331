open Repro_io
module P = Repro_server.Protocol
module Client = Repro_server.Server_client

type t = {
  rt_path : string;
  rt_timeout : float;
  rt_retries : int;
  rt_backoff : float;
  rt_backoff_cap : float;
  rt_rng : Random.State.t;
  mutable rt_topo : Topology.t;
  rt_conns : (int, Client.t) Hashtbl.t;
  mutable rt_reroutes : int;
}

let create ?(timeout = 10.) ?(retries = 40) ?(backoff = 0.05) ?(backoff_cap = 0.5) path =
  {
    rt_path = path;
    rt_timeout = timeout;
    rt_retries = retries;
    rt_backoff = backoff;
    rt_backoff_cap = max backoff backoff_cap;
    rt_rng = Random.State.make [| Hashtbl.hash path; 0x726f7574 |];
    rt_topo = Topology.load path;
    rt_conns = Hashtbl.create 8;
    rt_reroutes = 0;
  }

let topology t = t.rt_topo
let reroutes t = t.rt_reroutes

let drop t shard =
  match Hashtbl.find_opt t.rt_conns shard with
  | None -> ()
  | Some c ->
    Client.close c;
    Hashtbl.remove t.rt_conns shard

let close t =
  Hashtbl.iter (fun _ c -> Client.close c) t.rt_conns;
  Hashtbl.reset t.rt_conns

let reload t =
  match Topology.load t.rt_path with
  | topo ->
    if topo.Topology.version <> t.rt_topo.Topology.version then begin
      (* the cluster moved under us — every cached connection is suspect *)
      close t;
      t.rt_topo <- topo
    end
  | exception Topology.Bad_topology _ -> ()

let conn_for t shard =
  match Hashtbl.find_opt t.rt_conns shard with
  | Some c -> c
  | None ->
    let n = t.rt_topo.Topology.shards.(shard).Topology.s_primary in
    let c =
      Client.connect ~timeout:t.rt_timeout ~host:n.Topology.n_host
        ~port:n.Topology.n_port ()
    in
    Hashtbl.replace t.rt_conns shard c;
    c

let request t ~doc req =
  let rec attempt n last =
    if n > t.rt_retries then Error last
    else begin
      (* re-resolve per attempt: a reload may have moved the primary *)
      let shard = Topology.shard_of t.rt_topo doc in
      (* capped exponential with full jitter: early bounces re-probe fast
         (the primary may just be restarting), a real failover is waited
         out near the cap without the routers re-arriving in lockstep *)
      let backoff () =
        if t.rt_backoff > 0. then
          Thread.delay
            (Client.backoff_delay ~base:t.rt_backoff ~cap:t.rt_backoff_cap t.rt_rng n)
      in
      let again reason =
        drop t shard;
        reload t;
        t.rt_reroutes <- t.rt_reroutes + 1;
        backoff ();
        attempt (n + 1) reason
      in
      match conn_for t shard with
      | exception Io.Io_error { reason; _ } -> again ("connect: " ^ reason)
      | c -> (
        match Client.request c req with
        | Ok (P.Err (P.Not_primary, m)) -> again ("not primary: " ^ m)
        | Ok (P.Err (P.Shutting_down, m)) -> again ("shutting down: " ^ m)
        | Ok (P.Err (P.Overloaded, m)) when n < t.rt_retries ->
          (* the shard applied nothing — same primary, just busy: back off
             and re-ask without tearing the connection down *)
          backoff ();
          attempt (n + 1) ("overloaded: " ^ m)
        | Ok resp -> Ok resp
        | Error reason -> again reason)
    end
  in
  attempt 0 "no attempt made"
