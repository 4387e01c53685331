(* Helpers shared by the suites that run servers over temporary roots. *)

(* A path under the temp directory, unique per process and call. *)
let fresh_path =
  let n = ref 0 in
  fun prefix ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-test-%d-%d" prefix (Unix.getpid ()) !n)

(* Remove a flat directory, ignoring whatever is already gone. *)
let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Sys.rmdir dir with Sys_error _ -> ()
  end

(* How many nodes of [doc] the server names [name]. *)
let count_name c ~doc name =
  match Repro_server.Server_client.labels c ~doc ~limit:10_000 with
  | Ok (Repro_server.Protocol.Labels_r l) ->
    List.length (List.filter (fun (_, _, nm) -> nm = name) l)
  | _ -> Alcotest.fail "labels failed"

(* A server (fsync_every 1) over a fresh root, stopped and its root
   removed once [f] returns. *)
let with_server prefix f =
  let module Server = Repro_server.Server in
  let root = fresh_path prefix in
  let t = Server.start { (Server.default_config ~root) with fsync_every = 1 } in
  Fun.protect
    ~finally:(fun () ->
      ignore (Server.stop t);
      rm_rf root)
    (fun () -> f t)

(* A session's nodes in document order, with their labels: equal for two
   sessions that hold the same labelled document. *)
let flat (session : Core.Session.t) =
  List.map
    (fun (n : Repro_xml.Tree.node) ->
      (n.name, n.value, Repro_xml.Tree.level n, session.Core.Session.label_string n))
    (Repro_xml.Tree.preorder session.Core.Session.doc)
