open Encoding

type t = {
  rows : row array;  (* document (pre) order; row i has pre = i *)
  kids : (int, int list) Hashtbl.t;  (* parent pre -> child pres, attributes included *)
  names : (string, row list) Hashtbl.t;
}

(* Pushing the rows back to front leaves every bucket in document order. *)
let build enc =
  let rows = Array.of_list (Encoding.rows enc) in
  Array.iteri (fun i r -> assert (r.pre = i)) rows;
  let kids = Hashtbl.create (Array.length rows) and names = Hashtbl.create 64 in
  let push tbl k v = Hashtbl.replace tbl k (v :: Option.value (Hashtbl.find_opt tbl k) ~default:[]) in
  for i = Array.length rows - 1 downto 0 do
    Option.iter (fun p -> push kids p i) rows.(i).parent_pre;
    push names rows.(i).name rows.(i)
  done;
  { rows; kids; names }

let size t = Array.length t.rows
let row t pre = t.rows.(pre)
let children t pre = Option.value (Hashtbl.find_opt t.kids pre) ~default:[]
let by_name t name = Option.value (Hashtbl.find_opt t.names name) ~default:[]
