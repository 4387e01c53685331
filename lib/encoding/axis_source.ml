open Encoding

type node = {
  n_post : int;
  n_kind : kind;
  n_level : int;
  n_key : int;
  n_parent : int;
  n_name : string;
  n_value : string option;
}

type t = {
  ranks : string -> int array;
  more_than : string -> int -> bool;
  node : int -> node;
  children_of : int -> int array;
  rank_of_key : int -> int;
  scan : int -> (int -> node -> bool) -> unit;
  history : int;
  revision : int;
  changed_at : string -> int;
  kids_changed_at : string -> int;
}

type stamp = Name of string | Kids of string

(* The dense index keys nodes by their pre rank, which is also their
   position in its row array. It is rebuilt per revision and keeps no
   change history, so every stamp reads as changed after any answer. *)
let of_index idx =
  let node pre =
    let r = Axis_index.row idx pre in
    { n_post = r.post; n_kind = r.kind; n_level = r.level; n_key = pre;
      n_parent = Option.value r.parent_pre ~default:(-1); n_name = r.name; n_value = r.value }
  in
  {
    ranks = (fun name -> Array.of_list (List.map (fun r -> r.pre) (Axis_index.by_name idx name)));
    more_than = (fun name k -> List.compare_length_with (Axis_index.by_name idx name) k > 0);
    node;
    children_of = (fun pre -> Array.of_list (Axis_index.children idx pre));
    rank_of_key = Fun.id;
    scan =
      (fun from f ->
        let rec go pre = pre < Axis_index.size idx && f pre (node pre) && go (pre + 1) in
        ignore (go (max 0 from)));
    history = -1;
    revision = 0;
    changed_at = (fun _ -> max_int);
    kids_changed_at = (fun _ -> max_int);
  }

let stamped_at src = function Name n -> src.changed_at n | Kids n -> src.kids_changed_at n

let holds src ~history ~rev signature =
  history >= 0 && src.history = history && src.revision >= rev
  && (src.revision = rev
     || match signature with
        | Some stamps -> List.for_all (fun s -> stamped_at src s <= rev) stamps
        | None -> false)

let root src =
  let first = ref None in
  src.scan min_int (fun pre n ->
      first := Some (pre, n);
      false);
  Option.get !first
