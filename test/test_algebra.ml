(* Property tests on the positional-code algebras: the lexicographic (or
   gradient) betweenness invariants every dynamic scheme's correctness
   rests on. For each algebra we drive a randomized insertion torture: a
   growing ordered sequence of codes where each step inserts before the
   first, after the last, or between a random adjacent pair, and the
   sequence must stay strictly ordered and duplicate-free. *)

let qcheck = QCheck_alcotest.to_alcotest

(* One torture step list: each element is (position selector in [0,1],
   kind selector in [0,2]). *)
let arb_ops =
  QCheck.(list_of_size (Gen.int_range 1 120) (pair (map (fun i -> float_of_int i /. 1000.0) (int_bound 1000)) (int_bound 2)))

(* Runs the torture for a code algebra given via first-class functions.
   Returns true when ordering and uniqueness hold throughout. *)
let torture ~initial ~before ~after ~between ~compare ~to_string ops =
  ignore to_string;
  let codes = ref (Array.to_list (initial 3)) in
  let ordered l =
    let rec go = function
      | a :: (b :: _ as rest) -> compare a b < 0 && go rest
      | _ -> true
    in
    go l
  in
  List.for_all
    (fun (posf, kind) ->
      let l = !codes in
      let n = List.length l in
      let insert_at i c =
        let rec go j = function
          | [] -> [ c ]
          | x :: rest -> if j = i then c :: x :: rest else x :: go (j + 1) rest
        in
        go 0 l
      in
      (match kind with
      | 0 -> codes := insert_at 0 (before (List.hd l))
      | 1 ->
        let last = List.nth l (n - 1) in
        codes := l @ [ after last ]
      | _ ->
        if n < 2 then codes := l @ [ after (List.nth l (n - 1)) ]
        else begin
          let i = 1 + int_of_float (posf *. float_of_int (n - 2)) in
          let a = List.nth l (i - 1) and b = List.nth l i in
          codes := insert_at i (between a b)
        end);
      ordered !codes)
    ops

let make_torture name ~initial ~before ~after ~between ~compare ~to_string =
  QCheck.Test.make ~name ~count:200 arb_ops (fun ops ->
      torture ~initial ~before ~after ~between ~compare ~to_string ops)

let binary_torture =
  let module C = Repro_schemes.Improved_binary.Code in
  make_torture "ImprovedBinary codes stay ordered and unique under any insertion mix"
    ~initial:C.initial ~before:C.before ~after:C.after ~between:C.between ~compare:C.compare
    ~to_string:C.to_string

let cdbs_torture =
  let module C = Repro_schemes.Cdbs.Code in
  make_torture "CDBS codes stay ordered and unique under any insertion mix" ~initial:C.initial
    ~before:C.before ~after:C.after ~between:C.between ~compare:C.compare ~to_string:C.to_string

let qed_torture =
  let module C = Repro_schemes.Qed.Code in
  make_torture "QED codes stay ordered and unique under any insertion mix" ~initial:C.initial
    ~before:C.before ~after:C.after ~between:C.between ~compare:C.compare ~to_string:C.to_string

let vector_torture =
  let module C = Repro_schemes.Vector_code in
  make_torture "Vector codes stay gradient-ordered under any insertion mix" ~initial:C.initial
    ~before:C.before ~after:C.after ~between:C.between ~compare:C.compare ~to_string:C.to_string

let ordpath_torture =
  let module C = Repro_schemes.Ordpath.Code in
  make_torture "ORDPATH codes stay ordered and unique under any insertion mix"
    ~initial:C.initial ~before:C.before ~after:C.after ~between:C.between ~compare:C.compare
    ~to_string:C.to_string

let dln_torture =
  let module C = Repro_schemes.Dln.Code in
  make_torture "DLN codes stay ordered and unique under any insertion mix" ~initial:C.initial
    ~before:C.before ~after:C.after ~between:C.between ~compare:C.compare ~to_string:C.to_string

(* Dewey's algebra is intentionally partial (Needs_relabel); only the
   append edge is total. *)
let dewey_append =
  QCheck.Test.make ~name:"Dewey appends stay ordered; other insertions demand relabelling"
    ~count:100 (QCheck.int_range 1 50) (fun n ->
      let module C = Repro_schemes.Dewey.Code in
      let codes = C.initial n in
      let appended = C.after codes.(n - 1) in
      appended > codes.(n - 1)
      && (match C.before codes.(0) with
         | exception Repro_schemes.Code_sig.Needs_relabel -> true
         | _ -> false)
      &&
      match C.between 1 2 with
      | exception Repro_schemes.Code_sig.Needs_relabel -> true
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Pointwise invariants                                                *)
(* ------------------------------------------------------------------ *)

let quat_codes_end_in_23 =
  QCheck.Test.make ~name:"QED codes always end in 2 or 3" ~count:200 arb_ops (fun ops ->
      let module C = Repro_schemes.Qed.Code in
      let codes = ref (Array.to_list (C.initial 3)) in
      List.iter
        (fun (_, kind) ->
          let l = !codes in
          match kind with
          | 0 -> codes := C.before (List.hd l) :: l
          | 1 -> codes := l @ [ C.after (List.nth l (List.length l - 1)) ]
          | _ -> (
            match l with
            | a :: b :: _ -> codes := a :: C.between a b :: List.tl l
            | _ -> ()))
        ops;
      List.for_all
        (fun c ->
          match Repro_codes.Quat.last c with 2 | 3 -> true | _ -> false)
        !codes)

let binary_codes_end_in_one =
  QCheck.Test.make ~name:"ImprovedBinary codes always end in 1" ~count:200 arb_ops (fun ops ->
      let module C = Repro_schemes.Improved_binary.Code in
      let codes = ref (Array.to_list (C.initial 5)) in
      List.iter
        (fun (_, kind) ->
          let l = !codes in
          match kind with
          | 0 -> codes := C.before (List.hd l) :: l
          | 1 -> codes := l @ [ C.after (List.nth l (List.length l - 1)) ]
          | _ -> (
            match l with
            | a :: b :: _ -> codes := a :: C.between a b :: List.tl l
            | _ -> ()))
        ops;
      List.for_all (fun c -> Repro_codes.Bitstr.last c) !codes)

let ordpath_initial_odd =
  QCheck.Test.make ~name:"ORDPATH initial codes are the positive odds" ~count:50
    (QCheck.int_range 1 100) (fun n ->
      let module C = Repro_schemes.Ordpath.Code in
      let codes = C.initial n in
      Array.to_list codes = List.init n (fun i -> [ (2 * i) + 1 ]))

let vector_mediant_between =
  QCheck.Test.make ~name:"the mediant lies strictly between its parents" ~count:500
    QCheck.(pair (pair (int_range 1 1000) (int_range 0 1000)) (pair (int_range 0 1000) (int_range 1 1000)))
    (fun ((x1, y1), (x2, y2)) ->
      let module C = Repro_schemes.Vector_code in
      (* order the two fractions by gradient first *)
      let a : C.t = { x = x1; y = y1 } and b : C.t = { x = x2; y = y2 } in
      let a, b = if C.compare a b <= 0 then (a, b) else (b, a) in
      C.compare a b >= 0
      ||
      let m = C.between a b in
      C.compare a m < 0 && C.compare m b < 0)

let improved_binary_matches_paper_n3 () =
  let module C = Repro_schemes.Improved_binary.Code in
  let codes = Array.map Repro_codes.Bitstr.to_string (C.initial 3) in
  Alcotest.(check (array string)) "paper's three-sibling codes" [| "01"; "0101"; "011" |] codes

let qed_initial_ordered =
  QCheck.Test.make ~name:"QED initial assignment is strictly ordered" ~count:100
    (QCheck.int_range 1 60) (fun n ->
      let module C = Repro_schemes.Qed.Code in
      let codes = C.initial n in
      let ok = ref true in
      for i = 0 to n - 2 do
        if C.compare codes.(i) codes.(i + 1) >= 0 then ok := false
      done;
      !ok)

let all_initials_ordered =
  QCheck.Test.make ~name:"every algebra's initial assignment is strictly ordered" ~count:60
    (QCheck.int_range 1 80) (fun n ->
      let check_mod (type a) (compare : a -> a -> int) (codes : a array) =
        let ok = ref true in
        for i = 0 to Array.length codes - 2 do
          if compare codes.(i) codes.(i + 1) >= 0 then ok := false
        done;
        !ok
      in
      check_mod Repro_schemes.Dewey.Code.compare (Repro_schemes.Dewey.Code.initial n)
      && check_mod Repro_schemes.Ordpath.Code.compare (Repro_schemes.Ordpath.Code.initial n)
      && check_mod Repro_schemes.Dln.Code.compare (Repro_schemes.Dln.Code.initial n)
      && check_mod Repro_schemes.Lsdx.Code.compare (Repro_schemes.Lsdx.Code.initial n)
      && check_mod Repro_schemes.Improved_binary.Code.compare
           (Repro_schemes.Improved_binary.Code.initial n)
      && check_mod Repro_schemes.Cdbs.Code.compare (Repro_schemes.Cdbs.Code.initial n)
      && check_mod Repro_schemes.Qed.Code.compare (Repro_schemes.Qed.Code.initial n)
      && check_mod Repro_schemes.Vector_code.compare (Repro_schemes.Vector_code.initial n))

(* [Binary_ops.between] against the per-bit construction it replaced: for
   [r = l·s] it appended [s]'s leading zeros to [l] one [snoc] at a time,
   then [01]. Seeded random ordered pairs, plus [r = l·0^j·1] for every j
   up to 64 (the run the skewed insert-after workload grows by one per
   operation); every code produced lies strictly between its bounds. *)
let between_matches_snoc_reference () =
  let module B = Repro_codes.Bitstr in
  let reference l r =
    if B.compare l r >= 0 then invalid_arg "not ordered";
    if not (B.is_prefix l r) then B.concat l (B.of_string "1")
    else begin
      let buf = ref l and i = ref (B.length l) in
      while !i < B.length r && not (B.get r !i) do
        buf := B.snoc !buf false;
        incr i
      done;
      if !i >= B.length r then invalid_arg "all-zero suffix";
      B.concat !buf (B.of_string "01")
    end
  in
  let attempt f = try Some (f ()) with Invalid_argument _ -> None in
  let agree l r =
    let got = attempt (fun () -> Repro_schemes.Binary_ops.between l r) in
    let want = attempt (fun () -> reference l r) in
    let show = function None -> "refused" | Some c -> B.to_string c in
    let where = Printf.sprintf "between %s %s" (B.to_string l) (B.to_string r) in
    Alcotest.(check string) where (show want) (show got);
    match got with
    | Some m ->
      Alcotest.(check bool) (where ^ " lies strictly inside") true
        (B.compare l m < 0 && B.compare m r < 0)
    | None -> ()
  in
  let rng = Repro_codes.Prng.create 2024 in
  let random_code max_len =
    B.of_string
      (String.init (Repro_codes.Prng.int rng (max_len + 1)) (fun _ ->
           if Repro_codes.Prng.bool rng then '1' else '0'))
  in
  for _ = 1 to 2000 do
    let a = random_code 12 in
    (* half the pairs share [a] as a prefix, the case with a zero run *)
    let b = if Repro_codes.Prng.bool rng then B.concat a (random_code 8) else random_code 12 in
    match B.compare a b with
    | 0 -> ()
    | c when c < 0 -> agree a b
    | _ -> agree b a
  done;
  for j = 0 to 64 do
    let l = random_code 10 in
    agree l (B.concat_list [ l; B.zeroes j; B.of_string "1" ])
  done

let suite =
  [
    ("ImprovedBinary initial matches Figure 6", `Quick, improved_binary_matches_paper_n3);
    ("Binary_ops.between matches the per-bit reference", `Quick,
     between_matches_snoc_reference);
    qcheck binary_torture;
    qcheck cdbs_torture;
    qcheck qed_torture;
    qcheck vector_torture;
    qcheck ordpath_torture;
    qcheck dln_torture;
    qcheck dewey_append;
    qcheck quat_codes_end_in_23;
    qcheck binary_codes_end_in_one;
    qcheck ordpath_initial_odd;
    qcheck vector_mediant_between;
    qcheck qed_initial_ordered;
    qcheck all_initials_ordered;
  ]
