(* Tests for the store: labels survive a save/load cycle byte for byte,
   for every scheme, and corruption is detected. *)

open Repro_xml

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

let updated_session pack seed =
  let doc =
    Repro_workload.Docgen.generate ~seed
      { Repro_workload.Docgen.default_shape with target_nodes = 40 }
  in
  let session = Core.Session.make pack doc in
  Repro_workload.Updates.run Repro_workload.Updates.Uniform_random ~seed ~ops:25 session;
  Repro_workload.Updates.run Repro_workload.Updates.Skewed_before_first ~seed:(seed + 1)
    ~ops:10 session;
  session

let flat session =
  List.map
    (fun (n : Tree.node) ->
      (n.name, n.value, Tree.level n, session.Core.Session.label_string n))
    (Tree.preorder session.Core.Session.doc)

let roundtrip_all_schemes =
  QCheck.Test.make ~name:"save/load preserves structure and every label" ~count:8
    (QCheck.int_bound 10_000) (fun seed ->
      List.for_all
        (fun pack ->
          let original = updated_session pack seed in
          let reloaded = Repro_storage.Store.load (Repro_storage.Store.save original) in
          flat original = flat reloaded
          && (reloaded.Core.Session.stats ()).Core.Stats.s_relabelled = 0)
        Repro_schemes.Registry.well_behaved)

let reload_continues_updating () =
  (* A reloaded QED store keeps absorbing updates without relabelling,
     and references recorded before the save still resolve. *)
  let original = updated_session (module Repro_schemes.Qed : Core.Scheme.S) 5 in
  let remembered =
    List.map original.Core.Session.label_string
      (Tree.preorder original.Core.Session.doc)
  in
  let reloaded = Repro_storage.Store.load (Repro_storage.Store.save original) in
  Repro_workload.Updates.run Repro_workload.Updates.Uniform_random ~seed:6 ~ops:30 reloaded;
  let live =
    List.map reloaded.Core.Session.label_string (Tree.preorder reloaded.Core.Session.doc)
  in
  List.iter
    (fun l ->
      check Alcotest.bool (Printf.sprintf "label %s survived" l) true (List.mem l live))
    remembered;
  check Alcotest.int "no relabelling after reload" 0
    (reloaded.Core.Session.stats ()).Core.Stats.s_relabelled;
  check Alcotest.bool "order consistent" true
    (Core.Session.order_consistent ~all_pairs:true reloaded)

let scheme_name_recorded () =
  let session = Core.Session.make (module Repro_schemes.Cdqs : Core.Scheme.S) (Samples.book ()) in
  let data = Repro_storage.Store.save session in
  check Alcotest.string "recorded scheme" "CDQS" (Repro_storage.Store.scheme_of data);
  (* explicit scheme must match *)
  match
    Repro_storage.Store.load ~scheme:(module Repro_schemes.Qed : Core.Scheme.S) data
  with
  | exception Repro_storage.Store.Corrupt _ -> ()
  | _ -> Alcotest.fail "expected a scheme mismatch error"

let corruption_detected () =
  let session = Core.Session.make (module Repro_schemes.Qed : Core.Scheme.S) (Samples.book ()) in
  let data = Repro_storage.Store.save session in
  let expect_corrupt what mutated =
    match Repro_storage.Store.load mutated with
    | exception Repro_storage.Store.Corrupt _ -> ()
    | _ -> Alcotest.fail ("corruption not detected: " ^ what)
  in
  expect_corrupt "flipped byte"
    (String.mapi (fun i c -> if i = String.length data / 2 then Char.chr (Char.code c lxor 0x40) else c) data);
  expect_corrupt "truncation" (String.sub data 0 (String.length data - 7));
  expect_corrupt "bad magic" ("YYYY" ^ String.sub data 4 (String.length data - 4));
  expect_corrupt "empty" ""

let file_roundtrip () =
  let session = updated_session (module Repro_schemes.Ordpath : Core.Scheme.S) 11 in
  let path = Filename.temp_file "xlstore" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Repro_storage.Store.save_file session path;
      let reloaded = Repro_storage.Store.load_file path in
      check Alcotest.bool "file roundtrip" true (flat session = flat reloaded))

let suite =
  [
    ("reload continues updating", `Quick, reload_continues_updating);
    ("scheme name recorded", `Quick, scheme_name_recorded);
    ("corruption detected", `Quick, corruption_detected);
    ("file roundtrip", `Quick, file_roundtrip);
    qcheck roundtrip_all_schemes;
  ]

(* Fuzz the loader: arbitrary byte corruption must surface as [Corrupt]
   (or load successfully if it missed everything that matters) — never as
   any other exception. *)
let loader_never_crashes =
  QCheck.Test.make ~name:"corrupted stores fail cleanly" ~count:300
    (QCheck.triple (QCheck.int_bound 1000) (QCheck.int_bound 10_000) (QCheck.int_bound 255))
    (fun (seed, pos_seed, byte) ->
      let session = updated_session (module Repro_schemes.Qed : Core.Scheme.S) seed in
      let data = Repro_storage.Store.save session in
      let pos = pos_seed mod String.length data in
      let mutated =
        String.mapi (fun i c -> if i = pos then Char.chr byte else c) data
      in
      match Repro_storage.Store.load mutated with
      | _ -> true
      | exception Repro_storage.Store.Corrupt _ -> true
      | exception _ -> false)

(* A case the property above once drew: byte 4 set to 67 makes the node
   count huge, and the checksum probe used to allocate that many nodes
   (Out_of_memory) instead of failing. *)
let huge_node_count_fails_cleanly () =
  let session = updated_session (module Repro_schemes.Qed : Core.Scheme.S) 825 in
  let data = Repro_storage.Store.save session in
  let mutated = String.mapi (fun i c -> if i = 4 then Char.chr 67 else c) data in
  match Repro_storage.Store.load mutated with
  | _ -> Alcotest.fail "a damaged store loaded"
  | exception Repro_storage.Store.Corrupt _ -> ()

(* Truncations at every length must also fail cleanly. *)
let truncations_fail_cleanly =
  QCheck.Test.make ~name:"truncated stores fail cleanly" ~count:200
    (QCheck.int_bound 10_000) (fun cut_seed ->
      let session = Core.Session.make (module Repro_schemes.Ordpath : Core.Scheme.S)
          (Repro_xml.Samples.book ()) in
      let data = Repro_storage.Store.save session in
      let cut = cut_seed mod String.length data in
      match Repro_storage.Store.load (String.sub data 0 cut) with
      | _ -> false (* a strict prefix can never carry a valid checksum *)
      | exception Repro_storage.Store.Corrupt _ -> true
      | exception _ -> false)

(* Corruption diagnostics must name what broke: a wrong checksum says so
   (with both sums), and a truncated store says which section the data ran
   out under — at any cut point. *)
let sections =
  [ "scheme name"; "node count"; "node header"; "node name"; "node value"; "node label" ]

let corruption_messages () =
  let session = updated_session (module Repro_schemes.Qed : Core.Scheme.S) 7 in
  let data = Repro_storage.Store.save session in
  let message what mutated =
    match Repro_storage.Store.load mutated with
    | _ -> Alcotest.failf "%s loaded successfully" what
    | exception Repro_storage.Store.Corrupt msg -> msg
  in
  (* a damaged checksum names the mismatch, not a phantom truncation *)
  let bad_crc =
    String.mapi
      (fun i c -> if i = String.length data - 1 then Char.chr (Char.code c lxor 0xFF) else c)
      data
  in
  let msg = message "bad crc" bad_crc in
  check Alcotest.bool
    (Printf.sprintf "checksum message names the mismatch: %S" msg)
    true
    (String.length msg >= 17 && String.sub msg 0 17 = "checksum mismatch");
  (* short header truncations *)
  let msg = message "cut inside the magic" (String.sub data 0 2) in
  check Alcotest.bool
    (Printf.sprintf "header truncation reported: %S" msg)
    true
    (String.sub msg 0 9 = "truncated");
  (* every deeper cut raises [Corrupt]; most are diagnosed as truncation,
     and each truncation message names a real section *)
  let truncated = ref 0 and named = ref 0 and total = ref 0 in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  for cut = 8 to String.length data - 1 do
    incr total;
    let msg = message (Printf.sprintf "cut at %d" cut) (String.sub data 0 cut) in
    if String.length msg >= 9 && String.sub msg 0 9 = "truncated" then begin
      incr truncated;
      if List.exists (contains msg) sections then incr named
    end
  done;
  check Alcotest.bool "most cuts are diagnosed as truncation" true
    (!truncated * 2 > !total);
  check Alcotest.int "every truncation message names its section" !truncated !named

(* Satellite: the save/load round trip over *every* registered scheme (the
   qcheck above samples only the well-behaved set), with the codec checked
   node by node and document order compared after reload. *)
let roundtrip_every_registered_scheme () =
  List.iter
    (fun pack ->
      let name = Core.Scheme.name pack in
      let original = updated_session pack 13 in
      let reloaded = Repro_storage.Store.load (Repro_storage.Store.save original) in
      check Alcotest.bool
        (name ^ ": structure, values and labels survive the round trip")
        true
        (flat original = flat reloaded);
      check Alcotest.int (name ^ ": no relabelling on load") 0
        (reloaded.Core.Session.stats ()).Core.Stats.s_relabelled;
      List.iter
        (fun (n : Tree.node) ->
          check Alcotest.bool
            (Printf.sprintf "%s: codec round-trips at %s" name n.name)
            true
            (reloaded.Core.Session.codec_roundtrips n))
        (Tree.preorder reloaded.Core.Session.doc))
    Repro_schemes.Registry.all

(* The stored bytes of one fixed 200-node document under every registered
   scheme, pinned by digest: the format (node records, label bytes,
   checksum) cannot drift unnoticed, however [save] gathers them. *)
let save_bytes_pinned () =
  let pins =
    [
      ("XPath Accelerator", "91a517783f44dff7444c8178a8852442");
      ("XRel", "406795951d9cc27c9361384cedd9d732");
      ("Sector", "5ee0936270423804a3770bc67abccdac");
      ("QRS", "89dbe6e93d542d1530147fba28a62654");
      ("DeweyID", "da2a33b5359e28d6514533f648e377c5");
      ("ORDPATH", "a564ce6603bc4ec1e20c1d0975ac6d2e");
      ("DLN", "ac94b15db7cb2c00555198a00bc3d008");
      ("LSDX", "40f4d64b8dc8208291c4912fb418c772");
      ("ImprovedBinary", "cd515d22f2a76269943d7b7118ef6d0d");
      ("QED", "36a29666e1750ddb02d51eddaff05d55");
      ("CDQS", "4bc79b002c19b21b9f4ad104c698cbd9");
      ("Vector", "c274b30ad3a03751d475a1eba47e889d");
      ("Pre/Post", "7082477f155c1e0e6ace34f8a26c552c");
      ("Interval+gaps", "e8f1735974557f759016a094d537b732");
      ("CDBS", "346dd43c5514a5f9464e5efdb2146970");
      ("Com-D", "c2022a428f1fef561c764562c84d42e4");
      ("Prime", "7d0c7fdcbbe9d409c6f40643b0ad955a");
      ("DDE", "e944c531ed99cbadbce115932e375026");
      ("V-Prefix", "89cd1a4ccac892639799719ba233ed8f");
      ("QED-Containment", "7c8b3d9e47e7973b7154a72d0fae5617");
      ("Dietz-OM", "6d28bc0621a833ecffca4db9c67d3c63");
    ]
  in
  check Alcotest.(list string) "every registered scheme pinned"
    (List.map Core.Scheme.name Repro_schemes.Registry.all)
    (List.map fst pins);
  List.iter
    (fun pack ->
      let doc =
        Repro_workload.Docgen.generate ~seed:11
          { Repro_workload.Docgen.default_shape with target_nodes = 200 }
      in
      check Alcotest.int "the document's size" 200 (Tree.size doc);
      let name = Core.Scheme.name pack in
      check Alcotest.string (name ^ " store bytes") (List.assoc name pins)
        (Digest.to_hex (Digest.string (Repro_storage.Store.save (Core.Session.make pack doc)))))
    Repro_schemes.Registry.all

(* The snapshot is its body followed by the little-endian CRC-32 of that
   body, computed in place over the one copy [save] makes. *)
let save_is_body_then_crc () =
  let session = updated_session (module Repro_schemes.Qed : Core.Scheme.S) 13 in
  let data = Repro_storage.Store.save session in
  let body = String.sub data 0 (String.length data - 4) in
  let tail = Bytes.create 4 in
  Bytes.set_int32_le tail 0 (Repro_codes.Crc32.string body);
  check Alcotest.string "body ^ crc32(body)" (body ^ Bytes.to_string tail) data

let suite =
  suite
  @ [
      ("save is the body then its CRC-32", `Quick, save_is_body_then_crc);
      ("corruption messages name the failure", `Quick, corruption_messages);
      ("round trip over every registered scheme", `Quick, roundtrip_every_registered_scheme);
      ("store bytes pinned for every registered scheme", `Quick, save_bytes_pinned);
      qcheck loader_never_crashes;
      ("a huge node count fails cleanly", `Quick, huge_node_count_fails_cleanly);
      qcheck truncations_fail_cleanly;
    ]
