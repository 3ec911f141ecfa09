(* The SOAP codec suite: the Store writer against golden wire fixtures,
   a seeded encode/decode battery, a totality sweep over mutated
   envelopes, and the parser's linear scaling in nesting depth.

   The battery and the sweep are re-seedable:

     CODEC_SEED=<n> dune build @codec

   regenerates every case from base seed <n>; a failure message carries
   the base seed and the case, so it replays exactly.

   The battery draws node values from generated documents that are
   parsed, the shape nodes have when they come off the wire or out of a
   database.  It keeps to what XML itself can express: comment text never
   holds "--", PI data never holds "?>" nor starts with whitespace, and
   typed atomics use lexical forms their type round-trips (doubles are
   multiples of 1/8, since the canonical form prints 12 digits). *)

open Xrpc_xml
module Marshal = Xrpc_soap.Marshal
module Message = Xrpc_soap.Message

let base_seed () =
  match Sys.getenv_opt "CODEC_SEED" with
  | Some s -> int_of_string (String.trim s)
  | None -> 2026

let replay base = Printf.sprintf "replay with: CODEC_SEED=%d dune build @codec" base

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let golden () =
  List.map
    (fun (c : Golden_cases.case) ->
      (c, read_file (Filename.concat "golden" (c.name ^ ".xml"))))
    (Golden_cases.cases ())

(* ------------------------------------------------------------------ *)
(* Golden fixtures                                                     *)
(* ------------------------------------------------------------------ *)

let test_golden_encode () =
  List.iter
    (fun (c, wire) ->
      Alcotest.(check string) c.Golden_cases.name wire (Golden_cases.encode c))
    (golden ())

(* decode then re-encode reproduces each fixture, header and profile
   attributes included *)
let test_golden_reencode () =
  List.iter
    (fun ((c : Golden_cases.case), wire) ->
      let msg, trace, profile_flag = Message.of_string_server wire in
      let server_profile = snd (Message.of_string_profiled wire) in
      let again =
        Golden_cases.encode { c with msg; trace; server_profile; profile_flag }
      in
      Alcotest.(check string) c.name wire again)
    (golden ())

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let pick rng a = a.(Random.State.int rng (Array.length a))

let string_of rng alphabet max_len =
  String.init (Random.State.int rng (max_len + 1)) (fun _ -> pick rng alphabet)

let chars s = Array.init (String.length s) (String.get s)
let text_chars = chars "ab <&>\"'\t\nz\195\169"
let plain_chars = chars "abcxyz019 <>&'\""
let name_chars = chars "abcdefxyz"

let escape_text s =
  String.concat ""
    (List.map
       (function '<' -> "&lt;" | '&' -> "&amp;" | '>' -> "&gt;" | c -> String.make 1 c)
       (List.of_seq (String.to_seq s)))

let escape_attr s =
  String.concat ""
    (List.map
       (function
         | '<' -> "&lt;" | '&' -> "&amp;" | '"' -> "&quot;" | '\t' -> "&#9;"
         | '\n' -> "&#10;" | c -> String.make 1 c)
       (List.of_seq (String.to_seq s)))

let prefixes = [| "p"; "q"; "xrpc"; "env"; "xsi" |]

let uris =
  [| "urn:a"; "urn:b"; Qname.ns_env; Qname.ns_xrpc; "http://example.org/?x=1&y=2" |]

(* A random XML document as text: namespace declarations and
   un-declarations, prefixed names, attributes (also xml:lang), text with
   markup characters, character references and CDATA, comments and
   PIs. *)
let gen_document rng =
  let buf = Buffer.create 512 in
  let local () = String.make 1 (pick rng name_chars) ^ string_of rng name_chars 4 in
  let rec element depth declared =
    let decls =
      List.sort_uniq
        (fun (a, _) (b, _) -> compare a b)
        (List.init (Random.State.int rng 3) (fun _ -> (pick rng prefixes, pick rng uris)))
    in
    let default =
      match Random.State.int rng 5 with
      | 0 -> Some (pick rng uris)
      | 1 -> Some ""
      | _ -> None
    in
    let declared =
      List.sort_uniq compare (declared @ List.map fst decls)
    in
    let qname () =
      if declared <> [] && Random.State.bool rng then
        List.nth declared (Random.State.int rng (List.length declared)) ^ ":" ^ local ()
      else local ()
    in
    let name = qname () in
    Buffer.add_string buf ("<" ^ name);
    List.iter
      (fun (p, u) -> Buffer.add_string buf (Printf.sprintf " xmlns:%s=\"%s\"" p (escape_attr u)))
      decls;
    Option.iter
      (fun u -> Buffer.add_string buf (Printf.sprintf " xmlns=\"%s\"" (escape_attr u)))
      default;
    (* attribute locals are numbered, so expanded names never clash *)
    for i = 0 to Random.State.int rng 3 - 1 do
      let aname =
        if declared <> [] && Random.State.bool rng then
          List.nth declared (Random.State.int rng (List.length declared))
          ^ ":a" ^ string_of_int i
        else "a" ^ string_of_int i
      in
      Buffer.add_string buf
        (Printf.sprintf " %s=\"%s\"" aname (escape_attr (string_of rng text_chars 6)))
    done;
    if Random.State.int rng 4 = 0 then Buffer.add_string buf " xml:lang=\"en\"";
    if depth = 0 || Random.State.int rng 4 = 0 then Buffer.add_string buf "/>"
    else (
      Buffer.add_char buf '>';
      let last_text = ref false in
      for _ = 1 to 1 + Random.State.int rng 4 do
        match Random.State.int rng 6 with
        | 0 | 1 -> element (depth - 1) declared; last_text := false
        | 2 when not !last_text ->
            (* one text node: plain run, references or CDATA *)
            (match Random.State.int rng 3 with
            | 0 -> Buffer.add_string buf (escape_text (string_of rng text_chars 8))
            | 1 -> Buffer.add_string buf "x&#233;&#x41;&lt;"
            | _ -> Buffer.add_string buf "<![CDATA[<&>]]>");
            last_text := true
        | 3 ->
            Buffer.add_string buf ("<!--" ^ string_of rng plain_chars 6 ^ "-->");
            last_text := false
        | 4 ->
            Buffer.add_string buf
              ("<?" ^ local () ^ " d" ^ string_of rng plain_chars 6 ^ "?>");
            last_text := false
        | _ -> ()
      done;
      Buffer.add_string buf ("</" ^ name ^ ">"))
  in
  element 4 [];
  Buffer.contents buf

let gen_atomic rng =
  let eighths () = Float.of_int (Random.State.int rng 2_000_001 - 1_000_000) /. 8. in
  let float () =
    match Random.State.int rng 8 with
    | 0 -> Float.nan
    | 1 -> Float.infinity
    | 2 -> Float.neg_infinity
    | 3 -> 1e300
    | _ -> eighths ()
  in
  let date () =
    Printf.sprintf "%04d-%02d-%02d" (1900 + Random.State.int rng 200)
      (1 + Random.State.int rng 12) (1 + Random.State.int rng 28)
  in
  let time () =
    Printf.sprintf "%02d:%02d:%02d" (Random.State.int rng 24) (Random.State.int rng 60)
      (Random.State.int rng 60)
  in
  match Random.State.int rng 13 with
  | 0 -> Xs.String (string_of rng text_chars 12)
  | 1 -> Xs.Boolean (Random.State.bool rng)
  | 2 -> Xs.Integer (Random.State.bits rng - (1 lsl 29))
  | 3 -> Xs.Decimal (eighths ())
  | 4 -> Xs.Double (float ())
  | 5 -> Xs.Float (float ())
  | 6 -> Xs.Untyped (string_of rng text_chars 12)
  | 7 -> Xs.AnyURI ("http://h.example/" ^ string_of rng (chars "ab&<'\"?=") 6)
  | 8 ->
      Xs.QName
        (if Random.State.bool rng then Qname.make ~prefix:"p" "loc" else Qname.make "loc")
  | 9 -> Xs.Date (date ())
  | 10 -> Xs.DateTime (date () ^ "T" ^ time () ^ if Random.State.bool rng then "Z" else "")
  | 11 -> Xs.Time (time ())
  | _ -> Xs.Duration (Printf.sprintf "P%dDT%dH" (Random.State.int rng 30) (Random.State.int rng 24))

(* every node of a store, attributes included *)
let all_nodes (root : Store.node) =
  List.init (Store.node_count root.Store.store) (fun pre -> { root with Store.pre })

let gen_sequence rng docs =
  List.init (Random.State.int rng 5) (fun _ ->
      if Random.State.int rng 3 = 0 then Xdm.Atomic (gen_atomic rng)
      else
        let nodes = pick rng docs in
        Xdm.Node (pick rng nodes))

let gen_docs rng =
  Array.init 3 (fun _ ->
      let tree = Xml_parse.document ~preserve_space:true (gen_document rng) in
      Array.of_list (all_nodes (Store.root (Store.shred tree))))

(* ------------------------------------------------------------------ *)
(* Battery                                                             *)
(* ------------------------------------------------------------------ *)

let show seq =
  String.concat " | "
    (List.map
       (function
         | Xdm.Atomic a -> Printf.sprintf "%s:%S" (Xs.type_name (Xs.type_of a)) (Xs.to_string a)
         | Xdm.Node n -> Printf.sprintf "node:%S" (Xdm.to_display [ Xdm.Node n ]))
       seq)

let check_seqs ~base ~case ~what sent got =
  if List.length sent <> List.length got then
    Alcotest.failf "case %d of base seed %d: %s: %d sequences sent, %d decoded\n%s"
      case base what (List.length sent) (List.length got) (replay base);
  List.iter2
    (fun a b ->
      if not (Xdm.deep_equal a b) then
        Alcotest.failf
          "case %d of base seed %d: %s: decode (encode x) <> x\n\
           sent:    %s\ndecoded: %s\n%s"
          case base what (show a) (show b) (replay base))
    sent got

let battery_case ~base ~case =
  let rng = Random.State.make [| base; case |] in
  let docs = gen_docs rng in
  let results = List.init (Random.State.int rng 4) (fun _ -> gen_sequence rng docs) in
  let resp = Golden_cases.response ~method_:"f" results in
  (match Message.of_string (Message.to_string resp) with
  | Message.Response r -> check_seqs ~base ~case ~what:"response" results r.results
  | _ -> Alcotest.failf "case %d: response decoded as another kind" case);
  let arity = Random.State.int rng 3 in
  let calls =
    List.init (1 + Random.State.int rng 3) (fun _ ->
        List.init arity (fun _ -> gen_sequence rng docs))
  in
  let fragments = Random.State.bool rng in
  let req = Golden_cases.request ~method_:"f" ~arity ~fragments calls in
  match Message.of_string (Message.to_string req) with
  | Message.Request r ->
      if List.length r.calls <> List.length calls then
        Alcotest.failf "case %d of base seed %d: call count\n%s" case base (replay base);
      List.iter2
        (fun sent got ->
          check_seqs ~base ~case
            ~what:(if fragments then "request (fragments)" else "request")
            sent got)
        calls r.calls
  | _ -> Alcotest.failf "case %d: request decoded as another kind" case

let test_battery () =
  let base = base_seed () in
  for case = 0 to 299 do
    battery_case ~base ~case
  done

(* Each Xs type, on its own, survives the round trip. *)
let test_every_type () =
  let base = base_seed () in
  let seq = List.map (fun a -> Xdm.Atomic a) Golden_cases.every_atomic in
  match Message.of_string (Message.to_string (Golden_cases.response ~method_:"f" [ seq ])) with
  | Message.Response { results = [ got ]; _ } ->
      check_seqs ~base ~case:(-1) ~what:"every Xs type" [ seq ] [ got ];
      Alcotest.(check (list string)) "types"
        (List.map (function Xdm.Atomic a -> Xs.type_name (Xs.type_of a) | _ -> "node") seq)
        (List.map (function Xdm.Atomic a -> Xs.type_name (Xs.type_of a) | _ -> "node") got)
  | _ -> Alcotest.fail "shape"

(* ------------------------------------------------------------------ *)
(* Totality                                                            *)
(* ------------------------------------------------------------------ *)

(* A decode yields a value or one of the codec's typed errors; encoding a
   decoded value never fails. *)
let decode_total ~base ~what input =
  match
    let m, _, _ = Message.of_string_server input in
    ignore (Message.of_string_profiled input);
    ignore (Message.to_string m)
  with
  | () -> ()
  | exception
      (Xml_parse.Parse_error _ | Message.Protocol_error _ | Marshal.Marshal_error _)
    ->
      ()
  | exception e ->
      Alcotest.failf "%s escaped %s on input %S\n%s" what (Printexc.to_string e) input
        (replay base)

let test_truncations () =
  let base = base_seed () in
  List.iter
    (fun ((c : Golden_cases.case), wire) ->
      for i = 0 to String.length wire - 1 do
        decode_total ~base
          ~what:(Printf.sprintf "%s truncated at %d" c.name i)
          (String.sub wire 0 i)
      done)
    (golden ())

let test_byte_flips () =
  let base = base_seed () in
  let structural = chars "<>/&;=\"': x#\000\255" in
  List.iteri
    (fun k ((c : Golden_cases.case), wire) ->
      let rng = Random.State.make [| base; 7919; k |] in
      for flip = 0 to 299 do
        let b = Bytes.of_string wire in
        for _ = 0 to Random.State.int rng 3 do
          let pos = Random.State.int rng (Bytes.length b) in
          Bytes.set b pos
            (if Random.State.bool rng then pick rng structural
             else Char.chr (Random.State.int rng 256))
        done;
        decode_total ~base
          ~what:(Printf.sprintf "%s flip set %d" c.name flip)
          (Bytes.to_string b)
      done)
    (golden ())

(* [s] with the first occurrence of [sub] replaced by [by] *)
let replace_first s sub by =
  let n = String.length sub in
  let rec find i =
    if i + n > String.length s then Alcotest.failf "%S not found" sub
    else if String.sub s i n = sub then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)

(* A well-formed envelope whose parameter does not marshal is answered
   with a SOAP fault by the serving peer. *)
let test_marshal_error_faults () =
  let wire = read_file (Filename.concat "golden" "testmod_request.xml") in
  let bad =
    replace_first wire "xsi:type=\"xs:integer\">0<" "xsi:type=\"xs:integer\">zero<"
  in
  let peer = Xrpc_peer.Peer.create "xrpc://p" in
  match Message.of_string (Xrpc_peer.Peer.handle_raw peer bad) with
  | Message.Fault { fault_code = `Sender; reason } ->
      Alcotest.(check bool) reason true
        (String.starts_with ~prefix:"malformed message" reason)
  | _ -> Alcotest.fail "expected a Sender fault"

(* ------------------------------------------------------------------ *)
(* Parser scaling                                                      *)
(* ------------------------------------------------------------------ *)

(* CPU seconds per parse of [xml], over a round of [batch] parses; CPU
   time, so other processes running beside the suite do not count. *)
let parse_seconds ~batch xml =
  Gc.compact ();
  let t0 = Sys.time () in
  for _ = 1 to batch do
    ignore (Sys.opaque_identity (Xml_parse.document xml))
  done;
  (Sys.time () -. t0) /. float_of_int batch

let nested ~open_tag ~close_tag depth =
  let buf = Buffer.create (depth * (String.length open_tag + String.length close_tag)) in
  for _ = 1 to depth do Buffer.add_string buf open_tag done;
  for _ = 1 to depth do Buffer.add_string buf close_tag done;
  Buffer.contents buf

(* Best of seven rounds per depth, the rounds of the two depths
   interleaved so a burst of load on the host hits both.  A round of the
   shallow document parses it 16 times, so each timed round does the same
   work at both depths.  The nursery is sized to hold a whole round: a
   nested document stays live until its last end tag, so past the default
   nursery every element of it is promoted, a constant factor that
   appears once the tree outgrows the nursery and says nothing about how
   the parser scales. *)
let check_linear ~shape ~open_tag ~close_tag () =
  let doc = nested ~open_tag ~close_tag in
  let small = doc 2_000 and large = doc 32_000 in
  let gc = Gc.get () in
  Gc.set { gc with minor_heap_size = 4 lsl 20 };
  let t_small = ref infinity and t_large = ref infinity in
  Fun.protect
    ~finally:(fun () -> Gc.set gc)
    (fun () ->
      for _ = 1 to 7 do
        t_small := Float.min !t_small (parse_seconds ~batch:16 small);
        t_large := Float.min !t_large (parse_seconds ~batch:1 large)
      done);
  if !t_large > 20. *. !t_small then
    Alcotest.failf "%s: depth 32k took %.2f ms, %.1fx depth 2k (%.3f ms); bound 20x"
      shape (!t_large *. 1000.) (!t_large /. !t_small) (!t_small *. 1000.)

let test_depth_no_overflow () =
  (* a ~1.7 MB body, far deeper than the bounds above: a value or a
     typed error *)
  match Xml_parse.document (nested ~open_tag:"<a>" ~close_tag:"</a>" 250_000) with
  | Tree.Document [ _ ] -> ()
  | _ -> Alcotest.fail "shape"
  | exception Xml_parse.Parse_error _ -> ()

let () =
  Alcotest.run "codec"
    [
      ( "golden",
        [
          Alcotest.test_case "writer reproduces fixtures" `Quick test_golden_encode;
          Alcotest.test_case "decode then encode reproduces fixtures" `Quick
            test_golden_reencode;
        ] );
      ( "battery",
        [
          Alcotest.test_case "300 seeded round trips" `Quick test_battery;
          Alcotest.test_case "every Xs type" `Quick test_every_type;
        ] );
      ( "totality",
        [
          Alcotest.test_case "every truncation of every fixture" `Quick test_truncations;
          Alcotest.test_case "seeded byte flips" `Quick test_byte_flips;
          Alcotest.test_case "a parameter that does not marshal faults" `Quick
            test_marshal_error_faults;
        ] );
      ( "scaling",
        [
          Alcotest.test_case "plain nesting is linear" `Quick
            (check_linear ~shape:"plain" ~open_tag:"<a>" ~close_tag:"</a>");
          Alcotest.test_case "xmlns on every element is linear" `Quick
            (check_linear ~shape:"xmlns" ~open_tag:"<p:a xmlns:p=\"urn:p\" xmlns=\"urn:d\">"
               ~close_tag:"</p:a>");
          Alcotest.test_case "deep nesting never overflows" `Quick test_depth_no_overflow;
        ] );
    ]
