(* Seeded path battery: the engine's path evaluation (Eval, and Looplift
   where it covers the query) against a naive evaluator written straight
   from the XPath definitions — each axis computed per context node from
   the parent relation alone, predicates applied one after another with
   positions in axis order, then the union of the per-node results in
   document order.

   The generated documents nest elements of the same name and mix
   attributes: [n] holds numeric lexical forms, [s] strings that are
   mostly not numbers, [id] unique identifiers.  The generated paths use
   [//], child, descendant, attribute, parent, ancestor and
   preceding-sibling steps with positional predicates ([k], [last()],
   [position() > k]) and comparisons with [@name] on either side against
   string, numeric and multi-item operands — the shapes the engine
   rewrites ([//T[p]] as one descendant scan, comparisons hoisted out of
   the candidate loop) next to those it must leave alone ([//T[1]]).
   Comparing a non-numeric [s] with a number raises a cast error; the
   error class is compared too.  Every twentieth case puts an [error()]
   operand on the last step, over candidates or over none (which must
   return the empty sequence).

   600 cases run in @runtest and @paths.  Replay from another base seed:

     PATH_SEED=<n> dune build @paths --force

   A failure prints the base seed, the case index, the query and the
   document. *)

open Xrpc_xml
module Eval = Xrpc_xquery.Eval
module Context = Xrpc_xquery.Context
module Parser = Xrpc_xquery.Parser
module Looplift = Xrpc_algebra.Looplift

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

type axis =
  | Child
  | Descendant
  | Dslash  (** [//T]: descendant-or-self::node()/child::T *)
  | Attribute
  | Parent
  | Ancestor
  | Preceding_sibling

type test = Name of string | Star | Any_node | Text

type operand =
  | Str of string
  | Int of int
  | Dec of float
  | Items of operand list
  | Fail  (** [error()] *)

type op = Eq | Ne | Lt | Le | Gt | Ge

type pred =
  | Pos of int
  | Last
  | Pos_gt of int
  | Cmp of string * op * operand * bool  (** attribute, op, operand, attribute on the left *)
  | Has of string
  | Not of pred
  | And of pred * pred

type step = { axis : axis; test : test; preds : pred list }

let op_text = function
  | Eq -> "=" | Ne -> "!=" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="

let rec operand_text = function
  | Str s -> Printf.sprintf "%S" s
  | Int i -> string_of_int i
  | Dec f -> Printf.sprintf "%.1f" f
  | Items xs -> "(" ^ String.concat ", " (List.map operand_text xs) ^ ")"
  | Fail -> "error()"

let rec pred_text = function
  | Pos k -> string_of_int k
  | Last -> "last()"
  | Pos_gt k -> Printf.sprintf "position() > %d" k
  | Cmp (a, op, x, true) -> Printf.sprintf "@%s %s %s" a (op_text op) (operand_text x)
  | Cmp (a, op, x, false) -> Printf.sprintf "%s %s @%s" (operand_text x) (op_text op) a
  | Has a -> "@" ^ a
  | Not p -> Printf.sprintf "not(%s)" (pred_text p)
  | And (p, q) -> Printf.sprintf "%s and %s" (pred_text p) (pred_text q)

let test_text = function
  | Name n -> n
  | Star -> "*"
  | Any_node -> "node()"
  | Text -> "text()"

let step_text { axis; test; preds } =
  let t = test_text test in
  let head =
    match axis with
    | Child -> "/" ^ t
    | Descendant -> "/descendant::" ^ t
    | Dslash -> "//" ^ t
    | Attribute -> "/@" ^ t
    | Parent -> "/.."
    | Ancestor -> "/ancestor::" ^ t
    | Preceding_sibling -> "/preceding-sibling::" ^ t
  in
  head ^ String.concat "" (List.map (fun p -> "[" ^ pred_text p ^ "]") preds)

let query_text steps =
  {|doc("d.xml")|} ^ String.concat "" (List.map step_text steps)

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let pick rng l = List.nth l (Random.State.int rng (List.length l))
let chance rng pct = Random.State.int rng 100 < pct

let gen_document rng =
  let buf = Buffer.create 512 in
  let next_id = ref 0 in
  let rec element depth =
    let name = pick rng [ "a"; "b"; "c" ] in
    Printf.bprintf buf "<%s" name;
    incr next_id;
    if chance rng 70 then Printf.bprintf buf " id=\"i%d\"" !next_id;
    if chance rng 60 then
      Printf.bprintf buf " n=\"%s\"" (pick rng [ "1"; "01"; "2.0"; "3"; "-1"; "10" ]);
    if chance rng 50 then
      Printf.bprintf buf " s=\"%s\"" (pick rng [ "x"; "y"; "01"; "xy"; "" ]);
    Buffer.add_char buf '>';
    let kids =
      if depth >= 4 then 0
      else if depth < 2 then 2 + Random.State.int rng 3
      else Random.State.int rng 4
    in
    for _ = 1 to kids do
      if chance rng 20 then Buffer.add_string buf (pick rng [ "t"; "u" ])
      else element (depth + 1)
    done;
    Printf.bprintf buf "</%s>" name
  in
  element 0;
  Buffer.contents buf

let gen_operand rng =
  let atom () =
    if chance rng 50 then Str (pick rng [ "x"; "y"; "x"; "01"; "1"; "i3"; "i5"; "" ])
    else if chance rng 70 then Int (pick rng [ 0; 1; 2; 3; 10; 1; 3 ])
    else Dec (pick rng [ 1.0; 2.0; 2.5 ])
  in
  if chance rng 20 then Items [ atom (); atom () ] else atom ()

let gen_cmp rng =
  Cmp
    ( pick rng [ "n"; "s"; "id"; "n" ],
      pick rng [ Eq; Eq; Ne; Lt; Le; Gt; Ge ],
      gen_operand rng,
      chance rng 70 )

let gen_pred rng =
  match Random.State.int rng 10 with
  | 0 -> Pos (1 + Random.State.int rng 2)
  | 1 -> Last
  | 2 -> Pos_gt (Random.State.int rng 3)
  | 3 -> Has (pick rng [ "n"; "s"; "id" ])
  | 4 -> Not (gen_cmp rng)
  | 5 -> And (gen_cmp rng, gen_cmp rng)
  | _ -> gen_cmp rng

let gen_test rng =
  match Random.State.int rng 20 with
  | 0 | 1 -> Star
  | 2 | 3 -> Any_node
  | 4 -> Text
  | 5 -> Name "zz"
  | _ -> Name (pick rng [ "a"; "b"; "c" ])

let gen_step rng ~first ~last =
  let axis =
    if first then pick rng [ Descendant; Dslash; Dslash; Child ]
    else
      pick rng
        ((if last then [ Attribute ] else [])
        @ [ Child; Child; Descendant; Dslash; Dslash; Dslash; Parent; Ancestor;
            Preceding_sibling ])
  in
  let test =
    match axis with
    | Attribute -> pick rng [ Name "n"; Name "s"; Name "id"; Star ]
    | Parent -> Any_node
    | _ -> gen_test rng
  in
  let npreds = match Random.State.int rng 8 with 0 | 1 | 2 -> 0 | 7 -> 2 | _ -> 1 in
  { axis; test; preds = List.init npreds (fun _ -> gen_pred rng) }

(* every twentieth case: the last step carries an error() operand, over
   a name that matches nothing (must yield ()) or over candidates *)
let gen_query rng ~case =
  let n = pick rng [ 1; 2; 2; 3 ] in
  let steps = List.init n (fun i -> gen_step rng ~first:(i = 0) ~last:(i = n - 1)) in
  if case mod 20 <> 0 then steps
  else
    let prefix = List.filteri (fun i _ -> i < n - 1) steps in
    let test = if chance rng 50 then Name "zz" else Name (pick rng [ "a"; "b" ]) in
    prefix
    @ [ { axis = pick rng [ Child; Dslash; Descendant ]; test;
          preds = [ Cmp ("n", Eq, Fail, chance rng 50) ] } ]

(* ------------------------------------------------------------------ *)
(* The naive evaluator                                                 *)
(* ------------------------------------------------------------------ *)

(* Axes from the parent relation: a scan over every slot per context
   node, in document order (reverse axes reversed). *)
let slots (s : Store.t) p = List.filter p (List.init (Store.node_count s) Fun.id)
let children s c = slots s (fun q -> s.Store.parent.(q) = c && s.Store.kind.(q) <> Store.Attr)
let attrs s c = slots s (fun q -> s.Store.parent.(q) = c && s.Store.kind.(q) = Store.Attr)
let rec descendants s c = List.concat_map (fun k -> k :: descendants s k) (children s c)
let rec ancestors s c =
  let p = s.Store.parent.(c) in
  if p < 0 then [] else p :: ancestors s p
let preceding_siblings s c =
  let p = s.Store.parent.(c) in
  if p < 0 || s.Store.kind.(c) = Store.Attr then []
  else List.rev (List.filter (fun q -> q < c) (children s p))

let local s q = match s.Store.name.(q) with Some n -> n.Qname.local | None -> ""

let matches s ~principal test q =
  let k = s.Store.kind.(q) in
  match test with
  | Any_node -> true
  | Text -> k = Store.Txt
  | Star -> k = principal
  | Name n -> k = principal && local s q = n

let rec operand_atoms = function
  | Str v -> [ Xs.String v ]
  | Int i -> [ Xs.Integer i ]
  | Dec f -> [ Xs.Decimal f ]
  | Items xs -> List.concat_map operand_atoms xs
  | Fail -> raise (Xdm.Dynamic_error "FOER0000: fn:error()")

let holds op c =
  match op with
  | Eq -> c = 0 | Ne -> c <> 0 | Lt -> c < 0 | Le -> c <= 0 | Gt -> c > 0 | Ge -> c >= 0

(* a general comparison: existential, left operand outermost *)
let general op left right =
  List.exists
    (fun x ->
      List.exists
        (fun y ->
          let x, y = Xs.coerce_general x y in
          holds op (Xs.compare_values x y))
        right)
    left

let rec pred_holds s q ~pos ~size = function
  | Pos k -> pos = k
  | Last -> pos = size
  | Pos_gt k -> pos > k
  | Has a -> List.exists (fun x -> local s x = a) (attrs s q)
  | Not p -> not (pred_holds s q ~pos ~size p)
  | And (p, r) -> pred_holds s q ~pos ~size p && pred_holds s q ~pos ~size r
  | Cmp (a, op, x, attr_left) ->
      let values =
        List.filter_map
          (fun v -> if local s v = a then Some (Xs.Untyped s.Store.value.(v)) else None)
          (attrs s q)
      in
      let ys = operand_atoms x in
      if attr_left then general op values ys else general op ys values

let apply_preds s preds nodes =
  List.fold_left
    (fun nodes p ->
      let size = List.length nodes in
      List.filteri (fun i q -> pred_holds s q ~pos:(i + 1) ~size p) nodes)
    nodes preds

let naive_step s { axis; test; preds } c =
  let principal = if axis = Attribute then Store.Attr else Store.Elem in
  let select axis_nodes =
    apply_preds s preds (List.filter (matches s ~principal test) axis_nodes)
  in
  match axis with
  | Child -> select (children s c)
  | Descendant -> select (descendants s c)
  | Attribute -> select (attrs s c)
  | Parent -> select (let p = s.Store.parent.(c) in if p < 0 then [] else [ p ])
  | Ancestor -> select (ancestors s c)
  | Preceding_sibling -> select (preceding_siblings s c)
  | Dslash ->
      (* descendant-or-self::node(), then child::T[preds] from each *)
      List.concat_map
        (fun d -> apply_preds s preds (List.filter (matches s ~principal test) (children s d)))
        (if s.Store.kind.(c) = Store.Attr then [ c ] else c :: descendants s c)

let naive s steps =
  List.fold_left
    (fun context step ->
      List.sort_uniq Int.compare (List.concat_map (naive_step s step) context))
    [ 0 ] steps

(* ------------------------------------------------------------------ *)
(* The battery                                                         *)
(* ------------------------------------------------------------------ *)

type outcome = Nodes of int list | Failed of string

let classify = function
  | Xdm.Dynamic_error _ -> "dynamic error"
  | Xs.Type_error _ -> "type error"
  | e -> Printexc.to_string e

let outcome f =
  match f () with
  | nodes -> Nodes nodes
  | exception (Looplift.Unsupported _ as e) -> raise e
  | exception e -> Failed (classify e)

let show = function
  | Nodes ns -> "[" ^ String.concat " " (List.map string_of_int ns) ^ "]"
  | Failed c -> c

let pres (store : Store.t) seq =
  List.map
    (function
      | Xdm.Node n when n.Store.store == store -> n.Store.pre
      | item -> Alcotest.failf "foreign item %s" (Xdm.to_display [ item ]))
    seq

let base_seed () =
  match Sys.getenv_opt "PATH_SEED" with
  | Some s -> int_of_string (String.trim s)
  | None -> 1407

let cases = 600
let docs = 40

let test_battery () =
  let base = base_seed () in
  let lifted_runs = ref 0 in
  for d = 0 to docs - 1 do
    let xml = gen_document (Random.State.make [| base; d |]) in
    let store = Store.shred ~uri:"d.xml" (Xml_parse.document xml) in
    let ctx = { (Context.empty ()) with Context.doc_resolver = (fun _ -> store) } in
    for case = d * (cases / docs) to ((d + 1) * (cases / docs)) - 1 do
      let steps = gen_query (Random.State.make [| base; d; case |]) ~case in
      let q = query_text steps in
      let e = Parser.parse_expression q in
      let want = outcome (fun () -> naive store steps) in
      let got = outcome (fun () -> pres store (Eval.eval ctx e)) in
      let lifted =
        match
          outcome (fun () ->
              let env =
                Looplift.make_env ~doc_resolver:(fun _ -> store)
                  ~call:(fun ~dest:_ _ -> failwith "no network") ()
              in
              pres store (Looplift.run env e))
        with
        | o ->
            incr lifted_runs;
            Some o
        | exception Looplift.Unsupported _ -> None
      in
      let agrees = function Some o -> o = want | None -> true in
      if got <> want || not (agrees lifted) then
        Alcotest.failf
          "path battery: case %d of base seed %d\n\
           query:     %s\n\
           document:  %s\n\
           naive:     %s\n\
           eval:      %s\n\
           looplift:  %s\n\
           replay with: PATH_SEED=%d dune build @paths --force"
          case base q xml (show want) (show got)
          (match lifted with Some o -> show o | None -> "(unsupported)")
          base
    done
  done;
  (* the loop-lifted engine shares Eval's step function: most cases
     must actually run through it *)
  if !lifted_runs < cases / 2 then
    Alcotest.failf "only %d of %d cases ran through Looplift" !lifted_runs cases

(* Handwritten corners: the per-parent positional meaning of //T[1] and
   //T[last()], and an error() operand over no candidates. *)
let test_corners () =
  let xml = {|<r><a n="1"><a n="2"/><a n="3"/></a><b><a n="4"/></b></r>|} in
  let store = Store.shred ~uri:"d.xml" (Xml_parse.document xml) in
  let ctx = { (Context.empty ()) with Context.doc_resolver = (fun _ -> store) } in
  let run q =
    String.concat ","
      (List.map
         (fun item -> Xs.to_string (Xdm.atomize_item item))
         (Eval.eval ctx (Parser.parse_expression q)))
  in
  let check q want = Alcotest.(check string) q want (run q) in
  check {|doc("d.xml")//a[1]/@n|} "1,2,4";
  check {|doc("d.xml")//a[last()]/@n|} "1,3,4";
  check {|(doc("d.xml")//a)[1]/@n|} "1";
  check {|doc("d.xml")//a[@n > 1]/@n|} "2,3,4";
  check {|doc("d.xml")//a[@n > 1][1]/@n|} "2,4";
  check {|doc("d.xml")//zz[@n = error()]|} "";
  check {|doc("d.xml")/r/a[@n = (3, 1)]/@n|} "1";
  Alcotest.check_raises "error() over candidates"
    (Xdm.Dynamic_error "FOER0000: fn:error()") (fun () ->
      ignore (run {|doc("d.xml")//a[@n = error()]|}))

let () =
  Alcotest.run "paths"
    [
      ( "paths",
        [
          Alcotest.test_case "corners" `Quick test_corners;
          Alcotest.test_case "seeded battery vs naive evaluator" `Quick
            test_battery;
        ] );
    ]
