(** Column tables — the [iter|pos|item] representation of §3.1.

    MonetDB/XQuery represents every XQuery sequence as a relational table
    with schema [pos|item]; under loop-lifting an extra [iter] column holds
    the logical iteration number.  Cells are either integers (for [iter] /
    [pos] / rank columns) or XDM items.

    Storage is columnar: one [cell array] per column plus a cached
    column-name → position map, so cell access is O(1) and the kernels in
    {!Ops} scan column arrays instead of walking row lists.  Column arrays
    are never mutated after construction, which lets operators share columns
    between tables (projection is O(#columns), ρ reuses its input columns).
    [make] remains as the row-wise compatibility constructor; [rows]
    materializes a row-wise view for callers that need one (tests, the
    {!Ops_reference} oracle).  The pretty-printer reproduces the table
    layout used in Figure 1 of the paper. *)

open Xrpc_xml

type cell = Int of int | Item of Xdm.item

type t = {
  cols : string array;
  index : (string, int) Hashtbl.t;
      (** cached column-name → position map (first occurrence wins) *)
  data : cell array array;  (** column-major: [data.(c).(r)]; never mutated *)
  nrows : int;
}

exception Schema_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Schema_error s)) fmt

let build_index cols =
  let h = Hashtbl.create (max 4 (2 * Array.length cols)) in
  Array.iteri (fun i c -> if not (Hashtbl.mem h c) then Hashtbl.add h c i) cols;
  h

let dummy_cell = Int 0

(** Column-wise constructor: all arrays must have the same length. *)
let of_cols cols data =
  let cols = Array.of_list cols in
  if Array.length data <> Array.length cols then
    err "of_cols: %d column names but %d column arrays" (Array.length cols)
      (Array.length data);
  let nrows = if Array.length data = 0 then 0 else Array.length data.(0) in
  Array.iteri
    (fun i c ->
      if Array.length c <> nrows then
        err "of_cols: column %S has %d rows, expected %d" cols.(i)
          (Array.length c) nrows)
    data;
  { cols; index = build_index cols; data; nrows }

(** Row-wise compatibility constructor. *)
let make cols rows =
  let ncols = List.length cols in
  List.iter
    (fun r ->
      if List.length r <> ncols then
        err "row width %d does not match %d columns" (List.length r) ncols)
    rows;
  let nrows = List.length rows in
  let cols = Array.of_list cols in
  let data = Array.init ncols (fun _ -> Array.make nrows dummy_cell) in
  List.iteri
    (fun ri row -> List.iteri (fun ci c -> data.(ci).(ri) <- c) row)
    rows;
  { cols; index = build_index cols; data; nrows }

let empty cols = make cols []
let cardinality t = t.nrows
let arity t = Array.length t.cols
let col_names t = Array.to_list t.cols

let col_index t c =
  match Hashtbl.find_opt t.index c with
  | Some i -> i
  | None -> err "no column %S in table(%s)" c (String.concat "," (col_names t))

(** The physical column arrays.  Read-only by convention. *)
let columns t = t.data

let column t i = t.data.(i)
let col t c = t.data.(col_index t c)

(** O(1) cell access: [get t row ci] with a column position, [cell t row c]
    through the cached column-index map. *)
let get t row ci = t.data.(ci).(row)

let cell t row c = t.data.(col_index t c).(row)
let row t ri = Array.to_list (Array.map (fun c -> c.(ri)) t.data)

(** Row-wise view (materialized); prefer the columnar accessors on hot
    paths. *)
let rows t = List.init t.nrows (row t)

let int_cell = function
  | Int i -> i
  | Item (Xdm.Atomic (Xs.Integer i)) -> i
  | _ -> err "expected integer cell"

let item_cell = function
  | Item i -> i
  | Int i -> Xdm.Atomic (Xs.Integer i)

let cell_equal a b =
  match (a, b) with
  | Int x, Int y -> x = y
  | Item (Xdm.Atomic x), Item (Xdm.Atomic y) -> (
      try Xs.equal_values x y with Xs.Type_error _ -> false)
  | Item (Xdm.Node x), Item (Xdm.Node y) -> Store.equal_nodes x y
  | Int x, Item (Xdm.Atomic (Xs.Integer y)) | Item (Xdm.Atomic (Xs.Integer x)), Int y ->
      x = y
  | _ -> false

let cell_compare a b =
  match (a, b) with
  | Int x, Int y -> Int.compare x y
  | Item (Xdm.Atomic x), Item (Xdm.Atomic y) -> Xs.compare_values x y
  | Item (Xdm.Node x), Item (Xdm.Node y) -> Store.compare_nodes x y
  | Int _, _ -> -1
  | _, Int _ -> 1
  | Item (Xdm.Atomic _), Item (Xdm.Node _) -> -1
  | Item (Xdm.Node _), Item (Xdm.Atomic _) -> 1

(** Conservative hash key for a cell: [cell_equal a b] implies
    [cell_key a = cell_key b] for the value shapes the algebra produces
    (integers, canonical-form atomics, nodes); distinct values may collide
    (e.g. [Integer 5] and [String "5"]), so hash consumers must re-check
    candidates with {!cell_equal}.  Numerics key by their canonical float
    rendering, which makes the cross-type bridges of XPath general equality
    ([Int 5] = [Integer 5] = [Double 5.0] = [Untyped "5"], and the
    string-value fallback [Boolean true] = [String "true"]) land in one
    bucket.  Non-canonical lexical forms of untyped/temporal values are the
    only equal-but-split cases, matching the non-transitive corners of
    {!Xs.compare_values} itself. *)
let cell_key = function
  | Int i -> Xs.float_to_string (float_of_int i)
  | Item (Xdm.Atomic a) when Xs.is_numeric a ->
      (* [+. 0.] normalizes -0. to 0., which compare equal *)
      Xs.float_to_string (Xs.to_float a +. 0.)
  | Item (Xdm.Atomic a) -> Xs.to_string a
  | Item (Xdm.Node n) ->
      Printf.sprintf "\x00%d.%d" n.Store.store.Store.doc_id n.Store.pre

(** Hash key of a whole row (cell keys joined; collisions re-checked by the
    caller with {!cell_equal}). *)
let row_key t r =
  let b = Buffer.create 32 in
  Array.iter
    (fun colarr ->
      Buffer.add_string b (cell_key colarr.(r));
      Buffer.add_char b '\x02')
    t.data;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Row selection / concatenation (shared by the Ops kernels)           *)
(* ------------------------------------------------------------------ *)

(** Keep the rows whose index satisfies [pred], preserving order. *)
let filter_rows t pred =
  let keep = Array.make t.nrows false in
  let n = ref 0 in
  for r = 0 to t.nrows - 1 do
    if pred r then begin
      keep.(r) <- true;
      incr n
    end
  done;
  let n = !n in
  let data =
    Array.map
      (fun colarr ->
        let out = Array.make n dummy_cell in
        let j = ref 0 in
        for r = 0 to t.nrows - 1 do
          if keep.(r) then begin
            out.(!j) <- colarr.(r);
            incr j
          end
        done;
        out)
      t.data
  in
  { t with data; nrows = n }

(** Gather the rows at the given indices, in the given order. *)
let select_rows t idx =
  let n = Array.length idx in
  let data =
    Array.map (fun colarr -> Array.init n (fun j -> colarr.(idx.(j)))) t.data
  in
  { t with data; nrows = n }

(** Vertical concatenation; schemas are taken from the first table (the
    paper's ⊎ assumes compatible inputs). *)
let vconcat = function
  | [] -> err "vconcat of no tables"
  | t0 :: _ as ts ->
      let ncols = arity t0 in
      List.iter
        (fun t ->
          if arity t <> ncols then err "vconcat of incompatible arities")
        ts;
      let total = List.fold_left (fun acc t -> acc + t.nrows) 0 ts in
      let data =
        Array.init ncols (fun ci ->
            let out = Array.make total dummy_cell in
            let off = ref 0 in
            List.iter
              (fun t ->
                Array.blit t.data.(ci) 0 out !off t.nrows;
                off := !off + t.nrows)
              ts;
            out)
      in
      { t0 with data; nrows = total }

let cell_to_string = function
  | Int i -> string_of_int i
  | Item (Xdm.Atomic a) -> Printf.sprintf "%S" (Xs.to_string a)
  | Item (Xdm.Node n) -> Serialize.node_to_string n

(* ------------------------------------------------------------------ *)
(* Sequence encoding                                                   *)
(* ------------------------------------------------------------------ *)

(** Build the canonical [iter|pos|item] table from one XDM sequence per
    iteration ([?iter_col] renames the iteration column, e.g. [iterp] for
    Bulk RPC message tables). *)
let of_sequences ?(iter_col = "iter") (seqs : (int * Xdm.sequence) list) =
  let n = List.fold_left (fun acc (_, s) -> acc + List.length s) 0 seqs in
  let iters = Array.make n dummy_cell
  and poss = Array.make n dummy_cell
  and items = Array.make n dummy_cell in
  let k = ref 0 in
  List.iter
    (fun (iter, seq) ->
      List.iteri
        (fun p item ->
          iters.(!k) <- Int iter;
          poss.(!k) <- Int (p + 1);
          items.(!k) <- Item item;
          incr k)
        seq)
    seqs;
  of_cols [ iter_col; "pos"; "item" ] [| iters; poss; items |]

(** Build an [iter|pos|item] table from [(iter, item)] pairs in arrival
    order, numbering [pos] 1..k within each iteration — the loop-lifted
    "renumber after concatenation" step, in one pass. *)
let of_iter_items (pairs : (int * Xdm.item) list) =
  let n = List.length pairs in
  let iters = Array.make n dummy_cell
  and poss = Array.make n dummy_cell
  and items = Array.make n dummy_cell in
  let counts = Hashtbl.create 16 in
  List.iteri
    (fun k (iter, item) ->
      let c = (try Hashtbl.find counts iter with Not_found -> 0) + 1 in
      Hashtbl.replace counts iter c;
      iters.(k) <- Int iter;
      poss.(k) <- Int c;
      items.(k) <- Item item)
    pairs;
  of_cols [ "iter"; "pos"; "item" ] [| iters; poss; items |]

(** Extract the sequence of a given iteration from an [iter|pos|item]
    table, in [pos] order. *)
let sequence_of t ~iter =
  let ic = col t "iter" and pc = col t "pos" and xc = col t "item" in
  let acc = ref [] in
  for r = t.nrows - 1 downto 0 do
    if int_cell ic.(r) = iter then
      acc := (int_cell pc.(r), item_cell xc.(r)) :: !acc
  done;
  !acc
  |> List.stable_sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map snd

(** Distinct iters present, ascending. *)
let iters t =
  let ic = col t "iter" in
  Array.to_list (Array.map int_cell ic) |> List.sort_uniq Int.compare

(** Partition an [iter|pos|item] table by its iteration column in ONE pass:
    [(iter, sequence)] pairs, iters ascending, each sequence in [pos]
    order.  This is what makes k-call Bulk RPC assembly O(rows) instead of
    O(k × rows). *)
let group_by_iter ?(iter_col = "iter") t =
  let ic = col t iter_col and pc = col t "pos" and xc = col t "item" in
  let groups = Hashtbl.create 64 in
  for r = t.nrows - 1 downto 0 do
    let iter = int_cell ic.(r) in
    let prev = try Hashtbl.find groups iter with Not_found -> [] in
    Hashtbl.replace groups iter ((int_cell pc.(r), item_cell xc.(r)) :: prev)
  done;
  Hashtbl.fold (fun iter prs acc -> (iter, prs) :: acc) groups []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map (fun (iter, prs) ->
         ( iter,
           prs
           |> List.stable_sort (fun (a, _) (b, _) -> Int.compare a b)
           |> List.map snd ))

(** [iter_lookup t] partitions [t] once and returns an O(1) iteration →
    sequence lookup (empty sequence for absent iterations). *)
let iter_lookup ?(iter_col = "iter") t =
  let h = Hashtbl.create 64 in
  List.iter (fun (i, s) -> Hashtbl.replace h i s) (group_by_iter ~iter_col t);
  fun iter -> try Hashtbl.find h iter with Not_found -> []

(** Per-iteration sequences for every iteration of [loop], in loop order
    (empty sequences included thanks to the loop relation — footnote 5). *)
let sequences t ~loop =
  let lookup = iter_lookup t in
  List.map (fun i -> (i, lookup i)) loop

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

(** Figure-1 style rendering. *)
let to_string ?(max_item = 40) t =
  let render_cell c =
    let s = cell_to_string c in
    if String.length s > max_item then String.sub s 0 (max_item - 1) ^ "…" else s
  in
  let header = col_names t in
  let body = List.init t.nrows (fun r -> List.map render_cell (row t r)) in
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun w row -> max w (String.length (List.nth row i)))
          (String.length h) body)
      header
  in
  let line cells =
    String.concat " | "
      (List.map2
         (fun w s -> s ^ String.make (max 0 (w - String.length s)) ' ')
         widths cells)
  in
  let sep = String.concat "-+-" (List.map (fun w -> String.make w '-') widths) in
  String.concat "\n" ((line header :: sep :: List.map line body) @ [])
