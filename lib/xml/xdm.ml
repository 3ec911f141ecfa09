(** The XQuery Data Model: items and sequences.

    An item is either an atomic value ({!Xs.t}) or a node reference into a
    shredded {!Store}.  Sequences are flat item lists (XDM sequences never
    nest).  This module also hosts the XDM operations shared by the
    interpreter, the algebra engine, and the SOAP marshaler: atomization,
    effective boolean value, deep-equal, and document-order dedup. *)

type item = Atomic of Xs.t | Node of Store.node
type sequence = item list

exception Dynamic_error of string

let dyn_error fmt = Printf.ksprintf (fun s -> raise (Dynamic_error s)) fmt

let singleton i = [ i ]
let of_atom a = [ Atomic a ]
let of_node n = [ Node n ]
let str s = Atomic (Xs.String s)
let int i = Atomic (Xs.Integer i)
let bool b = Atomic (Xs.Boolean b)

(** [string_value item] — the XDM string value. *)
let string_value = function
  | Atomic a -> Xs.to_string a
  | Node n -> Store.string_value n

(** [atomize seq] — typed-value extraction.  Element/attribute/text content
    atomizes to [xs:untypedAtomic] (we run schema-less, like
    MonetDB/XQuery's default). *)
let atomize_item = function
  | Atomic a -> a
  | Node n -> Xs.Untyped (Store.string_value n)

let atomize seq = List.map atomize_item seq

(** Effective boolean value of a sequence per XPath 2.0 §2.4.3. *)
let ebv = function
  | [] -> false
  | [ Atomic a ] -> Xs.ebv a
  | Node _ :: _ -> true
  | _ -> dyn_error "FORG0006: invalid argument to effective boolean value"

(** Exactly-one atomic out of a sequence, with a caller-supplied role for
    the error message. *)
let one_atom ~what = function
  | [ i ] -> atomize_item i
  | [] -> dyn_error "empty sequence where one %s expected" what
  | _ -> dyn_error "more than one item where one %s expected" what

(** Exactly-one item out of a sequence. *)
let one_item ~what = function
  | [ i ] -> i
  | [] -> dyn_error "empty sequence where one %s expected" what
  | _ -> dyn_error "more than one item where one %s expected" what

let node_only = function
  | Node n -> n
  | Atomic a -> dyn_error "expected a node, got atomic %s" (Xs.to_string a)

(** Sort by document order and remove duplicate nodes — the implicit
    semantics of every XPath step result. *)
let doc_order_dedup nodes =
  let sorted = List.sort Store.compare_nodes nodes in
  let rec dedup = function
    | a :: (b :: _ as rest) when Store.equal_nodes a b -> dedup rest
    | a :: rest -> a :: dedup rest
    | [] -> []
  in
  dedup sorted

(** A path expression's result: nodes in document order without
    duplicates, or atomic values in evaluation order; mixing the two is
    XPTY0018.  A sequence of nodes already strictly in document order is
    returned as is after an O(n) check, without a sort. *)
let path_result seq =
  let rec in_order prev = function
    | [] -> true
    | Node n :: rest -> Store.compare_nodes prev n < 0 && in_order n rest
    | Atomic _ :: _ -> false
  in
  match seq with
  | [] -> []
  | Node n :: rest when in_order n rest -> seq
  | _ -> (
      match List.partition (function Node _ -> true | Atomic _ -> false) seq with
      | nodes, [] ->
          List.map (fun n -> Node n) (doc_order_dedup (List.map node_only nodes))
      | [], atomics -> atomics
      | _ -> dyn_error "XPTY0018: path step mixes nodes and atomic values")

(** Structural deep-equal (ignores node identity), used by tests and
    [fn:deep-equal]. *)
let rec deep_equal (a : sequence) (b : sequence) =
  match (a, b) with
  | [], [] -> true
  | x :: xs, y :: ys -> item_equal x y && deep_equal xs ys
  | _ -> false

and item_equal x y =
  match (x, y) with
  | Atomic p, Atomic q -> ( try Xs.equal_values p q with Xs.Type_error _ -> false)
  | Node p, Node q -> (
      match (Store.kind p, Store.kind q) with
      | Store.Attr, Store.Attr ->
          let pa = Store.attr_tree p and qa = Store.attr_tree q in
          Qname.equal pa.Tree.name qa.Tree.name && pa.value = qa.value
      | Store.Attr, _ | _, Store.Attr -> false
      | _ -> Tree.equal (Store.to_tree p) (Store.to_tree q))
  | _ -> false

(** Render a sequence the way query results are shown to users: nodes are
    serialized, atomics printed in lexical form, items space-separated. *)
let to_display seq =
  String.concat " "
    (List.map
       (function
         | Atomic a -> Xs.to_string a
         | Node n -> (
             match Store.kind n with
             | Store.Attr ->
                 let a = Store.attr_tree n in
                 Printf.sprintf "%s=\"%s\"" (Qname.to_string a.Tree.name)
                   a.value
             | _ -> Serialize.node_to_string n))
       seq)
