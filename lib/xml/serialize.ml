(** XML serialization of shredded {!Store} nodes.

    Used for SOAP XRPC messages on the wire and for query result output.
    There is one walker: it reads a store's pre/size arrays directly and
    writes into a [Buffer.t], so a node goes to the wire without being
    rebuilt as a {!Tree.t} first; the [Tree] entry points shred and then
    walk.  Escaping follows the XML spec; attribute values additionally
    escape quotes.  The serializer guarantees {e namespace
    well-formedness}: a [Qname] carries its resolved URI, and any prefix
    binding not already in scope (either inherited or present as an
    explicit [xmlns] attribute) is re-declared on the element that needs
    it — the parser consumes [xmlns] attributes into scoping information,
    so this is what makes parse → serialize round-trips stable for
    namespaced documents. *)

(* Append [s] with markup characters escaped (and double quotes too when
   [attr]); runs of plain characters are copied with one blit. *)
let rec add_escaped_from ~attr buf s start i =
  if i = String.length s then
    if start = 0 then Buffer.add_string buf s
    else Buffer.add_substring buf s start (i - start)
  else
    match String.unsafe_get s i with
    | '<' -> add_entity ~attr buf s start i "&lt;"
    | '&' -> add_entity ~attr buf s start i "&amp;"
    | '>' when not attr -> add_entity ~attr buf s start i "&gt;"
    | '"' when attr -> add_entity ~attr buf s start i "&quot;"
    | _ -> add_escaped_from ~attr buf s start (i + 1)

and add_entity ~attr buf s start i entity =
  Buffer.add_substring buf s start (i - start);
  Buffer.add_string buf entity;
  add_escaped_from ~attr buf s (i + 1) (i + 1)

let add_escaped ~attr buf s = add_escaped_from ~attr buf s 0 0

let add_escaped_text buf s = add_escaped ~attr:false buf s
let add_escaped_attr buf s = add_escaped ~attr:true buf s

let escape_attr s =
  let buf = Buffer.create (String.length s + 8) in
  add_escaped_attr buf s;
  Buffer.contents buf

(** Prefix → URI bindings in scope, innermost first. *)
type scope = (string * string) list

let initial_scope : scope = [ ("xml", Qname.ns_xml) ]

let add_qname buf (q : Qname.t) =
  if q.prefix <> "" then (
    Buffer.add_string buf q.prefix;
    Buffer.add_char buf ':');
  Buffer.add_string buf q.local

(** [add_attr buf name value] appends [ name="value"] (value escaped). *)
let add_attr buf name value =
  Buffer.add_char buf ' ';
  Buffer.add_string buf name;
  Buffer.add_string buf "=\"";
  add_escaped_attr buf value;
  Buffer.add_char buf '"'

(* Is [prefix] already bound to [uri] by the innermost binding of
   [scope]?  An unbound prefix is fine only for "no namespace". *)
let rec in_scope scope prefix uri =
  match scope with
  | [] -> uri = ""
  | (p, u) :: rest ->
      if String.equal p prefix then String.equal u uri
      else in_scope rest prefix uri

(* One step of the namespace fix-up: [missing] are the bindings this
   element must declare (latest first), [scope] what its content sees.
   Returns [acc] itself when nothing is needed, so the common case
   allocates nothing. *)
let need ((missing, scope) as acc) prefix uri =
  if prefix = "xml" || List.mem_assoc prefix missing || in_scope scope prefix uri
  then acc
  else
    let b = (prefix, uri) in
    (b :: missing, b :: scope)

(* Would binding [prefix] to [uri] for an attribute undo a binding the
   element's own name, or an earlier attribute, needs on this tag? *)
let clashes (missing, _) (name : Qname.t) prefix uri =
  prefix <> "xml"
  && ((prefix = name.prefix && uri <> name.uri)
     || match List.assoc_opt prefix missing with Some u -> u <> uri | None -> false)

(* A prefix bound neither in [scope] nor among [missing]. *)
let fresh_prefix (missing, scope) =
  let rec go k =
    let p = "ns" ^ string_of_int k in
    if List.mem_assoc p missing || List.mem_assoc p scope then go (k + 1) else p
  in
  go 1

let name_of (s : Store.t) pre =
  match s.name.(pre) with Some q -> q | None -> assert false

(** [open_tag buf scope name s a0 a1] writes [<name], the namespace
    declarations it needs, and the attributes held in store slots
    [a0 .. a1) of [s] (without the closing [>]), and returns the scope the
    element's content sees. *)
let open_tag buf scope (name : Qname.t) (s : Store.t) a0 a1 =
  (* bindings declared explicitly as xmlns attributes on this element *)
  let scope = ref scope in
  for j = a1 - 1 downto a0 do
    let q = name_of s j in
    if q.prefix = "xmlns" then scope := (q.local, s.value.(j)) :: !scope
    else if q.prefix = "" && q.local = "xmlns" then
      scope := ("", s.value.(j)) :: !scope
  done;
  (* bindings required by the element and attribute names; an attribute
     whose prefix is taken by another namespace on this tag is written
     under a fresh prefix (the xrpc:attribute carrier of an attribute
     named xrpc:..., or a constructed node, can have one) *)
  let acc = ref (need ([], !scope) name.prefix name.uri) in
  let renamed = ref [] in
  for j = a0 to a1 - 1 do
    let q = name_of s j in
    if q.prefix <> "" && q.prefix <> "xmlns" && q.uri <> "" then
      if clashes !acc name q.prefix q.uri then (
        let p = fresh_prefix !acc in
        renamed := (j, p) :: !renamed;
        acc := need !acc p q.uri)
      else acc := need !acc q.prefix q.uri
  done;
  let missing, scope = !acc in
  Buffer.add_char buf '<';
  add_qname buf name;
  List.iter
    (fun (prefix, uri) ->
      add_attr buf (if prefix = "" then "xmlns" else "xmlns:" ^ prefix) uri)
    (List.rev missing);
  for j = a0 to a1 - 1 do
    Buffer.add_char buf ' ';
    (match List.assoc_opt j !renamed with
    | Some p -> add_qname buf { (name_of s j) with prefix = p }
    | None -> add_qname buf (name_of s j));
    Buffer.add_string buf "=\"";
    add_escaped_attr buf s.value.(j);
    Buffer.add_char buf '"'
  done;
  scope

(** [write_children buf scope s first stop] writes the children of a node
    whose non-attribute content occupies slots [first .. stop]. *)
let rec write_children buf scope (s : Store.t) first stop =
  let c = ref first in
  while !c <= stop do
    write buf scope s !c;
    c := !c + s.size.(!c) + 1
  done

and write buf scope (s : Store.t) pre =
  match s.kind.(pre) with
  | Store.Txt | Store.Attr -> add_escaped_text buf s.value.(pre)
  | Store.Comm ->
      Buffer.add_string buf "<!--";
      Buffer.add_string buf s.value.(pre);
      Buffer.add_string buf "-->"
  | Store.Pi ->
      Buffer.add_string buf "<?";
      Buffer.add_string buf (name_of s pre).local;
      if s.value.(pre) <> "" then (
        Buffer.add_char buf ' ';
        Buffer.add_string buf s.value.(pre));
      Buffer.add_string buf "?>"
  | Store.Doc -> write_children buf scope s (pre + 1) (pre + s.size.(pre))
  | Store.Elem ->
      let stop = pre + s.size.(pre) in
      let first = ref (pre + 1) in
      while !first <= stop && s.kind.(!first) = Store.Attr do
        incr first
      done;
      let name = name_of s pre in
      let inner = open_tag buf scope name s (pre + 1) !first in
      if !first > stop then Buffer.add_string buf "/>"
      else (
        Buffer.add_char buf '>';
        write_children buf inner s !first stop;
        Buffer.add_string buf "</";
        add_qname buf name;
        Buffer.add_char buf '>')

(** [node_to_buffer ?scope buf n] serializes the subtree rooted at [n]
    (no XML declaration) into [buf]; [scope] is the set of bindings the
    surrounding output already has in force.  A document node writes its
    children; an attribute node on its own writes its escaped value. *)
let node_to_buffer ?(scope = initial_scope) buf (n : Store.node) =
  write buf scope n.store n.pre

let node_to_string (n : Store.node) =
  let buf = Buffer.create 256 in
  node_to_buffer buf n;
  Buffer.contents buf

(** [to_string t] serializes a tree without an XML declaration. *)
let to_string t = node_to_string (Store.root (Store.shred t))

let xml_declaration = "<?xml version=\"1.0\" encoding=\"utf-8\"?>\n"
