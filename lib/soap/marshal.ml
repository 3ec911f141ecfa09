(** Parameter marshaling for SOAP XRPC — the [s2n]/[n2s] functions of §2.2.

    [s2n] ({!write_sequence}) writes an XDM sequence as an [xrpc:sequence]
    element straight from its items' stores into a buffer; [n2s] performs
    the inverse.  Crucially, [n2s] re-shreds every node-typed value
    into a {e fresh} store, which enforces the paper's call-by-value
    semantics: on the receiving side each node parameter is the root of its
    own XML fragment, so upward and sideways XPath axes yield empty results
    and ancestor/descendant relationships between separate parameters are
    destroyed (§2.2, "Call-by-Value"). *)

open Xrpc_xml

exception Marshal_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Marshal_error s)) fmt

let xrpc local = Qname.make ~prefix:"xrpc" ~uri:Qname.ns_xrpc local

(** The namespace bindings in force inside a SOAP XRPC envelope, innermost
    first: the four the envelope element declares, then the implicit [xml]
    prefix.  Sequences are written in this scope. *)
let envelope_scope : Serialize.scope =
  [
    ("xrpc", Qname.ns_xrpc);
    ("env", Qname.ns_env);
    ("xs", Qname.ns_xs);
    ("xsi", Qname.ns_xsi);
    ("xml", Qname.ns_xml);
  ]

let tagged buf tag write_content =
  Buffer.add_string buf "<xrpc:";
  Buffer.add_string buf tag;
  Buffer.add_char buf '>';
  write_content ();
  Buffer.add_string buf "</xrpc:";
  Buffer.add_string buf tag;
  Buffer.add_char buf '>'

let write_item buf = function
  | Xdm.Atomic a ->
      Buffer.add_string buf "<xrpc:atomic-value xsi:type=\"xs:";
      Buffer.add_string buf (Xs.type_name (Xs.type_of a));
      Buffer.add_string buf "\">";
      Serialize.add_escaped_text buf (Xs.to_string a);
      Buffer.add_string buf "</xrpc:atomic-value>"
  | Xdm.Node n -> (
      let s = n.Store.store and pre = n.Store.pre in
      match Store.kind n with
      | Store.Elem ->
          tagged buf "element" (fun () ->
              Serialize.node_to_buffer ~scope:envelope_scope buf n)
      | Store.Doc ->
          if s.Store.size.(pre) = 0 then Buffer.add_string buf "<xrpc:document/>"
          else
            tagged buf "document" (fun () ->
                Serialize.node_to_buffer ~scope:envelope_scope buf n)
      | Store.Txt ->
          tagged buf "text" (fun () -> Serialize.add_escaped_text buf s.Store.value.(pre))
      | Store.Comm ->
          tagged buf "comment" (fun () ->
              Serialize.add_escaped_text buf s.Store.value.(pre))
      | Store.Pi ->
          Buffer.add_string buf "<xrpc:pi";
          Serialize.add_attr buf "target"
            (match Store.name n with Some q -> Qname.to_string q | None -> "");
          Buffer.add_char buf '>';
          Serialize.add_escaped_text buf s.Store.value.(pre);
          Buffer.add_string buf "</xrpc:pi>"
      | Store.Attr ->
          (* the attribute rides on an xrpc:attribute carrier element,
             which declares whatever its name needs *)
          ignore
            (Serialize.open_tag buf envelope_scope (xrpc "attribute") s pre (pre + 1));
          Buffer.add_string buf "/>")

(* an xrpc:sequence element holding [write i item] of each item *)
let sequence buf write = function
  | [] -> Buffer.add_string buf "<xrpc:sequence/>"
  | items -> tagged buf "sequence" (fun () -> List.iteri write items)

(** [write_sequence buf seq] — sequence-to-node: appends the
    [xrpc:sequence] element representing [seq] to [buf], as it appears
    inside an envelope (whose {!envelope_scope} declares the prefixes). *)
let write_sequence buf (seq : Xdm.sequence) =
  sequence buf (fun _ item -> write_item buf item) seq

(** [sequence_to_string seq] — [seq] as a standalone [xrpc:sequence]
    element that declares the envelope's prefixes itself. *)
let sequence_to_string (seq : Xdm.sequence) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "<xrpc:sequence";
  List.iter
    (fun (prefix, uri) ->
      if prefix <> "xml" then Serialize.add_attr buf ("xmlns:" ^ prefix) uri)
    envelope_scope;
  Buffer.add_char buf '>';
  List.iter (write_item buf) seq;
  Buffer.add_string buf "</xrpc:sequence>";
  Buffer.contents buf

(** Call-by-fragment marshaling — the protocol extension sketched in
    footnote 4 of the paper.  Within one call, a node parameter that is a
    descendant-or-self of an {e earlier, fully serialized} node parameter
    is sent as a reference [<xrpc:element xrpc:nodeid="Δpre"
    xrpc:param="p" xrpc:item="i"/>] instead of being re-serialized.  On
    the receiving side the reference resolves {e into the same fragment},
    so ancestor/descendant relationships between parameters — destroyed by
    plain call-by-value — are preserved, and the SOAP message shrinks.
    [write_call buf params] appends one [xrpc:sequence] per parameter. *)
let write_call ?(fragments = false) buf (params : Xdm.sequence list) =
  if not fragments then List.iter (write_sequence buf) params
  else begin
    (* nodes already serialized in full, with their (param, item) slot *)
    let serialized : (Store.node * int * int) list ref = ref [] in
    let covering (n : Store.node) =
      List.find_opt
        (fun ((anc : Store.node), _, _) ->
          anc.Store.store.Store.doc_id = n.Store.store.Store.doc_id
          && anc.Store.pre <= n.Store.pre
          && n.Store.pre
             <= anc.Store.pre + anc.Store.store.Store.size.(anc.Store.pre))
        !serialized
    in
    List.iteri
      (fun pi seq ->
        sequence buf
          (fun ii item ->
            match item with
            | Xdm.Node n when Store.kind n = Store.Elem -> (
                match covering n with
                | Some (anc, api, aii) ->
                    Printf.bprintf buf
                      "<xrpc:element xrpc:nodeid=\"%d\" xrpc:param=\"%d\" \
                       xrpc:item=\"%d\"/>"
                      (n.Store.pre - anc.Store.pre) api aii
                | None ->
                    serialized := (n, pi, ii) :: !serialized;
                    write_item buf item)
            | item -> write_item buf item)
          seq)
      params
  end

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

let is_blank s = String.for_all Xml_parse.is_space s

(* The text content of a wrapper element: its single text child as is. *)
let text_of = function
  | [] -> ""
  | [ Tree.Text s ] -> s
  | children -> Tree.string_value (Tree.Document children)

let find_attr attrs local =
  List.find_map
    (fun (a : Tree.attr) ->
      if a.name.Qname.local = local then Some a.value else None)
    attrs

let atomic_type attrs =
  match
    List.find_opt
      (fun (a : Tree.attr) ->
        a.name.Qname.local = "type"
        && (a.name.Qname.uri = Qname.ns_xsi || a.name.Qname.uri = ""))
      attrs
  with
  | None -> Xs.TUntypedAtomic
  | Some a -> (
      let _, local = Qname.split a.value in
      match Xs.type_of_name local with Some t -> t | None -> Xs.TUntypedAtomic)

let fragment tree = Xdm.Node (Store.root (Store.shred tree))

(* One item of an xrpc:sequence.  Every node value is constructed as a
   separate fragment (fresh store): call-by-value. *)
let n2s_item = function
  | Tree.Element { name; attrs; children } when name.Qname.uri = Qname.ns_xrpc
    -> (
      match name.Qname.local with
      | "atomic-value" -> (
          let typ = atomic_type attrs in
          try Xdm.Atomic (Xs.of_string typ (text_of children))
          with Xs.Type_error m -> err "%s" m)
      | "element" -> (
          match
            List.find_opt (function Tree.Element _ -> true | _ -> false) children
          with
          | Some e -> fragment e
          | None -> err "xrpc:element without element child")
      | "document" -> fragment (Tree.Document children)
      | "text" -> fragment (Tree.Text (text_of children))
      | "comment" -> fragment (Tree.Comment (text_of children))
      | "pi" ->
          let target = Option.value ~default:"" (find_attr attrs "target") in
          fragment (Tree.Pi { target; data = text_of children })
      | "attribute" -> (
          match attrs with
          | a :: _ -> (
              (* An attribute node needs an owner element in the store;
                 shred a carrier element and return its attribute. *)
              let store =
                Store.shred (Tree.elem (xrpc "attr-carrier") ~attrs:[ a ] [])
              in
              match Store.attributes (Store.root store) with
              | at :: _ -> Xdm.Node at
              | [] -> err "attribute carrier lost its attribute")
          | [] -> err "xrpc:attribute without attribute")
      | other -> err "unexpected xrpc:%s in sequence" other)
  | _ -> err "unexpected content in xrpc:sequence"

(* The item elements of an xrpc:sequence, whitespace between them
   skipped. *)
let sequence_items = function
  | Tree.Element { name; children; _ }
    when name.Qname.uri = Qname.ns_xrpc && name.Qname.local = "sequence" ->
      List.filter (function Tree.Text s -> not (is_blank s) | _ -> true) children
  | _ -> err "expected xrpc:sequence element"

(** [n2s t] — node-to-sequence: the XDM sequence an [xrpc:sequence]
    element represents. *)
let n2s (t : Tree.t) : Xdm.sequence = List.map n2s_item (sequence_items t)

let is_ref = function
  | Tree.Element { name; attrs; _ } ->
      name.Qname.uri = Qname.ns_xrpc
      && name.Qname.local = "element"
      && find_attr attrs "nodeid" <> None
  | _ -> false

(** [n2s_call seqs] — unmarshal all parameter sequences of one call,
    resolving any [xrpc:nodeid] references (footnote-4 extension) into the
    fragments of their fully-serialized ancestors.  Identical to mapping
    {!n2s} when no references are present. *)
let n2s_call (seq_trees : Tree.t list) : Xdm.sequence list =
  let params = List.map sequence_items seq_trees in
  if not (List.exists (List.exists is_ref) params) then
    List.map (List.map n2s_item) params
  else begin
    (* pass 1: plain items *)
    let table : (int * int, Xdm.item) Hashtbl.t = Hashtbl.create 8 in
    List.iteri
      (fun pi items ->
        List.iteri
          (fun ii c ->
            if not (is_ref c) then Hashtbl.replace table (pi, ii) (n2s_item c))
          items)
      params;
    (* pass 2: resolve references into their ancestors' fragments *)
    List.mapi
      (fun pi items ->
        List.mapi
          (fun ii c ->
            match c with
            | Tree.Element { attrs; _ } when is_ref c -> (
                let geti what =
                  match find_attr attrs what with
                  | Some v -> (
                      match int_of_string_opt v with
                      | Some i -> i
                      | None -> err "bad %s" what)
                  | None -> err "nodeid reference missing %s" what
                in
                let rp = geti "param" and ri = geti "item" in
                let delta = geti "nodeid" in
                match Hashtbl.find_opt table (rp, ri) with
                | Some (Xdm.Node base) ->
                    let pre = base.Store.pre + delta in
                    if pre < 0 || pre >= Store.node_count base.Store.store then
                      err "nodeid offset out of range"
                    else Xdm.Node { base with Store.pre }
                | Some (Xdm.Atomic _) ->
                    err "nodeid reference to atomic parameter"
                | None -> err "nodeid reference to unknown parameter (%d,%d)" rp ri)
            | _ -> Hashtbl.find table (pi, ii))
          items)
      params
  end
