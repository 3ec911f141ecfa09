(** A small, dependency-free XML 1.0 parser.

    Supports elements, attributes, namespaces (with prefix scoping), text,
    CDATA, comments, processing instructions, an XML declaration, DOCTYPE
    skipping, and the five predefined entities plus numeric character
    references.  This is sufficient for SOAP XRPC messages, XQuery module
    sources served as documents, and the XMark-style workload documents.

    The parser is an index scanner over the source string: it allocates
    the nodes it returns and little else.  A text or attribute run without
    references becomes one substring, end tags are matched in place
    against the start tag's bytes, and namespace resolution keeps one
    binding stack per prefix, so a lookup costs O(1) whatever the nesting
    depth.  Every malformed input raises {!Parse_error}. *)

exception Parse_error of string

type state = {
  src : string;
  mutable pos : int;
  lim : int;  (** parse window end: the document is [src.[start .. lim)] *)
  preserve_space : bool;
  mutable default_ns : string list;
      (** default-namespace binding stack, innermost first *)
  prefixed : (string, string list ref) Hashtbl.t;
      (** prefix -> binding stack, innermost first *)
  names : Qname.t array;
      (** recently seen names by hash of their lexical form, so a repeated
          name costs no allocation *)
  values : string array;
      (** the last value of an attribute of that name slot, reused when
          it repeats (namespace declarations, xsi:type) *)
}

let error st fmt =
  Printf.ksprintf
    (fun m -> raise (Parse_error (Printf.sprintf "%s at offset %d" m st.pos)))
    fmt

let at st c = st.pos < st.lim && String.unsafe_get st.src st.pos = c
let is_empty s = String.length s = 0

(* [a.[i .. i+n)] = [b.[j .. j+n)]; callers keep both ranges in bounds *)
let rec same a i b j n =
  n = 0
  || String.unsafe_get a i = String.unsafe_get b j && same a (i + 1) b (j + 1) (n - 1)

let looking_at st s =
  let n = String.length s in
  st.pos + n <= st.lim && same st.src st.pos s 0 n

let expect st s =
  if looking_at st s then st.pos <- st.pos + String.length s
  else error st "expected %S" s

let is_space = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let skip_space st =
  while st.pos < st.lim && is_space (String.unsafe_get st.src st.pos) do
    st.pos <- st.pos + 1
  done

(* character classes: 2 starts a name, 1 may continue one *)
let name_class =
  String.init 256 (fun i ->
      match Char.chr i with
      | 'a' .. 'z' | 'A' .. 'Z' | '_' | '\128' .. '\255' -> '\002'
      | '0' .. '9' | '-' | '.' -> '\001'
      | _ -> '\000')

let is_name_start c = String.unsafe_get name_class (Char.code c) = '\002'
let is_name_char c = String.unsafe_get name_class (Char.code c) <> '\000'

(* Advance over a name; returns its start. *)
let scan_ncname st =
  let start = st.pos in
  if not (st.pos < st.lim && is_name_start (String.unsafe_get st.src st.pos))
  then error st "expected name";
  st.pos <- st.pos + 1;
  while st.pos < st.lim && is_name_char (String.unsafe_get st.src st.pos) do
    st.pos <- st.pos + 1
  done;
  start

let read_ncname st =
  let start = scan_ncname st in
  String.sub st.src start (st.pos - start)

(* Advance over a QName; returns the offset of its ':' or -1. *)
let scan_qname st =
  ignore (scan_ncname st);
  if at st ':' then (
    let colon = st.pos in
    st.pos <- st.pos + 1;
    ignore (scan_ncname st);
    colon)
  else -1

(* ------------------------------------------------------------------ *)
(* Interned names                                                      *)
(* ------------------------------------------------------------------ *)

let name_slots = 64

let rec hash_bytes s i stop h =
  if i = stop then h
  else hash_bytes s (i + 1) stop (((h * 31) + Char.code (String.unsafe_get s i)) land 0xFFFFFF)

let slot_of_range src start stop = hash_bytes src start stop 0 land (name_slots - 1)

let slot_of_qname (q : Qname.t) =
  let h = hash_bytes q.prefix 0 (String.length q.prefix) 0 in
  let h = if is_empty q.prefix then h else ((h * 31) + Char.code ':') land 0xFFFFFF in
  hash_bytes q.local 0 (String.length q.local) h land (name_slots - 1)

(* Is [q] the lexical name [src.[start .. stop)] with its ':' at [colon]? *)
let spells (q : Qname.t) src start colon stop =
  if colon < 0 then
    is_empty q.prefix
    && String.length q.local = stop - start
    && same src start q.local 0 (stop - start)
  else
    String.length q.prefix = colon - start
    && String.length q.local = stop - colon - 1
    && same src start q.prefix 0 (colon - start)
    && same src (colon + 1) q.local 0 (stop - colon - 1)

(* The parts of the lexical name [src.[start .. stop)], taken from
   [cached] when it [spelled] the same name. *)
let prefix_of st ~cached ~spelled start colon =
  if colon < 0 then ""
  else if spelled then cached.Qname.prefix
  else String.sub st.src start (colon - start)

let local_of st ~cached ~spelled start colon stop =
  if spelled then cached.Qname.local
  else
    let from = if colon < 0 then start else colon + 1 in
    String.sub st.src from (stop - from)

(* Offset of the first occurrence of [s] at or after [i], or -1. *)
let rec find st i s =
  if i + String.length s > st.lim then -1
  else if same st.src i s 0 (String.length s) then i
  else find st (i + 1) s

let add_utf8 buf code =
  let add c = Buffer.add_char buf (Char.unsafe_chr c) in
  if code < 0x80 then add code
  else if code < 0x800 then (
    add (0xC0 lor (code lsr 6));
    add (0x80 lor (code land 0x3F)))
  else if code < 0x10000 then (
    add (0xE0 lor (code lsr 12));
    add (0x80 lor ((code lsr 6) land 0x3F));
    add (0x80 lor (code land 0x3F)))
  else (
    add (0xF0 lor (code lsr 18));
    add (0x80 lor ((code lsr 12) land 0x3F));
    add (0x80 lor ((code lsr 6) land 0x3F));
    add (0x80 lor (code land 0x3F)))

(* Entity and character-reference expansion at [&], into [buf]. *)
let expand_ref st buf =
  st.pos <- st.pos + 1;
  if at st '#' then (
    st.pos <- st.pos + 1;
    let hex = at st 'x' in
    if hex then st.pos <- st.pos + 1;
    let base = if hex then 16 else 10 in
    let digit c =
      match c with
      | '0' .. '9' -> Char.code c - 48
      | 'a' .. 'f' when hex -> Char.code c - 87
      | 'A' .. 'F' when hex -> Char.code c - 55
      | _ -> -1
    in
    let code = ref 0 and digits = ref 0 in
    while st.pos < st.lim && digit (String.unsafe_get st.src st.pos) >= 0 do
      (* past U+10FFFF the value is rejected below; stop growing it *)
      if !code <= 0x10FFFF then
        code := (!code * base) + digit (String.unsafe_get st.src st.pos);
      incr digits;
      st.pos <- st.pos + 1
    done;
    expect st ";";
    if !digits = 0 || !code > 0x10FFFF then error st "bad character reference";
    add_utf8 buf !code)
  else
    let start = scan_ncname st in
    let len = st.pos - start in
    let is s = len = String.length s && same st.src start s 0 len in
    expect st ";";
    if is "lt" then Buffer.add_char buf '<'
    else if is "gt" then Buffer.add_char buf '>'
    else if is "amp" then Buffer.add_char buf '&'
    else if is "apos" then Buffer.add_char buf '\''
    else if is "quot" then Buffer.add_char buf '"'
    else error st "unknown entity &%s;" (String.sub st.src start len)

(* Scan a run of characters up to (not including) one of [stop1]/[stop2]
   or the window end; returns nothing, leaves [pos] at the stopper. *)
let scan_until st stop1 stop2 =
  while
    st.pos < st.lim
    &&
    let c = String.unsafe_get st.src st.pos in
    c <> stop1 && c <> stop2
  do
    st.pos <- st.pos + 1
  done

(* An attribute value; [like] itself when the value spells it. *)
let read_attr_value st ~like =
  let quote =
    if at st '"' || at st '\'' then String.unsafe_get st.src st.pos
    else error st "expected attribute value"
  in
  st.pos <- st.pos + 1;
  let start = st.pos in
  scan_until st quote '&';
  if at st quote then (
    let len = st.pos - start in
    st.pos <- st.pos + 1;
    if String.length like = len && same st.src start like 0 len then like
    else String.sub st.src start len)
  else
    (* references present: expand into a buffer *)
    let buf = Buffer.create (st.pos - start + 16) in
    Buffer.add_substring buf st.src start (st.pos - start);
    let rec loop () =
      if st.pos >= st.lim then error st "unterminated attribute value"
      else if at st quote then st.pos <- st.pos + 1
      else if at st '&' then (
        expand_ref st buf;
        loop ())
      else
        let run = st.pos in
        scan_until st quote '&';
        Buffer.add_substring buf st.src run (st.pos - run);
        loop ()
    in
    loop ();
    Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Namespace scopes                                                    *)
(* ------------------------------------------------------------------ *)

(* The binding stack of a non-empty prefix. *)
let prefix_stack st prefix =
  match Hashtbl.find st.prefixed prefix with
  | stack -> stack
  | exception Not_found ->
      let stack = ref [] in
      Hashtbl.replace st.prefixed prefix stack;
      stack

let lookup_ns st prefix =
  if is_empty prefix then match st.default_ns with u :: _ -> u | [] -> ""
  else
    match !(prefix_stack st prefix) with
    | u :: _ -> u
    | [] ->
        if prefix = "xml" then Qname.ns_xml
        else error st "unbound namespace prefix %S" prefix

(* xmlns="uri" and xmlns:p="uri" attributes *)
let is_decl (a : Tree.attr) =
  if is_empty a.name.prefix then a.name.local = "xmlns" else a.name.prefix = "xmlns"

let push_ns st (d : Tree.attr) =
  if is_empty d.name.prefix then st.default_ns <- d.value :: st.default_ns
  else
    let stack = prefix_stack st d.name.local in
    stack := d.value :: !stack

let pop_ns st (d : Tree.attr) =
  if is_empty d.name.prefix then st.default_ns <- List.tl st.default_ns
  else
    let stack = prefix_stack st d.name.local in
    stack := List.tl !stack

(* A tag's declarations, listed last first, pushed first to last so the
   last declaration of a prefix is the one in force. *)
let rec push_decls st = function
  | [] -> ()
  | d :: rest ->
      push_decls st rest;
      push_ns st d

let rec pop_decls st = function
  | [] -> ()
  | d :: rest ->
      pop_ns st d;
      pop_decls st rest

(* The element name [src.[start .. stop)], resolved and interned. *)
let element_name st start colon stop =
  let slot = slot_of_range st.src start stop in
  let cached = st.names.(slot) in
  let spelled = spells cached st.src start colon stop in
  let prefix = prefix_of st ~cached ~spelled start colon in
  let uri = lookup_ns st prefix in
  if spelled && String.equal cached.uri uri then cached
  else
    let q =
      { Qname.prefix; uri; local = local_of st ~cached ~spelled start colon stop }
    in
    st.names.(slot) <- q;
    q

(* An attribute name in name slot [slot]: an unprefixed one is in no
   namespace; a prefixed one is resolved by [resolve_attr] once every
   declaration of its tag is known. *)
let attribute_name st slot start colon stop =
  let cached = st.names.(slot) in
  let spelled = spells cached st.src start colon stop in
  if spelled && (colon >= 0 || is_empty cached.uri) then cached
  else
    let q =
      {
        Qname.prefix = prefix_of st ~cached ~spelled start colon;
        uri = "";
        local = local_of st ~cached ~spelled start colon stop;
      }
    in
    if colon < 0 then st.names.(slot) <- q;
    q

let resolve_attr st (a : Tree.attr) =
  if is_empty a.name.prefix then a
  else
    let uri = lookup_ns st a.name.prefix in
    if String.equal uri a.name.uri then a
    else
      let q = { a.name with uri } in
      st.names.(slot_of_qname q) <- q;
      { a with name = q }

(* ------------------------------------------------------------------ *)
(* Markup                                                              *)
(* ------------------------------------------------------------------ *)

let read_comment st =
  expect st "<!--";
  let start = st.pos in
  let stop = find st st.pos "-->" in
  if stop < 0 then error st "unterminated comment";
  st.pos <- stop + 3;
  Tree.Comment (String.sub st.src start (stop - start))

let read_pi st =
  expect st "<?";
  let target = read_ncname st in
  skip_space st;
  let start = st.pos in
  let stop = find st st.pos "?>" in
  if stop < 0 then error st "unterminated PI";
  st.pos <- stop + 2;
  Tree.Pi { target; data = String.sub st.src start (stop - start) }

let skip_doctype st =
  expect st "<!DOCTYPE";
  let depth = ref 1 in
  while !depth > 0 do
    if st.pos >= st.lim then error st "unterminated DOCTYPE";
    (match String.unsafe_get st.src st.pos with
    | '<' -> incr depth
    | '>' -> decr depth
    | _ -> ());
    st.pos <- st.pos + 1
  done

let rec skip_misc st =
  skip_space st;
  if looking_at st "<!--" then (
    ignore (read_comment st);
    skip_misc st)
  else if looking_at st "<?" then (
    ignore (read_pi st);
    skip_misc st)
  else if looking_at st "<!DOCTYPE" then (
    skip_doctype st;
    skip_misc st)

let rec has_non_space s i stop =
  i < stop && ((not (is_space (String.unsafe_get s i))) || has_non_space s (i + 1) stop)

let ignorable = Tree.Text ""

(* Character data up to the next markup other than CDATA; [ignorable]
   when it is all whitespace and whitespace is not preserved. *)
let read_text st =
  let start = st.pos in
  scan_until st '<' '&';
  if st.pos >= st.lim || ((not (looking_at st "<![CDATA[")) && at st '<') then
    (* the common case: one plain run *)
    if st.pos > start && (st.preserve_space || has_non_space st.src start st.pos) then
      Tree.Text (String.sub st.src start (st.pos - start))
    else ignorable
  else
    let buf = Buffer.create (st.pos - start + 16) in
    Buffer.add_substring buf st.src start (st.pos - start);
    let rec loop () =
      if looking_at st "<![CDATA[" then (
        st.pos <- st.pos + 9;
        let stop = find st st.pos "]]>" in
        if stop < 0 then error st "unterminated CDATA";
        Buffer.add_substring buf st.src st.pos (stop - st.pos);
        st.pos <- stop + 3;
        loop ())
      else if at st '&' then (
        expand_ref st buf;
        loop ())
      else if st.pos < st.lim && not (at st '<') then (
        let run = st.pos in
        scan_until st '<' '&';
        Buffer.add_substring buf st.src run (st.pos - run);
        loop ())
    in
    loop ();
    let t = Buffer.contents buf in
    if t <> "" && (st.preserve_space || has_non_space t 0 (String.length t)) then
      Tree.Text t
    else ignorable

(* Match the end tag [</qname>] in place against the start tag's lexical
   name, held in [src.[qstart .. qstart+qlen)]. *)
let end_tag st qstart qlen =
  expect st "</";
  let p = st.pos in
  let matches =
    p + qlen <= st.lim
    && same st.src p st.src qstart qlen
    && not
         (p + qlen < st.lim
         && (is_name_char st.src.[p + qlen] || st.src.[p + qlen] = ':'))
  in
  if not matches then (
    let start = st.pos in
    ignore (scan_qname st);
    error st "mismatched end tag </%s>, expected </%s>"
      (String.sub st.src start (st.pos - start))
      (String.sub st.src qstart qlen));
  st.pos <- p + qlen;
  skip_space st;
  expect st ">"

(* The attributes of a start tag, namespace declarations included, last
   first. *)
let rec read_attrs st acc =
  skip_space st;
  if st.pos < st.lim && is_name_start (String.unsafe_get st.src st.pos) then (
    let start = st.pos in
    let colon = scan_qname st in
    let slot = slot_of_range st.src start st.pos in
    let name = attribute_name st slot start colon st.pos in
    skip_space st;
    expect st "=";
    skip_space st;
    let value = read_attr_value st ~like:st.values.(slot) in
    if value != st.values.(slot) then st.values.(slot) <- value;
    read_attrs st ({ Tree.name; value } :: acc))
  else acc

(* The elements whose start tag has been read and whose end tag has not,
   innermost first, above the document level. *)
type stack =
  | Top of { mutable root : Tree.t list }
  | Open of {
      name : Qname.t;
      attrs : Tree.attr list;
      decls : Tree.attr list;  (** namespace declarations to pop *)
      qstart : int;  (** the start tag's lexical name is [src.[qstart .. +qlen)] *)
      qlen : int;
      mutable kids : Tree.t list;  (** content so far, last first *)
      up : stack;
    }

let add_kid stack node =
  match stack with
  | Top t -> t.root <- node :: t.root
  | Open o -> o.kids <- node :: o.kids

(* Read a start tag.  An empty-element tag is complete: it joins the
   content of the innermost open element and [stack] is returned; any
   other start tag opens an element on top of [stack]. *)
let start_tag st stack =
  st.pos <- st.pos + 1;
  let qstart = st.pos in
  let colon = scan_qname st in
  let qlen = st.pos - qstart in
  let rev_attrs = read_attrs st [] in
  let decls, rev_attrs =
    if not (List.exists is_decl rev_attrs) then ([], rev_attrs)
    else if List.for_all is_decl rev_attrs then (rev_attrs, [])
    else List.partition is_decl rev_attrs
  in
  push_decls st decls;
  let name = element_name st qstart colon (qstart + qlen) in
  let attrs =
    match rev_attrs with
    | [] -> []
    | [ a ] ->
        let a' = resolve_attr st a in
        if a' == a then rev_attrs else [ a' ]
    | _ -> List.rev_map (resolve_attr st) rev_attrs
  in
  skip_space st;
  if looking_at st "/>" then (
    st.pos <- st.pos + 2;
    pop_decls st decls;
    add_kid stack (Tree.Element { name; attrs; children = [] });
    stack)
  else (
    expect st ">";
    Open { name; attrs; decls; qstart; qlen; kids = []; up = stack })

let add_text st stack =
  let t = read_text st in
  if t != ignorable then add_kid stack t

(* The root element and everything inside it.  Open elements live on an
   explicit stack, so nesting depth costs heap, not call stack. *)
let read_root st =
  let rec content stack =
    match stack with
    | Top { root = [ root ] } -> root
    | Top _ -> assert false
    | Open o ->
        if st.pos >= st.lim then error st "expected %S" "</"
        else if at st '<' then
          let next = if st.pos + 1 < st.lim then String.unsafe_get st.src (st.pos + 1) else '<' in
          match next with
          | '/' -> end_element stack
          | '!' when looking_at st "<!--" ->
              o.kids <- read_comment st :: o.kids;
              content stack
          | '!' when looking_at st "<![CDATA[" ->
              add_text st stack;
              content stack
          | '?' ->
              o.kids <- read_pi st :: o.kids;
              content stack
          | _ -> content (start_tag st stack)
        else (
          add_text st stack;
          content stack)
  and end_element = function
    | Top _ -> assert false
    | Open o ->
        end_tag st o.qstart o.qlen;
        pop_decls st o.decls;
        let children =
          match o.kids with ([] | [ _ ]) as kids -> kids | kids -> List.rev kids
        in
        add_kid o.up (Tree.Element { name = o.name; attrs = o.attrs; children });
        content o.up
  in
  content (start_tag st (Top { root = [] }))

let no_name = Qname.make ""

let parse ~preserve_space s ~pos ~len =
  let st =
    {
      src = s; pos; lim = pos + len; preserve_space; default_ns = [];
      prefixed = Hashtbl.create 8;
      names = Array.make name_slots no_name;
      values = Array.make name_slots "";
    }
  in
  if looking_at st "<?xml" then ignore (read_pi st);
  skip_misc st;
  let root = read_root st in
  skip_misc st;
  Tree.Document [ root ]

(** [document s] parses a complete XML document into a [Tree.Document].
    Ignorable (all-whitespace) text is dropped unless [preserve_space]. *)
let document ?(preserve_space = false) s =
  parse ~preserve_space s ~pos:0 ~len:(String.length s)

(** [document_sub s ~pos ~len] parses the document occupying the window
    [s.[pos .. pos+len)] — the streaming hook for servers whose network
    buffer holds the envelope embedded in a larger byte stream: no
    substring is ever materialized. *)
let document_sub ?(preserve_space = false) s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Xml_parse.document_sub";
  parse ~preserve_space s ~pos ~len
