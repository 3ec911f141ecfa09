(** Expanded qualified names for XML nodes and XQuery functions.

    A [Qname.t] carries the original prefix (for serialization fidelity), the
    namespace URI it resolved to, and the local part.  Equality and ordering
    ignore the prefix, per the XQuery Data Model. *)

type t = {
  prefix : string;  (** original lexical prefix, ["" ] if none *)
  uri : string;  (** namespace URI, [""] if in no namespace *)
  local : string;  (** local part *)
}

let make ?(prefix = "") ?(uri = "") local = { prefix; uri; local }

(** Well-known namespace URIs used throughout the XRPC stack. *)
let ns_xml = "http://www.w3.org/XML/1998/namespace"

let ns_xs = "http://www.w3.org/2001/XMLSchema"
let ns_xsi = "http://www.w3.org/2001/XMLSchema-instance"
let ns_env = "http://www.w3.org/2003/05/soap-envelope"
let ns_xrpc = "http://monetdb.cwi.nl/XQuery"
let ns_fn = "http://www.w3.org/2005/xpath-functions"

let equal a b = String.equal a.local b.local && String.equal a.uri b.uri

let compare a b =
  match String.compare a.uri b.uri with
  | 0 -> String.compare a.local b.local
  | c -> c

let hash t = Hashtbl.hash (t.uri, t.local)

(** [to_string q] prints the lexical form [prefix:local] (or just [local]). *)
let to_string t = if t.prefix = "" then t.local else t.prefix ^ ":" ^ t.local

(** [expanded q] prints Clark notation [{uri}local], useful in errors. *)
let expanded t = if t.uri = "" then t.local else "{" ^ t.uri ^ "}" ^ t.local

(** [split s] splits a lexical QName ["p:l"] into [(prefix, local)]. *)
let split s =
  match String.index_opt s ':' with
  | None -> ("", s)
  | Some i ->
      (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
