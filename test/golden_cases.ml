(* The messages whose wire form test/golden/<name>.xml pins byte for
   byte.  The fixtures were captured by encoding these cases with the
   Tree-based SOAP codec that preceded the direct Store writer; test_codec
   checks that the writer still produces them, and that decoding then
   re-encoding each fixture reproduces it.  A deliberate change of the
   wire format re-captures them by writing [encode c] to
   golden/<c.name>.xml for every case.  Built on demand: every test
   executable of this directory links this module. *)

open Xrpc_xml
module Message = Xrpc_soap.Message

type case = {
  name : string;
  msg : Message.t;
  trace : (string * string) option;
  server_profile : (string * float) list option;
  profile_flag : bool;  (** encoded while client-side profiling is on *)
}

let case ?trace ?server_profile ?(profile_flag = false) name msg =
  { name; msg; trace; server_profile; profile_flag }

(* [encode c] — the case's wire string *)
let encode c =
  let enc () =
    Message.to_string ?trace:c.trace ?server_profile:c.server_profile c.msg
  in
  if c.profile_flag then fst (Xrpc_obs.Profile.profiled enc) else enc ()

let root_of xml = Store.root (Store.shred (Xml_parse.document xml))
let element xml = List.hd (Store.children (root_of xml))

(* the element children, depth-first, of [n] whose local name is [local] *)
let elements_named local n =
  List.filter
    (fun d ->
      Store.kind d = Store.Elem
      && match Store.name d with Some q -> q.Qname.local = local | None -> false)
    (Store.descendants n)

let request ?(module_uri = "test") ?(location = "http://x.example.org/test.xq")
    ?(updating = false) ?(fragments = false) ?query_id ?idem_key
    ?(cache_ok = true) ~method_ ~arity calls =
  Message.Request
    {
      Message.module_uri; location; method_; arity; updating; fragments;
      query_id; idem_key; cache_ok; calls;
    }

let response ?(module_uri = "test") ?(cached = false) ?db_version
    ?(peers = []) ~method_ results =
  Message.Response
    {
      Message.resp_module = module_uri; resp_method = method_; results;
      peers; cached; db_version;
    }

let qid level =
  { Message.host = "xrpc://x.example.org"; timestamp = "2007-09-23T10:00:00.5";
    timeout = 30; level }

(* one atomic of every Xs type, text with all five markup characters *)
let every_atomic =
  [
    Xs.String "a <b> & \"c\" 'd'";
    Xs.Boolean false;
    Xs.Integer (-42);
    Xs.Decimal 2.5;
    Xs.Double 1e300;
    Xs.Float (-0.125);
    Xs.Untyped "  spaced  ";
    Xs.AnyURI "http://example.org/?a=1&b=2";
    Xs.QName (Qname.make ~prefix:"p" "local");
    Xs.Date "2007-09-23";
    Xs.DateTime "2007-09-23T10:00:00Z";
    Xs.Time "10:00:00";
    Xs.Duration "P1DT2H";
    Xs.String "";
  ]

let node_params_doc =
  {|<p:a xmlns:p="urn:p" xmlns="urn:d" p:x="1" y="q&quot;&lt;&amp;"><b><c xmlns=""><d/></c></b><xrpc:e xmlns:xrpc="urn:not-xrpc"/><env:f xmlns:env="http://www.w3.org/2003/05/soap-envelope"/><!-- a comment --><?target some data?>text &amp; more<g p:z="2"/></p:a>|}

let cases () =
  let persons = root_of (Xrpc_workloads.Xmark.persons ~count:4 ()) in
  let person_nodes = elements_named "person" persons in
  let params = root_of node_params_doc in
  let a = List.hd (Store.children params) in
  let kids = Store.children a in
  let b = List.hd kids and attr = List.hd (Store.attributes a) in
  let comment = List.find (fun n -> Store.kind n = Store.Comm) kids in
  let pi = List.find (fun n -> Store.kind n = Store.Pi) kids in
  let text = List.find (fun n -> Store.kind n = Store.Txt) kids in
  let frag = element "<r><s><t>inner</t></s><u/></r>" in
  let s_node = List.hd (Store.children frag) in
  let t_node = List.hd (Store.children s_node) in
  [
    case "testmod_request"
      (request ~method_:"echo" ~arity:1
         (List.init 3 (fun i -> [ [ Xdm.int i; Xdm.str "0123456789abcdef" ] ])));
    case "testmod_echovoid_request"
      (request ~method_:"echoVoid" ~arity:0 [ []; [] ]);
    case "testmod_response"
      (response ~method_:"echo" ~peers:[ "xrpc://y" ]
         [ [ Xdm.int 0; Xdm.str "0123456789abcdef" ]; []; [ Xdm.bool true ] ]);
    case "xmark_request"
      (request ~module_uri:"functions"
         ~location:"http://example.org/functions.xq" ~method_:"getPerson"
         ~arity:2
         (List.init 4 (fun i ->
              [ [ Xdm.str "persons.xml" ];
                [ Xdm.str (Printf.sprintf "person%d" i) ] ])));
    case "xmark_response"
      (response ~module_uri:"functions" ~method_:"getPerson"
         ~peers:[ "xrpc://b" ]
         (List.map (fun p -> [ Xdm.Node p ]) person_nodes));
    case "atomics_request"
      (request ~method_:"echo" ~arity:1
         [ [ List.map (fun a -> Xdm.Atomic a) every_atomic ] ]);
    case "node_params_request"
      (request ~method_:"echo" ~arity:2
         [
           [ [ Xdm.Node a; Xdm.Node b ];
             [ Xdm.Node params; Xdm.Node attr; Xdm.Node comment; Xdm.Node pi;
               Xdm.Node text ] ];
         ]);
    case "node_params_response"
      (response ~method_:"echo"
         [ [ Xdm.Node a ]; [ Xdm.Node attr; Xdm.Node text ]; [ Xdm.Node params ] ]);
    case "fragments_request"
      (request ~method_:"echo" ~arity:3 ~fragments:true ~updating:true
         ~query_id:(qid Message.Repeatable) ~idem_key:"k-17" ~cache_ok:false
         [
           [ [ Xdm.Node frag ]; [ Xdm.Node t_node; Xdm.int 3 ]; [ Xdm.Node s_node ] ];
           [ [ Xdm.Node s_node ]; [ Xdm.Node t_node ]; [] ];
         ]);
    case "snapshot_request"
      (request ~method_:"ping" ~arity:1 ~query_id:(qid Message.Snapshot)
         [ [ [ Xdm.int 7 ] ] ]);
    case "traced_request" ~trace:("4f2a-trace", "17")
      (request ~method_:"ping" ~arity:1 [ [ [ Xdm.int 1 ] ] ]);
    case "profiled_request" ~profile_flag:true
      (request ~method_:"ping" ~arity:1 [ [ [ Xdm.int 1 ] ] ]);
    case "profiled_response" ~trace:("4f2a-trace", "18")
      ~server_profile:[ ("parse", 0.0125); ("compile", 1.5); ("exec", 12.); ("commit", 0.) ]
      (response ~method_:"ping" ~cached:true ~db_version:12 [ [ Xdm.int 1 ] ]);
    case "empty_response" (response ~method_:"echoVoid" []);
    case "fault_sender"
      (Message.Fault { fault_code = `Sender; reason = "bad <input> & \"quotes\"" });
    case "fault_receiver" (Message.Fault { fault_code = `Receiver; reason = "" });
    case "tx_prepare" (Message.Tx_request (Message.Prepare, qid Message.Repeatable));
    case "tx_commit" (Message.Tx_request (Message.Commit, qid Message.Snapshot));
    case "tx_rollback" (Message.Tx_request (Message.Rollback, qid Message.Repeatable));
    case "tx_status" (Message.Tx_request (Message.Status, qid Message.Repeatable));
    case "tx_result_ok" (Message.Tx_response { ok = true; info = "prepared" });
    case "tx_result_failed"
      (Message.Tx_response { ok = false; info = "conflict on <d.xml> & more" });
  ]
