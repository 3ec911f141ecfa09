(** Program execution: prolog processing, module imports, query runs.

    A module resolver maps a module namespace URI plus its at-hint location
    to XQuery source text.  Peers resolve module URIs against their module
    registry (or, in a fuller deployment, fetch the at-hint over HTTP —
    exactly what [import module ... at "http://x.example.org/film.xq"]
    suggests in the paper's examples). *)

open Xrpc_xml

exception Module_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Module_error s)) fmt

type module_resolver = uri:string -> location:string -> string

(** Prolog pass 1 — imports (recursively), function registration and
    [declare option] values, all of which mutate [ctx] in place and depend
    only on the source text and the module registry.  Nothing is
    evaluated, so the result is what a plan cache may keep; the variable
    bindings of pass 2 ({!bind_globals}) are database-dependent and must
    re-run per execution.  Imported modules' own global variables are
    never bound. *)
let rec load_prolog_static (ctx : Context.t) ~(resolver : module_resolver)
    ?(visited = ref []) (prog : Ast.prog) : unit =
  let module_uri, location =
    match prog.Ast.module_decl with
    | Some (_pfx, uri) -> (uri, "")
    | None -> ("", "")
  in
  List.iter
    (fun decl ->
      match decl with
      | Ast.P_import_module (_pfx, uri, at) ->
          let at = Option.value ~default:"" at in
          ctx.Context.imports := (uri, at) :: !(ctx.Context.imports);
          if not (List.mem uri !visited) then (
            visited := uri :: !visited;
            let source = resolver ~uri ~location:at in
            let sub = Parser.parse_prog source in
            (match sub.Ast.module_decl with
            | Some (_, sub_uri) when sub_uri <> uri ->
                err "module at %s declares namespace %s, expected %s" at
                  sub_uri uri
            | Some _ -> ()
            | None -> err "imported %s is not a library module" uri);
            load_prolog_static ctx ~resolver ~visited sub)
      | Ast.P_function f ->
          let location =
            if location <> "" then location
            else
              match
                List.assoc_opt f.Ast.fn_name.Qname.uri !(ctx.Context.imports)
              with
              | Some at -> at
              | None -> ""
          in
          let module_uri =
            if module_uri <> "" then module_uri else f.Ast.fn_name.Qname.uri
          in
          Context.register_function ctx ~module_uri ~location f
      | Ast.P_option (q, v) -> Context.set_option ctx q v
      | _ -> ())
    prog.Ast.prolog

(** Pass 2 — bind this program's global variables, in declaration order.
    Evaluation may read documents (and even the network, through
    [execute at] in an initializer), so it runs once per execution and is
    never cached. *)
let bind_globals (ctx : Context.t) (prog : Ast.prog) : Context.t =
  List.fold_left
    (fun ctx decl ->
      match decl with
      | Ast.P_var (v, e) -> Context.bind_var ctx v (Eval.eval ctx e)
      | _ -> ctx)
    ctx prog.Ast.prolog

(** [load_prolog ctx ~resolver prog] processes a parsed program's prolog:
    pass 1 ({!load_prolog_static}), then pass 2 ({!bind_globals}).
    Returns the extended context. *)
let load_prolog (ctx : Context.t) ~(resolver : module_resolver)
    (prog : Ast.prog) : Context.t =
  load_prolog_static ctx ~resolver prog;
  bind_globals ctx prog

(** Check whether a program's body contains any updating expression or call
    to a declared updating function — used by peers to classify queries. *)
let prog_is_updating (ctx : Context.t) (prog : Ast.prog) =
  let declared_updating q args =
    Option.map
      (fun f -> f.Context.decl.Ast.fn_updating)
      (Context.find_function ctx q (List.length args))
  in
  let updating (e : Ast.expr) =
    match e with
    | Ast.Insert _ | Ast.Delete _ | Ast.Replace_node _ | Ast.Replace_value _
    | Ast.Rename_node _ ->
        true
    | Ast.Call (q, args) -> (
        match declared_updating q args with
        | Some u -> u
        | None -> q.Qname.local = "put" && (q.Qname.uri = Qname.ns_fn || q.Qname.uri = ""))
    | Ast.Execute_at (_, q, args) ->
        Option.value ~default:false (declared_updating q args)
    | _ -> false
  in
  match prog.Ast.body with Some e -> Ast.exists_expr updating e | None -> false

(* ------------------------------------------------------------------ *)
(* Shard-aware [execute at] destinations                               *)
(* ------------------------------------------------------------------ *)

(** The virtual shard scheme: [execute at {"xrpc://shard/<key>"}] names a
    {e key}, not a peer.  A shard router installed on the evaluation
    context ({!Context.t.dest_resolver}, built with {!shard_resolver})
    rewrites it to the URI of a live peer holding that key before Bulk
    RPC batching — so two keys hashing to the same peer still share one
    message, and the query text never hard-codes the topology. *)
let shard_scheme = "xrpc://shard/"

let is_shard_dest d =
  String.length d > String.length shard_scheme
  && String.sub d 0 (String.length shard_scheme) = shard_scheme

(** The key a virtual shard destination names ([None] for ordinary
    destinations). *)
let shard_key d =
  if is_shard_dest d then
    Some
      (String.sub d
         (String.length shard_scheme)
         (String.length d - String.length shard_scheme))
  else None

(** [shard_resolver ~route] — the {!Context.t.dest_resolver} that sends
    shard-scheme destinations through [route] (key to concrete peer URI)
    and leaves every other destination untouched. *)
let shard_resolver ~(route : string -> string) : string -> string =
 fun d -> match shard_key d with Some key -> route key | None -> d

(* ------------------------------------------------------------------ *)
(* Static [execute at] site analysis                                   *)
(* ------------------------------------------------------------------ *)

(** One [execute at] application found in a query body — the unit the
    distributed-strategy optimizer costs.  [site_dest] is the destination
    URI when it is a string literal (the common case in §5's plans);
    [site_in_loop] marks Bulk-RPC candidates (the site sits under at least
    one enclosing [for] binding); [site_loop_dependent] says whether the
    call's destination or arguments reference variables bound by the
    enclosing FLWOR — a loop-dependent site is the semi-join shape, a
    loop-invariant one hoists to a single call (the Q7_1 pattern). *)
type execute_site = {
  site_dest : string option;
  site_fn : Qname.t;
  site_arity : int;
  site_in_loop : bool;
  site_loop_dependent : bool;
}

(** [execute_sites prog] — every [execute at] site in [prog]'s body, in
    syntactic order.  Purely static: nothing is evaluated. *)
let execute_sites (prog : Ast.prog) : execute_site list =
  let acc = ref [] in
  let module VS = Ast.Var_set in
  let rec go ~fors ~bound (e : Ast.expr) =
    match e with
    | Ast.Execute_at (d, f, args) ->
        let dest =
          match d with
          | Ast.Literal (Xs.String s) -> Some s
          | _ -> None
        in
        let refs =
          List.fold_left
            (fun a arg -> VS.union a (Ast.free_vars arg))
            (Ast.free_vars d) args
        in
        acc :=
          {
            site_dest = dest;
            site_fn = f;
            site_arity = List.length args;
            site_in_loop = fors > 0;
            site_loop_dependent = not (VS.disjoint refs bound);
          }
          :: !acc;
        go ~fors ~bound d;
        List.iter (go ~fors ~bound) args
    | Ast.Flwor (clauses, order_by, ret) ->
        let fors', bound' =
          List.fold_left
            (fun (fors, bound) clause ->
              match clause with
              | Ast.For (v, posv, src) ->
                  go ~fors ~bound src;
                  let bound = VS.add (Ast.var_set_key v) bound in
                  let bound =
                    match posv with
                    | Some p -> VS.add (Ast.var_set_key p) bound
                    | None -> bound
                  in
                  (fors + 1, bound)
              | Ast.Let (v, src) ->
                  go ~fors ~bound src;
                  (fors, VS.add (Ast.var_set_key v) bound)
              | Ast.Where c ->
                  go ~fors ~bound c;
                  (fors, bound))
            (fors, bound) clauses
        in
        List.iter (fun (e, _) -> go ~fors:fors' ~bound:bound' e) order_by;
        go ~fors:fors' ~bound:bound' ret
    | Ast.Quantified (_, binds, sat) ->
        let bound' =
          List.fold_left
            (fun bound (v, src) ->
              go ~fors ~bound src;
              VS.add (Ast.var_set_key v) bound)
            bound binds
        in
        go ~fors ~bound:bound' sat
    | Ast.Sequence es -> List.iter (go ~fors ~bound) es
    | Ast.Range (a, b)
    | Ast.Arith (_, a, b)
    | Ast.Compare (_, a, b)
    | Ast.And (a, b)
    | Ast.Or (a, b)
    | Ast.Union (a, b)
    | Ast.Intersect (a, b)
    | Ast.Except (a, b)
    | Ast.Path (a, b)
    | Ast.Comp_elem (a, b)
    | Ast.Comp_attr (a, b)
    | Ast.Insert (_, a, b)
    | Ast.Replace_node (a, b)
    | Ast.Replace_value (a, b)
    | Ast.Rename_node (a, b) ->
        go ~fors ~bound a;
        go ~fors ~bound b
    | Ast.If (c, t, el) ->
        go ~fors ~bound c;
        go ~fors ~bound t;
        go ~fors ~bound el
    | Ast.Call (_, args) -> List.iter (go ~fors ~bound) args
    | Ast.Step (_, _, preds) -> List.iter (go ~fors ~bound) preds
    | Ast.Filter (e, preds) ->
        go ~fors ~bound e;
        List.iter (go ~fors ~bound) preds
    | Ast.Elem_ctor (_, attrs, content) ->
        List.iter
          (fun (_, parts) ->
            List.iter
              (function
                | Ast.A_expr e -> go ~fors ~bound e
                | Ast.A_text _ -> ())
              parts)
          attrs;
        List.iter (go ~fors ~bound) content
    | Ast.Typeswitch (op, cases, (_, de)) ->
        go ~fors ~bound op;
        List.iter (fun (_, _, e) -> go ~fors ~bound e) cases;
        go ~fors ~bound de
    | Ast.Text_ctor e | Ast.Comment_ctor e | Ast.Doc_ctor e | Ast.Neg e
    | Ast.Instance_of (e, _)
    | Ast.Cast_as (e, _, _)
    | Ast.Castable_as (e, _, _)
    | Ast.Treat_as (e, _)
    | Ast.Delete e ->
        go ~fors ~bound e
    | Ast.Literal _ | Ast.Var _ | Ast.Context_item | Ast.Root -> ()
  in
  (match prog.Ast.body with
  | Some e -> go ~fors:0 ~bound:VS.empty e
  | None -> ());
  List.rev !acc

(** Parse-and-run a main-module query.  Returns the result sequence and the
    pending update list the query produced (empty for read-only queries —
    it is the {e caller's} job to [Update.apply] the PUL, per XQUF). *)
let run ?(ctx = Context.empty ()) ~(resolver : module_resolver) (source : string)
    : Xdm.sequence * Update.pul =
  let prog = Parser.parse_prog source in
  let ctx = load_prolog ctx ~resolver prog in
  match prog.Ast.body with
  | None -> err "cannot execute a library module"
  | Some body ->
      let result = Eval.eval ctx body in
      (result, List.rev !(ctx.Context.pul))
