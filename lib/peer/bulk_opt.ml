(** Set-oriented execution of Bulk RPC requests.

    §1 of the paper: "Bulk RPC exposes bulk execution opportunities, such
    that e.g. a function that selects with a constant argument is turned
    into a join against the sequence of all arguments"; §4 observes Saxon
    doing exactly this for the bulk [getPerson] request.  This module
    recognizes the selection pattern [PATH[key = $param]] in a function
    body and answers an n-call bulk request with a single scan + hash join
    instead of n scans.  Used by both the native {!Peer} engine (where it
    models MonetDB's loop-lifted join plans) and the §4 {!Wrapper}. *)

open Xrpc_xml
module Xast = Xrpc_xquery.Ast
module Xctx = Xrpc_xquery.Context

(* Cardinality wrappers, and the result sizes each lets through *)
let wrappers =
  [ ("zero-or-one", fun n -> n <= 1); ("exactly-one", fun n -> n = 1);
    ("one-or-more", fun n -> n >= 1) ]

(* Strip the wrappers around [e]; returns [e]'s inner expression and the
   stripped wrappers' checks. *)
let rec strip_wrappers (e : Xast.expr) =
  match e with
  | Xast.Call (q, [ arg ]) when List.mem_assoc q.Qname.local wrappers ->
      let inner, checks = strip_wrappers arg in
      (inner, List.assoc q.Qname.local wrappers :: checks)
  | e -> (e, [])

(** Recognize [PATH[key = $param]] with the predicate on the final step,
    possibly under cardinality wrappers; returns (path without the
    predicate, key expression, parameter, comparison, the wrappers'
    cardinality checks). *)
let selection_pattern (params : Qname.t list) (body : Xast.expr) =
  let is_param v = List.exists (Qname.equal v) params in
  let split_pred = function
    | Xast.Compare (((Xast.G_eq | Xast.V_eq) as op), k, Xast.Var v)
      when is_param v ->
        Some (k, v, op)
    | Xast.Compare (((Xast.G_eq | Xast.V_eq) as op), Xast.Var v, k)
      when is_param v ->
        Some (k, v, op)
    | _ -> None
  in
  let body, checks = strip_wrappers body in
  match body with
  | Xast.Path (prefix, Xast.Step (axis, test, [ pred ])) -> (
      match split_pred pred with
      | Some (k, v, op) ->
          Some (Xast.Path (prefix, Xast.Step (axis, test, [])), k, v, op, checks)
      | None -> None)
  | Xast.Filter (e, [ pred ]) -> (
      match split_pred pred with
      | Some (k, v, op) -> Some (e, k, v, op, checks)
      | None -> None)
  | _ -> None

(* Keys the join may compare as strings: between two of these, general and
   value comparison both come down to comparing their string values.
   Against a numeric, boolean or date key an untyped value is cast first,
   so the join does not apply. *)
let string_like = function
  | Xs.String _ | Xs.Untyped _ | Xs.AnyURI _ -> true
  | _ -> false

exception Not_joinable

(** [hash_join_execute ctx f calls] answers all [calls] of a bulk request
    to function [f] with one scan if the body is a selection whose only
    call-dependent input is the selection key.  The calls' arguments are
    converted to the declared parameter types first, as a call would.
    Returns [None] when the pattern does not apply or the join could
    answer differently from one call at a time: a probe key that is not
    exactly one string-like value, a build key that is not string-like,
    several keys on one node under [eq], or a joined result that a
    stripped cardinality wrapper or the declared return type would
    reject (caller falls back to call-at-a-time, which raises the
    error). *)
let hash_join_execute ctx (f : Xctx.func) (calls : Xdm.sequence list list) =
  let decl = f.Xctx.decl in
  let params = List.map fst decl.Xast.fn_params in
  match (Option.bind decl.Xast.fn_body (selection_pattern params), calls) with
  | None, _ -> None
  | Some _, [] -> Some []
  | Some _, [ _ ] -> None (* a single call gains nothing; keep the plain plan *)
  | Some (path, key_expr, join_param, op, checks), _ -> (
      let fname = Qname.to_string decl.Xast.fn_name in
      let convert call =
        try
          List.map2
            (fun (q, ty) v -> Xrpc_xquery.Eval.convert_argument ~fname q ty v)
            decl.Xast.fn_params call
        with
        | Xrpc_xquery.Eval.Error _ | Xdm.Dynamic_error _ | Xs.Type_error _
        | Invalid_argument _
        ->
          raise Not_joinable
      in
      let join_idx =
        match List.find_index (fun p -> Qname.equal p join_param) params with
        | Some i -> i
        | None -> assert false
      in
      let others call = List.filteri (fun i _ -> i <> join_idx) call in
      let probe call =
        match Xdm.atomize (List.nth call join_idx) with
        | [ k ] when string_like k -> Xs.to_string k
        | _ -> raise Not_joinable
      in
      try
        let calls = List.map convert calls in
        let first_call = List.hd calls in
        (* non-join parameters must be constant across calls for the
           single-scan plan to be valid (they are in the paper's
           getPerson experiment: the document name) *)
        if
          not
            (List.for_all
               (fun call ->
                 List.for_all2 Xdm.deep_equal (others call) (others first_call))
               calls)
        then raise Not_joinable;
        let probes = List.map probe calls in
        (* build side: one evaluation of the path *)
        let bind_ctx =
          List.fold_left2 (fun c p v -> Xctx.bind_var c p v) ctx params first_call
        in
        let index = Hashtbl.create 64 in
        List.iter
          (fun item ->
            let ictx = Xctx.with_context_item bind_ctx item 1 1 in
            let keys = Xdm.atomize (Xrpc_xquery.Eval.eval ictx key_expr) in
            if
              (op = Xast.V_eq && List.length keys > 1)
              || not (List.for_all string_like keys)
            then raise Not_joinable;
            List.iter
              (fun key ->
                let k = Xs.to_string key in
                (* a node matching on two of its keys joins once *)
                match Hashtbl.find_opt index k with
                | Some it when it == item -> ()
                | _ -> Hashtbl.add index k item)
              keys)
          (Xrpc_xquery.Eval.eval bind_ctx path);
        (* probe side: one lookup per call *)
        let results =
          List.map (fun k -> List.rev (Hashtbl.find_all index k)) probes
        in
        let accept r =
          List.for_all (fun ok -> ok (List.length r)) checks
          && Option.fold ~none:true
               ~some:(fun st -> Xrpc_xquery.Eval.seq_type_matches st r)
               decl.Xast.fn_return
        in
        if List.for_all accept results then Some results else None
      with Not_joinable -> None)
