(* Entry point: perfbench.exe --workload NAME --seed N --seconds S
   --trace 0|1 [--param key=value ...] [--server PATH]

   Prints a human-readable report and, as its last line,
   "RESULT {json}" with the operation counts and every metric measured;
   run.py turns that into the benchmark's result line. *)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 0. and trace = ref 0
  and server = ref "_build/default/bin/xrpc_server.exe" in
  let add_param s =
    match String.index_opt s '=' with
    | Some i ->
        Hashtbl.replace Measure.params (String.sub s 0 i)
          (String.sub s (i + 1) (String.length s - i - 1))
    | None -> raise (Arg.Bad ("--param expects key=value, got " ^ s))
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME bulk_xmark | rpc_http | update_mix");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run or traced per-layer run");
      ("--param", Arg.String add_param, "KEY=VALUE workload parameter");
      ("--server", Arg.Set_string server, "PATH xrpc_server executable (rpc_http)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let run =
    match !workload with
    | "bulk_xmark" -> Bulk_xmark.run
    | "update_mix" -> Update_mix.run
    | "rpc_http" -> Rpc_http.run ~server:!server
    | w ->
        prerr_endline ("unknown workload " ^ w);
        exit 2
  in
  if !seconds <= 0. || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "--seconds must be positive and --trace 0 or 1";
    exit 2
  end;
  Printf.printf "workload %s, seed %d, %g s, trace %d\n%!" !workload !seed
    !seconds !trace;
  Measure.pin_one_cpu ();
  let r = Measure.result () in
  run ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) r;
  Printf.printf
    "errors: %d of %d operations failed (error_rate %.6f), %d of them wrong answers\n"
    r.Measure.failed r.Measure.attempted
    (float_of_int r.Measure.failed /. float_of_int (max 1 r.Measure.attempted))
    r.Measure.wrong;
  let metrics =
    List.rev_map
      (fun (name, v) ->
        Printf.sprintf "%S: %s" name
          (if Float.is_finite v then Printf.sprintf "%.17g" v else "null"))
      r.Measure.metrics
  in
  Printf.printf
    "RESULT {\"attempted\": %d, \"failed\": %d, \"wrong\": %d, \"metrics\": {%s}}\n%!"
    r.Measure.attempted r.Measure.failed r.Measure.wrong
    (String.concat ", " metrics)
