(* Shared measurement plumbing: clock, order statistics, GC and RSS
   readings, seeded inputs, workload parameters and the result record
   every workload fills in. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ------------------------------------------------------------------ *)
(* Order statistics                                                    *)
(* ------------------------------------------------------------------ *)

(* Nearest-rank percentile of an unsorted sample (p in 0..100). *)
let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let rank_index n p =
  max 0 (min (n - 1) (int_of_float (ceil (p /. 100. *. float_of_int n)) - 1))

let percentile_sorted a p =
  if Array.length a = 0 then nan else a.(rank_index (Array.length a) p)

let percentile xs p = percentile_sorted (sorted xs) p
let median xs = percentile xs 50.

(* samples strictly above the [p]-th percentile's rank *)
let beyond n p = if n = 0 then 0 else n - (rank_index n p + 1)

(* ------------------------------------------------------------------ *)
(* Process readings                                                    *)
(* ------------------------------------------------------------------ *)

external pin_cpu : int -> bool = "perfbench_pin_cpu" [@@noalloc]

(* Every workload runs on one CPU, CPU 1 where it exists: the benchmark's
   threads and, on rpc_http, the server process it spawns.  rpc_http's
   closed-loop rate then measures the CPU cost of a request on both
   sides; spread over two CPUs it also measured cross-CPU wake-ups, which
   on a virtual machine vary with the host (ten unpinned 30 s runs moved
   between 6.3k and 12.1k echoes/s).  CPU 0 takes most interrupts. *)
let pin_one_cpu () = if not (pin_cpu 1) then ignore (pin_cpu 0)


(* VmHWM (peak resident set) of a process, in MB. *)
let rss_peak_mb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
      let rec loop () =
        match input_line ic with
        | exception End_of_file -> nan
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf
                (String.sub line 6 (String.length line - 6))
                " %d kB"
                (fun kb -> float_of_int kb /. 1024.)
            else loop ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) loop

type gc_mark = { minor_words : float; major_collections : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  { minor_words = s.Gc.minor_words; major_collections = s.Gc.major_collections }

let gc_since m =
  let n = gc_mark () in
  ( n.minor_words -. m.minor_words,
    n.major_collections - m.major_collections )

(* ------------------------------------------------------------------ *)
(* Seeded inputs                                                       *)
(* ------------------------------------------------------------------ *)

(* Every input a workload generates comes from [rng seed salt]: the same
   seed gives the same documents, keys, offsets and strings. *)
let rng seed salt = Random.State.make [| seed; salt; 0x5eed |]

(* ------------------------------------------------------------------ *)
(* Workload parameters                                                 *)
(* ------------------------------------------------------------------ *)

(* [--param key=value] pairs: run.py passes each workload's
   parameters from workloads.json, so the numbers live in one place. *)
let params : (string, string) Hashtbl.t = Hashtbl.create 16

let param key =
  match Hashtbl.find_opt params key with
  | Some v -> v
  | None -> failwith ("missing workload parameter " ^ key)

let param_int key = int_of_string (param key)
let param_float key = float_of_string (param key)

let param_floats key =
  List.map float_of_string (String.split_on_char ',' (param key))

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

(* What one run reports: operation counts, the wrong answers among the
   failures, and named metric values in insertion order. *)
type result = {
  mutable attempted : int;
  mutable failed : int;
  mutable wrong : int;
  mutable metrics : (string * float) list;  (* newest first *)
}

let result () = { attempted = 0; failed = 0; wrong = 0; metrics = [] }
let put r name v = r.metrics <- (name, v) :: r.metrics

let report fmt = Printf.printf ("  " ^^ fmt ^^ "\n%!")

(* A failed or wrong operation: counted, and the first few described.
   Generator threads may fail concurrently. *)
let fail_lock = Mutex.create ()

let fail r ~wrong fmt =
  Printf.ksprintf
    (fun msg ->
      Mutex.protect fail_lock (fun () ->
          r.failed <- r.failed + 1;
          if wrong then r.wrong <- r.wrong + 1;
          if r.failed <= 5 then report "FAILED: %s" msg))
    fmt

(* Median and a fixed tail percentile of a latency sample (seconds),
   stored in ms under [prefix]_p50_ms / [prefix]_tail_ms; the report
   line names the percentile and how many samples lie beyond it. *)
let latencies r ~prefix ~tail_pct samples =
  let a = sorted samples in
  let n = Array.length a in
  let p50 = percentile_sorted a 50. *. 1000.
  and tail = percentile_sorted a tail_pct *. 1000. in
  put r (prefix ^ "_p50_ms") p50;
  put r (prefix ^ "_tail_ms") tail;
  report "%s: p50 %.4f ms, p%g %.4f ms (%d samples, %d beyond the tail%s)"
    prefix p50 tail_pct tail n (beyond n tail_pct)
    (if beyond n tail_pct < 10 then " -- FEWER THAN 10" else "")

(* Run [op i] for i = 0, 1, ... until [seconds] have passed and at least
   [min_ops] ran; returns the number of operations and the elapsed time. *)
let closed_loop ~seconds ~min_ops op =
  let t0 = now () in
  let deadline = t0 +. seconds in
  let rec go i =
    if i >= min_ops && now () >= deadline then i
    else begin
      op i;
      go (i + 1)
    end
  in
  let n = go 0 in
  (n, now () -. t0)

(* Set-up time: [build] runs [reps] times and the median is reported;
   the environment of the last repetition is kept, the others released
   before the next one starts. *)
let setup r ~reps ~release build =
  let times = ref [] and env = ref None in
  for _ = 1 to reps do
    Option.iter release !env;
    env := None;
    Gc.compact ();
    let e, dt = time build in
    times := dt :: !times;
    env := Some e
  done;
  let s = median !times in
  put r "setup_s" s;
  report "setup: median %.4f s over %d set-ups" s reps;
  Option.get !env
