(** Bounded-concurrency dispatch engine: thread pools and futures.

    The reusable fan-out primitive behind parallel Bulk RPC dispatch, 2PC
    broadcasts and the HTTP transport.  The {!sequential} executor runs
    everything inline on the calling thread — the injectable deterministic
    mode required when the transport underneath is the virtual-clock
    simulated network. *)

type t
(** An executor: a policy for running submitted thunks. *)

type 'a future
(** A handle on a result being computed (possibly on another thread). *)

val sequential : t
(** Runs submitted work inline, in submission order.  Deterministic; the
    only executor safe to combine with {!Simnet}. *)

val unbounded : t
(** One fresh thread per task (the historical HTTP fan-out behaviour). *)

val pool : int -> t
(** [pool n] — a shared queue served by [n] long-lived worker threads
    ([n] is clamped to at least 1).  Call {!shutdown} when done. *)

val threads : t -> int
(** Concurrency bound: 1 for {!sequential}, [max_int] for {!unbounded}. *)

val is_sequential : t -> bool

val queue_depth : t -> int
(** Jobs queued behind a pool's workers right now; 0 for {!sequential}
    and {!unbounded}.  The readiness probe's saturation signal, also
    exported as the windowed gauge [executor.queue_depth]. *)

val shutdown : t -> unit
(** Stop a pool's workers once the queue drains.  Later [submit]s fail;
    no-op for {!sequential} and {!unbounded}. *)

val submit : t -> (unit -> 'a) -> 'a future
(** Run a thunk under the executor.  The calling thread's ambient trace
    span is carried onto the worker, so spans and plan nodes opened by the
    thunk keep their logical parent.  On {!sequential} the thunk has already run
    (and its effects are visible) when [submit] returns. *)

val await : 'a future -> 'a
(** Block until resolved; re-raises the thunk's exception, if any. *)

val await_result : 'a future -> ('a, exn) result
(** Like {!await} but never raises. *)

val peek : 'a future -> ('a, exn) result option
(** Non-blocking: [None] while still pending. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** Parallel, order-preserving map.  Every element is evaluated even when
    some fail; the first failure in list order is then re-raised.  On
    {!sequential} this is exactly [List.map].  A pool worker fanning out
    onto its own pool degrades to inline execution instead of risking
    deadlock. *)
