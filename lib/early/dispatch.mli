(** The early-scheduling execution runtime: per-worker token FIFOs driven
    by a static {!Class_map}, a {!Barrier} rendezvous for cross-class
    commands, and an optimistic mode that — when the service provides an
    undo capability — executes speculatively on optimistic delivery and
    rolls back (undo, then re-execute in committed order) on a
    confirmation mismatch.

    Offers the COS scheduler's surface and contract
    ({!Psmr_sched.Scheduler.Make}: [start]/[submit]/.../[shutdown]), with
    early-specific options on {!Make.start}, plus the optimistic
    submit/confirm protocol and ghost diagnostics for the checker.

    Single-threaded submit contract: {!Make.submit}, {!Make.submit_batch},
    {!Make.submit_optimistic} and {!Make.confirm} must all be called from
    one thread (the parallelizer), with confirmations issued in final
    delivery order. *)

open Psmr_platform

module Make (P : Platform_intf.S) (C : Psmr_cos.Cos_intf.KEYED_COMMAND) : sig
  type cmd = C.t
  type t

  val name : string

  val start :
    ?max_size:int ->
    ?classes:int ->
    ?repair:bool ->
    ?speculate:(cmd -> unit -> unit) ->
    ?on_commit:(cmd -> unit) ->
    ?fault:(id:int -> nth:int -> Psmr_fault.Fault.worker_action) ->
    workers:int ->
    execute:(cmd -> unit) ->
    unit ->
    t
  (** Spawn the worker pool.  [max_size] bounds the in-flight window
      (default {!Psmr_cos.Cos_intf.default_max_size}); [classes] sizes the
      class map (default one class per worker); [repair = false] disables
      the mis-speculation rollback — a deliberately broken variant the
      checker's oracles must catch; [speculate cmd] executes [cmd] through
      the service's undo capability and returns the closure that reverts
      it — installing it turns pending single-queue tokens into
      speculative executions (see {!confirm}); [on_commit cmd] runs on the
      committing thread once [cmd]'s effects are final (never for
      rolled-back executions) — the replica releases client replies here;
      [fault] overrides the per-fetch fault consultation (default: the
      {!Psmr_fault.Fault} facade, keyed by worker id) — the checker passes
      logical [(worker, nth-fetch)] crash points here.

      Without [speculate], optimistic submissions only position tokens
      early (dispatch-time optimism): execution still waits for the
      confirmation, and a repair merely revokes and re-appends.  With
      [speculate], execution itself is optimistic and a repair becomes
      undo + re-execute. *)

  val submit : t -> cmd -> unit
  (** Final-order submission: plan, append confirmed tokens, and repair
      any mis-speculated pending tokens ahead of them.  Blocks while the
      in-flight window is full. *)

  val submit_batch : t -> cmd array -> unit

  type spec
  (** Handle of an optimistic submission, to be passed to {!confirm}. *)

  val submit_optimistic : t -> cmd -> spec
  (** Enqueue on optimistic delivery: tokens enter the queues as pending
      (position speculated, not yet executable).  Blocks while the
      in-flight window is full. *)

  val confirm : t -> spec -> unit
  (** Final delivery of an optimistically submitted command.  If its
      speculated position is consistent with final order (no unconfirmed
      speculation with a smaller position sharing one of its queues), this
      is the fast path: already-speculated work is committed in place,
      queued tokens flip to confirmed.  Otherwise the mis-speculated
      commands ahead of it are repaired — any speculative executions among
      them (and the collateral executions stacked above them in the undo
      logs) are undone in reverse order, the collaterals re-execute
      against the repaired state, and the victims are revoked and
      re-appended behind this command.  @raise Invalid_argument on double
      confirmation or on a handle not from {!submit_optimistic}. *)

  val submitted : t -> int
  (** Final-order submissions so far ([submit] calls + confirmations). *)

  val executed : t -> int
  val in_flight : t -> int
  val crashed_workers : t -> int

  val dropped : t -> int
  (** Optimistic submissions never confirmed and discarded at close —
      including speculative executions undone by {!close} because their
      confirmation never arrived. *)

  val drain : ?poll:float -> t -> unit

  val close : t -> unit
  (** Close every worker queue: workers finish the confirmed backlog and
      exit; pending (unconfirmed) speculations are discarded — executed
      ones undone newest-first — and counted in {!dropped}.  {!shutdown}
      is [drain] then [close]; the model checker calls [close] directly
      because [drain]'s polling loop would spin under a controlled
      scheduler. *)

  val shutdown : ?poll:float -> t -> unit

  (** {2 Configuration and statistics} *)

  val classes : t -> int

  val direct_count : t -> int
  (** Commands dispatched on the single-queue fast path. *)

  val rendezvous_count : t -> int
  (** Commands dispatched through a cross-class barrier. *)

  val repair_count : t -> int
  (** Confirmations that detected a mis-speculation. *)

  val revoked_count : t -> int
  (** Commands revoked and re-enqueued by those repairs. *)

  val spec_exec_count : t -> int
  (** Speculative executions performed by workers (commits + rollbacks). *)

  val rollback_count : t -> int
  (** Executed commands whose effects were undone by repairs. *)

  val redo_count : t -> int
  (** Re-executions of previously undone commands. *)

  val redo_depth_max : t -> int
  (** Maximum number of times any single command was executed. *)

  (** {2 Ghost diagnostics}

      Like the COS [invariant]: no locks taken, termination-bounded, exact
      only between scheduled operations (under the model checker) or at
      quiescence. *)

  val stalled_barriers : t -> string list
  (** Barriers with a partial rendezvous (some but not all members
      arrived) — the signature of a class-barrier deadlock when worker
      processes are blocked. *)

  val invariant : ?strict:bool -> t -> string list
  (** Structural invariants: pending counters match queue contents, and no
      queue holds a confirmed token behind a pending one.  [~strict:true]
      adds quiescence checks: queues empty, submitted = executed, no
      stalled barrier. *)
end
