(** The generic parallel-SMR execution runtime (the paper's Algorithm 1):
    a single scheduler thread inserting delivered commands into a COS and a
    pool of worker threads looping over get/execute/remove.

    Platform- and algorithm-agnostic: instantiate with any
    {!Psmr_platform.Platform_intf.S} and any {!Psmr_cos.Cos_intf.S}.

    The early-scheduling dispatcher ([Psmr_early.Dispatch]) offers the same
    [start]/[submit]/.../[shutdown] surface and the same contract, but
    nothing abstracts over the two: the replica ([Psmr_replica.Replica])
    and the pipeline harness ([Psmr_harness.Pipeline]) build each directly,
    because only the dispatcher speaks the optimistic protocol
    ([submit_optimistic]/[confirm]) and reports dispatch statistics.

    Contract:
    - [submit]/[submit_batch] are called by a single thread (the
      parallelizer), in delivery order, and may block for backpressure
      (the in-flight window is bounded by [max_size]).
    - [execute] runs on worker threads and must tolerate concurrent
      invocation on non-conflicting commands; conflicting commands execute
      in delivery order because the COS only promotes a command once its
      dependencies were removed.
    - When a fault plan is armed ([Psmr_fault]), workers consult it before
      each execution: a crashed worker requeues its reserved command (no
      command is lost or run twice) and leaves the pool — permanently, or
      until its scheduled respawn; stalled/slowed workers sleep the
      configured amount around the execution.  With no plan armed the
      consultation is a single pointer read and the run is bit-identical
      to one without fault support.
    - [shutdown] may only be called after the owner stopped submitting;
      it drains, closes the structure and joins the workers. *)

open Psmr_platform

module Make (P : Platform_intf.S) (Cos : Psmr_cos.Cos_intf.S) : sig
  type cmd = Cos.cmd
  type t

  val name : string
  (** ["cos:"] followed by the COS implementation's name. *)

  val start :
    ?max_size:int ->
    workers:int ->
    execute:(cmd -> unit) ->
    unit ->
    t
  (** Create the COS (bounded by [max_size], default
      {!Psmr_cos.Cos_intf.default_max_size}) and spawn [workers] worker
      threads running [execute] on each command they reserve. *)

  val submit : t -> cmd -> unit
  (** Hand over the next command in delivery order.  Single-threaded
      caller; blocks while the in-flight window is full. *)

  val submit_batch : t -> cmd array -> unit
  (** Hand over a whole delivered batch, in array order; semantically
      equivalent to submitting each command, but lets the COS amortize
      per-command synchronization. *)

  val submitted : t -> int
  val executed : t -> int

  val in_flight : t -> int
  (** [submitted - executed]; advisory under concurrency. *)

  val crashed_workers : t -> int
  (** Workers killed by injected faults so far (counting each crash, also
      of a respawned worker). *)

  val drain : ?poll:float -> t -> unit
  (** Block until everything submitted has executed (polling every [poll]
      seconds, default 100 us). *)

  val shutdown : ?poll:float -> t -> unit
  (** [drain], close the COS, and join the workers.  The caller must have
      stopped submitting. *)
end
