(** Striped (segment-locked) COS: the granular-locking middle ground of the
    lock-granularity spectrum the paper's §7.3.2 suggests exploring.  Nodes
    live in fixed-capacity segments, each with its own lock; traversal is
    hand-over-hand at segment granularity.  Blocking is {!Blocking}'s two
    counting semaphores. *)

open Psmr_platform

(** [Make_sized (Size) (P) (C)] uses [Size.segment_capacity] nodes per
    lock: 1 degenerates to fine-grained locking; a huge capacity
    serializes every operation on one lock, as the coarse-grained monitor
    does, while still blocking on semaphores. *)
module Make_sized (_ : sig
  val segment_capacity : int
end)
(P : Platform_intf.S)
(C : Cos_intf.COMMAND) : Cos_intf.S with type cmd = C.t

(** 16 nodes per lock. *)
module Make (P : Platform_intf.S) (C : Cos_intf.COMMAND) :
  Cos_intf.S with type cmd = C.t
