(** Fine-grained COS: the paper's Algorithms 3-4.  Per-node locks with
    hand-over-hand locking (lock coupling) over the delivery-ordered list,
    over the two counting semaphores of {!Blocking}, which bound the graph
    and count ready commands. *)

open Psmr_platform

module Make (P : Platform_intf.S) (C : Cos_intf.COMMAND) :
  Cos_intf.S with type cmd = C.t
