(** Lock-free COS: the paper's Algorithms 5-7.  The nonblocking graph of
    {!Lf_graph} (atomic state transitions [wtg -> rdy -> exe -> rmd],
    logical removal, helped physical removal) over the two-semaphore
    blocking layer of {!Blocking}, under the paper's scan insert, which
    evaluates the conflict relation against every live node. *)

open Psmr_platform

module Make (P : Platform_intf.S) (C : Cos_intf.COMMAND) :
  Cos_intf.S with type cmd = C.t
