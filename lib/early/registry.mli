(** Names of the execution backends — the scheduling-family analogue of
    {!Psmr_cos.Registry}: every COS implementation (behind the generic
    scheduler runtime) plus the early-scheduling dispatcher, selected by
    name from the CLIs and the benchmark harness.  The registry holds names
    only: each caller builds its backend directly, through
    {!Psmr_sched.Scheduler.Make} over {!Psmr_cos.Registry.instantiate} or
    through {!Dispatch.Make}, because the two families are fed differently
    (the optimistic protocol exists only for the dispatcher). *)

type backend =
  | Cos of Psmr_cos.Registry.impl
      (** The COS runtime ({!Psmr_sched.Scheduler.Make}) over the named
          implementation. *)
  | Early of Early_intf.config
      (** The class-map dispatcher ({!Dispatch.Make}). *)

val all : backend list
(** Every dispatchable backend: the COS registry's [all] plus [early] and
    [early-opt] with default class maps. *)

val to_string : backend -> string

val of_string : string -> backend option
(** Accepts every {!Psmr_cos.Registry.of_string} name, plus ["early"],
    ["early-opt"]/["early_opt"] and class-count forms ["early-<k>"] /
    ["early-opt-<k>"], in any letter case.  Round-trips with
    {!to_string}. *)

val is_optimistic : backend -> bool
(** Whether a harness should drive the optimistic delivery protocol. *)

val classes : backend -> int option
