(** The checking platform: [Platform_intf.S] over the DES engine with a
    controlled scheduler.

    Every mutex/condition/semaphore/atomic operation and [yield] is a
    decision point at which the engine's picker ([Engine.set_picker])
    chooses the next process to run; virtual time never advances, so the
    picker sees every runnable process at every step.  The platform also
    maintains per-process vector clocks across all synchronization edges
    and reports unordered plain [Atomic.set] stores as data races.

    Usage: [Explore.run] creates the engine and the context, [make]s the
    platform module and hands both to a scenario body, which spawns its
    processes through the platform; [Explore.run] then installs the picker
    and runs the engine.  See [Cos_check], [Early_check] and
    [Partition_check] for the scenario bodies. *)

module Engine = Psmr_sim.Engine

type race = {
  op : string;  (** the racing write, e.g. ["Atomic.set"] *)
  cell : string;  (** stable per-run cell name, e.g. ["atomic#12"] *)
  writer : int;  (** process id of the racing writer *)
  prev_writer : int;  (** process id of the unordered previous writer *)
}

val pp_race : Format.formatter -> race -> unit

type t
(** The instrumentation context backing one [make]d platform. *)

val create : Engine.t -> t

val make : t -> (module Psmr_platform.Platform_intf.S)
(** The platform (named ["check"]).  All state lives in the context, so a
    fresh engine + context + platform triple is needed per schedule. *)

val ticket : t -> int
(** Next value of the logical event counter (monotone within a run); used
    by oracles to order observed operations. *)

val ops : t -> int
(** Decision points taken so far. *)

val races : t -> race list
(** Races recorded so far, in detection order. *)

val with_ghost : t -> (unit -> 'a) -> 'a
(** Run a read-only oracle: while [f] runs, platform reads neither yield
    nor touch the happens-before state, so shared state can be snapshotted
    between two scheduled operations.  Blocking primitives raise. *)

val set_tracing : t -> bool -> unit
(** When on, every decision point appends [(pid, op)] to {!oplog} — used
    by replay to print the failing schedule. *)

val oplog : t -> (int * string) list
(** The recorded operation log, in execution order. *)
