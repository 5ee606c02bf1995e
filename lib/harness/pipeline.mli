(** The simulated experiment pipeline: a driver feeds commands, an
    optional ordering layer sequences them, and an execution backend runs
    them on {!Model.cores} simulated cores — all on one deterministic DES
    engine with the calibrated {!Model.sim_costs}.

    One configuration picks one of each:
    - the {b driver}: a feeder at maximum rate (paper §7.3: "one thread
      looped without waiting interval"), or open-loop arrivals pushed into
      a bounded offered queue and drained by an injector;
    - the {b ordering}: direct hand-over to the backend, or the
      {!Psmr_broadcast.Partition} stack — N sequencers over the simulated
      LAN, merged on the measured replica 0 — behind a credit window;
    - the {b executor}: any {!Psmr_early.Registry} backend.  Optimistic
      backends are driven through the pipelined submit/confirm protocol.

    The paper's standalone COS runs (Figures 2-3) are a max-rate driver
    over a {!Psmr_workload.Workload.spec}, direct ordering and a COS
    backend; the early-vs-COS race is the same over a keyed workload; the
    partitioned-ordering grid swaps in [Partition]; the latency-under-load
    sweeps swap in the open-loop driver. *)

(** Commands as the backends see them: a footprint (the conflict relation
    is derived from it — a shared key with at least one writer), the
    simulated CPU seconds to execute, and the virtual time the command
    entered the pipeline. *)
module Cmd : sig
  type t = { fp : (int * bool) list; cost : float; born : float }

  val footprint : t -> (int * bool) list
  val conflict : t -> t -> bool
  val pp : Format.formatter -> t -> unit
end

type workload =
  | Plain of Psmr_workload.Workload.spec
      (** the paper's list workload: every command reads or writes one
          shared variable (the readers-writers relation) *)
  | Keyed of Psmr_workload.Workload.Keyed.spec
      (** footprints over a key universe; [mis_pct] disorders the
          optimistic delivery stream *)

type driver =
  | Max_rate of workload  (** a feeder at maximum rate *)
  | Open_loop of {
      scenario : Psmr_traffic.Scenario.spec;
      shape : Psmr_traffic.Arrival.shape;
      sessions : int;  (** logical client-session population *)
      queue_cap : int;  (** offered-queue bound; excess arrivals are shed *)
    }

type ordering =
  | Direct  (** the driver hands commands straight to the backend *)
  | Partition of { partitions : int; replicas : int }
      (** [partitions] sequencer instances, leaders rotated over a
          [replicas]-node cluster; execution is measured on replica 0 *)

type config = {
  driver : driver;
  ordering : ordering;
  backend : Psmr_early.Registry.backend;
  workers : int;
  batch : int;
      (** commands per delivery: per feeder submission (max-rate, direct),
          per injector pop (open loop), per sequencer request (partition) *)
  max_size : int option;  (** backend window; [None] for its default *)
  duration : float;  (** measurement window, virtual seconds *)
  warmup : float;
  seed : int64;
  faults : Psmr_fault.Schedule.t;
}

val default_duration : float
val default_warmup : float
val default_sessions : int
val default_queue_cap : int

val default_replicas : partitions:int -> int
(** The smallest odd cluster seating every partition's starting leader on
    a distinct replica, floored at 3 (1, 2 → 3; 3 → 3; 4 → 5 …). *)

val partition : ?replicas:int -> int -> ordering
(** [Partition] with [replicas] defaulting to {!default_replicas}. *)

val open_loop :
  ?sessions:int ->
  ?queue_cap:int ->
  Psmr_traffic.Scenario.spec ->
  Psmr_traffic.Arrival.shape ->
  driver

val config :
  driver:driver ->
  ?ordering:ordering ->
  backend:Psmr_early.Registry.backend ->
  workers:int ->
  ?batch:int ->
  ?max_size:int ->
  ?duration:float ->
  ?warmup:float ->
  ?seed:int64 ->
  ?faults:Psmr_fault.Schedule.t ->
  unit ->
  config
(** Defaults: [Direct] ordering; [batch] 1 for a max-rate driver under
    direct ordering and 16 otherwise; the backend's own window; an
    0.08 s window after 0.02 s of warm-up; seed 42; no faults. *)

val label : config -> string
(** A key naming every dimension of the configuration, with every rate
    rendered through [%g] so fractional percentages stay distinct: equal
    labels mean equal runs. *)

val target_of_string :
  string -> (ordering * Psmr_early.Registry.backend) option
(** Every {!Psmr_early.Registry.of_string} name with direct ordering, plus
    ["part<N>"] / ["part-<N>"]: N partitions over the conservative early
    executor. *)

val target_label : ordering -> Psmr_early.Registry.backend -> string
(** Inverse of {!target_of_string}. *)

type dispatch = {
  direct : int;  (** fast-path dispatches *)
  rendezvous : int;  (** cross-class barrier dispatches *)
  repairs : int;  (** confirmations that found a mis-speculation *)
  revoked : int;  (** commands revoked and re-enqueued by repairs *)
  dropped : int;  (** speculations never confirmed *)
  spec_execs : int;  (** speculative executions *)
  rollbacks : int;  (** executed commands undone by repairs *)
  redos : int;  (** re-executions of rolled-back commands *)
  redo_depth : int;  (** max executions of any single command *)
}
(** Class-map dispatcher statistics; all zero for COS backends. *)

type merge = {
  emitted : int;  (** merged emissions at replica 0 *)
  singles : int;
  crosses : int;  (** cross-partition emissions at replica 0 *)
  holes : int;  (** per-partition sequence holes from cycle tie-breaks *)
  pending : int;  (** delivered-but-unmerged entries at the horizon *)
  views : int;  (** view changes across all replicas *)
}
(** Partitioned-ordering statistics; all zero under [Direct]. *)

type result = {
  kops : float;  (** completions per second in the window, thousands *)
  executed : int;
      (** completions in the window: executions, or commits for an
          optimistic backend, on replica 0 when partitioned *)
  mean_population : float;
      (** mean in-flight commands in the backend, sampled every 1 ms
          (max-rate driver under direct ordering; 0 otherwise) *)
  offered_kops : float;  (** mean arrival rate (open loop; 0 otherwise) *)
  arrivals : int;  (** arrivals in the window (open loop) *)
  shed : int;  (** arrivals shed at the full offered queue (open loop) *)
  drop_rate : float;  (** [shed / arrivals] *)
  queue_peak : int;  (** offered-queue high-water mark (open loop) *)
  samples : int;
      (** latency samples: completions of commands born in the window *)
  p50 : float;  (** birth-to-completion latency, virtual seconds *)
  p99 : float;
  p999 : float;
  mean_latency : float;
  max_latency : float;
  dispatch : dispatch;
  merge : merge;
  faults_injected : int;
  crashed_workers : int;
  engine_events : int;  (** DES events the run executed *)
  wall_seconds : float;  (** wall-clock cost of the simulation loop *)
  metrics : Psmr_obs.Metrics.t option;  (** when run with [~metrics:true] *)
  trace : Psmr_obs.Trace.t option;  (** when run with [~trace:true] *)
}

val run :
  ?metrics:bool ->
  ?trace:bool ->
  ?probe_engine:(Psmr_sim.Engine.t -> unit) ->
  config ->
  result
(** One deterministic simulation: every virtual-time field is a pure
    function of the configuration.

    [metrics] activates an observability registry and returns it;
    [trace] also collects a Chrome trace (one track per simulated core
    plus one per named process).  Neither changes the simulation.
    [probe_engine] is called with the fresh engine before any process is
    spawned — the hook tests use to install an event-order tracer.

    Raises [Invalid_argument] for a non-positive [batch], an open-loop
    [batch] above [queue_cap], fewer than one partition, a partitioned
    [batch] above the credit window, an optimistic backend under
    [Partition], or [faults] that crash a replica (the message names the
    clause; only {!Recovery} injects replica crashes). *)

val standalone :
  ?batch:int ->
  ?max_size:int ->
  ?duration:float ->
  ?warmup:float ->
  workers:int ->
  Psmr_workload.Workload.spec ->
  Psmr_early.Registry.backend ->
  result
(** One standalone point (§7.3): [run] of the max-rate feeder over the
    paper's list workload, directly into the backend. *)

val knee : result list -> float option
(** Offered kops of the first step of a sweep whose p99 exceeds 8 times
    the first step's p99 (the idle baseline) or whose drop rate exceeds
    1%; [None] when the sweep never saturates. *)
