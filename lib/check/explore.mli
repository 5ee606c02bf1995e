(** One controlled run and the exploration drivers built on it: {!run}
    executes a scenario once under a picker (see [Strategy]), and the
    drivers run it under many schedules and aggregate oracle reports.  A
    scenario module ([Cos_check], [Early_check], [Partition_check]) is a
    {!run} body plus its oracles. *)

type outcome = {
  completed : bool;  (** every process ran to completion *)
  violations : string list;  (** what the oracles found ([[]] = clean) *)
  decisions : int;
  truncated : bool;  (** cut off at [max_steps] decision points *)
  choices : int array;  (** chosen process id at every decision point *)
  trace_hash : int64;  (** hash of [choices]: schedule identity *)
  oplog : (int * string) list;  (** per-step (pid, op) log when [trace] *)
  metrics : (string * float) list;
      (** flat [Psmr_obs.Metrics.assoc] snapshot when [metrics]; latency
          figures are in decision points (virtual time never advances under
          the checker) *)
}

val run :
  ?max_steps:int ->
  ?trace:bool ->
  ?metrics:bool ->
  pick:(last:int -> int array -> int) ->
  (Check_platform.t ->
  (module Psmr_platform.Platform_intf.S) ->
  (string -> unit) ->
  unit ->
  bool) ->
  outcome
(** [run ~pick body] runs one schedule on a fresh engine + check platform.
    [body ctx platform viol] sets the scenario up: it spawns its processes
    through [platform], reports in-run violations to [viol], and returns
    its post-run oracle.  [run] then installs [pick] behind the step bound
    and executes the engine.  An uncaught exception is a violation.  When
    the run was not truncated, the oracle reports to [viol] and returns
    whether the scenario completed.  Races come last.  [max_steps]
    (default 50_000) bounds the decision points so that strategies which
    starve a polling loop cannot hang the run.  [trace] (default off)
    records {!outcome.oplog}; [metrics] (default off) enables an
    observability registry for the run and returns its snapshot. *)

type failure = {
  schedule : int;  (** 0-based index of the failing run *)
  seed : int64 option;  (** exact replay seed (random walk only) *)
  violations : string list;
  choices : int array;  (** the schedule itself: chosen pid per decision *)
}

type report = {
  schedules : int;  (** runs executed *)
  distinct : int;  (** distinct schedules (by choice-sequence hash) *)
  decisions : int;  (** total decision points across all runs *)
  truncated : int;  (** runs cut off at the step bound *)
  incomplete : int;  (** non-truncated runs that did not finish cleanly *)
  exhausted : bool;  (** DFS only: the bounded tree was fully explored *)
  failures : failure list;
}

val derive_seed : int64 -> int -> int64
(** [derive_seed base i] is the seed of random-walk run [i] under base seed
    [base] (splitmix64 mixing); exposed so failures can be replayed. *)

(** {2 Drivers}

    [run] executes one schedule under the given picker — a scenario's
    [run_schedule] applied to its scenario, e.g.
    [~run:(Cos_check.run_schedule sc)]. *)

val random_walk :
  ?deadline:(unit -> bool) ->
  ?stop_on_first:bool ->
  run:(pick:(last:int -> int array -> int) -> outcome) ->
  seed:int64 ->
  schedules:int ->
  unit ->
  report
(** Run [schedules] seeded random walks.  [deadline] is polled before each
    run; return [true] to stop early (used for time-boxed CI smoke).
    [stop_on_first] stops at the first failing schedule. *)

val dfs :
  ?deadline:(unit -> bool) ->
  ?max_schedules:int ->
  ?preemption_bound:int ->
  ?stop_on_first:bool ->
  run:(pick:(last:int -> int array -> int) -> outcome) ->
  unit ->
  report
(** Systematically enumerate the preemption-bounded schedule tree (bound
    default 2, see [Strategy.Dfs]), up to [max_schedules] (default
    100_000) runs.  [exhausted] in the report means full coverage of the
    bounded tree. *)

val replay :
  run:(pick:(last:int -> int array -> int) -> outcome) -> seed:int64 -> outcome
(** Re-run the single schedule determined by [seed] (as reported in a
    {!failure}). *)
