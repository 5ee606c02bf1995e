(** One controlled run and the exploration drivers built on it.

    {!run} executes a scenario body once on a fresh engine + check
    platform under a picker and assembles its {!outcome}; every scenario
    module ([Cos_check], [Early_check], [Partition_check]) is such a body
    plus its oracles.  The drivers run a scenario under many schedules and
    aggregate what the oracles report, in two modes matching the two
    strategies:

    - {!random_walk}: [schedules] independent runs; run [i] uses the seed
      [derive_seed seed i], so any failure is replayable from the single
      base seed (reported per-failure as its exact derived seed);
    - {!dfs}: systematic enumeration of the preemption-bounded schedule
      tree; [exhausted = true] in the report means every schedule within
      the bound was covered — a (bounded) verification result, not a test. *)

module Engine = Psmr_sim.Engine

type outcome = {
  completed : bool;
  violations : string list;
  decisions : int;
  truncated : bool;
  choices : int array;  (* the chosen process id at every decision point *)
  trace_hash : int64;
  oplog : (int * string) list;  (* populated when [trace] *)
  metrics : (string * float) list;  (* populated when [metrics] *)
}

exception Truncated

let hash_choices (choices : int array) =
  (* FNV-1a, 64-bit. *)
  let h = ref 0xcbf29ce484222325L in
  Array.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (c land 0xffff));
      h := Int64.mul !h 0x100000001b3L)
    choices;
  !h

let run ?(max_steps = 50_000) ?(trace = false) ?(metrics = false)
    ~(pick : last:int -> int array -> int) body =
  let engine = Engine.create () in
  let ctx = Check_platform.create engine in
  Check_platform.set_tracing ctx trace;
  (* Under the checker virtual time never advances; the decision-point
     counter is the closest monotone notion of "when", so latencies come
     out in decision points rather than seconds. *)
  let registry =
    if metrics then
      Some
        (Psmr_obs.Metrics.make
           ~now:(fun () -> float_of_int (Check_platform.ops ctx))
           ~track:(fun () -> Engine.running_tag engine)
           ())
    else None
  in
  let violations = ref [] in
  let viol s = violations := s :: !violations in
  let oracle = body ctx (Check_platform.make ctx) viol in
  let decisions = ref 0 in
  let choices = ref [] in
  let last = ref 0 in
  let truncated = ref false in
  Engine.set_picker engine
    (Some
       (fun tags ->
         incr decisions;
         if !decisions > max_steps then raise Truncated;
         let idx = pick ~last:!last tags in
         let idx = if idx < 0 || idx >= Array.length tags then 0 else idx in
         last := tags.(idx);
         choices := tags.(idx) :: !choices;
         idx));
  Option.iter Psmr_obs.Metrics.enable registry;
  Fun.protect
    ~finally:(fun () -> if Option.is_some registry then Psmr_obs.Metrics.disable ())
    (fun () ->
      try Engine.run engine with
      | Truncated -> truncated := true
      | e -> viol ("uncaught exception: " ^ Printexc.to_string e));
  let completed = (not !truncated) && oracle () in
  List.iter
    (fun r -> viol (Format.asprintf "%a" Check_platform.pp_race r))
    (Check_platform.races ctx);
  let choices = Array.of_list (List.rev !choices) in
  {
    completed;
    violations = List.rev !violations;
    decisions = !decisions;
    truncated = !truncated;
    choices;
    trace_hash = hash_choices choices;
    oplog = Check_platform.oplog ctx;
    metrics =
      (match registry with
      | Some m -> Psmr_obs.Metrics.assoc m
      | None -> []);
  }

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

(* splitmix64: decorrelates per-schedule seeds derived from one base seed. *)
let derive_seed base i =
  let z = Int64.add base (Int64.mul (Int64.of_int (i + 1)) 0x9E3779B97F4A7C15L) in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

type acc = {
  mutable runs : int;
  mutable decisions : int;
  mutable truncated : int;
  mutable incomplete : int;
  mutable failures : failure list;
  hashes : (int64, unit) Hashtbl.t;
}

let acc_create () =
  {
    runs = 0;
    decisions = 0;
    truncated = 0;
    incomplete = 0;
    failures = [];
    hashes = Hashtbl.create 256;
  }

let record acc ~schedule ~seed (o : outcome) =
  acc.runs <- acc.runs + 1;
  acc.decisions <- acc.decisions + o.decisions;
  if o.truncated then acc.truncated <- acc.truncated + 1
  else if not o.completed then acc.incomplete <- acc.incomplete + 1;
  Hashtbl.replace acc.hashes o.trace_hash ();
  if o.violations <> [] then
    acc.failures <-
      { schedule; seed; violations = o.violations; choices = o.choices }
      :: acc.failures

let finish acc ~exhausted =
  {
    schedules = acc.runs;
    distinct = Hashtbl.length acc.hashes;
    decisions = acc.decisions;
    truncated = acc.truncated;
    incomplete = acc.incomplete;
    exhausted;
    failures = List.rev acc.failures;
  }

(* The drivers are scenario-agnostic: [run] executes one schedule under the
   given picker and returns its outcome — a scenario's [run_schedule]
   partially applied to its scenario. *)

let random_walk ?(deadline = fun () -> false) ?(stop_on_first = false)
    ~(run : pick:(last:int -> int array -> int) -> outcome) ~seed ~schedules ()
    =
  let acc = acc_create () in
  let i = ref 0 in
  let stop = ref false in
  while (not !stop) && !i < schedules do
    if deadline () then stop := true
    else begin
      let s = derive_seed seed !i in
      let rw = Strategy.Random_walk.create ~seed:s in
      let o =
        run ~pick:(fun ~last tags -> Strategy.Random_walk.pick rw ~last tags)
      in
      record acc ~schedule:!i ~seed:(Some s) o;
      if stop_on_first && o.violations <> [] then stop := true;
      incr i
    end
  done;
  finish acc ~exhausted:false

let dfs ?(deadline = fun () -> false) ?(max_schedules = 100_000)
    ?preemption_bound ?(stop_on_first = false)
    ~(run : pick:(last:int -> int array -> int) -> outcome) () =
  let acc = acc_create () in
  let d = Strategy.Dfs.create ?preemption_bound () in
  let exhausted = ref false in
  let stop = ref false in
  let i = ref 0 in
  while (not !stop) && (not !exhausted) && !i < max_schedules do
    if deadline () then stop := true
    else begin
      let o = run ~pick:(fun ~last tags -> Strategy.Dfs.pick d ~last tags) in
      record acc ~schedule:!i ~seed:None o;
      if stop_on_first && o.violations <> [] then stop := true
      else if not (Strategy.Dfs.next d) then exhausted := true;
      incr i
    end
  done;
  finish acc ~exhausted:!exhausted

let replay ~(run : pick:(last:int -> int array -> int) -> outcome) ~seed =
  let rw = Strategy.Random_walk.create ~seed in
  run ~pick:(fun ~last tags -> Strategy.Random_walk.pick rw ~last tags)
