(** The simulated experiment pipeline: driver → ordering → executor on
    one DES engine (see the interface for the configuration space). *)

module Arrival = Psmr_traffic.Arrival
module Scenario = Psmr_traffic.Scenario
module Session = Psmr_traffic.Session
module Workload = Psmr_workload.Workload
module Registry = Psmr_early.Registry
module Engine = Psmr_sim.Engine
module Cpu = Psmr_sim.Sim_sync.Cpu
module Histogram = Psmr_util.Histogram
module Rng = Psmr_util.Rng

module Cmd = struct
  type t = {
    fp : (int * bool) list;
    cost : float;  (** simulated CPU seconds to execute *)
    born : float;  (** virtual time the command entered the pipeline *)
  }

  let footprint c = c.fp

  let conflict a b =
    List.exists
      (fun (k, w) -> List.exists (fun (k', w') -> k = k' && (w || w')) b.fp)
      a.fp

  let pp ppf c =
    Format.fprintf ppf "{%s}"
      (String.concat ";"
         (List.map
            (fun (k, w) -> Printf.sprintf "%d%s" k (if w then "w" else "r"))
            c.fp))
end

type workload =
  | Plain of Workload.spec
  | Keyed of Workload.Keyed.spec

type driver =
  | Max_rate of workload
  | Open_loop of {
      scenario : Scenario.spec;
      shape : Arrival.shape;
      sessions : int;
      queue_cap : int;
    }

type ordering = Direct | Partition of { partitions : int; replicas : int }

type config = {
  driver : driver;
  ordering : ordering;
  backend : Registry.backend;
  workers : int;
  batch : int;
  max_size : int option;
  duration : float;
  warmup : float;
  seed : int64;
  faults : Psmr_fault.Schedule.t;
}

let default_duration = 0.08
let default_warmup = 0.02
let default_sessions = 1_000_000
let default_queue_cap = 8192

(* The smallest odd cluster that seats every partition's starting leader
   ([p mod n]) on a distinct replica, floored at the usual 3: partitioned
   deployments grow the cluster with the partition count so sharding buys
   sequencer CPU instead of stacking leaders on one node. *)
let default_replicas ~partitions =
  max 3 (if partitions mod 2 = 0 then partitions + 1 else partitions)

let partition ?replicas partitions =
  let replicas =
    match replicas with Some n -> n | None -> default_replicas ~partitions
  in
  Partition { partitions; replicas }

let open_loop ?(sessions = default_sessions) ?(queue_cap = default_queue_cap)
    scenario shape =
  Open_loop { scenario; shape; sessions; queue_cap }

let config ~driver ?(ordering = Direct) ~backend ~workers ?batch ?max_size
    ?(duration = default_duration) ?(warmup = default_warmup) ?(seed = 42L)
    ?(faults = Psmr_fault.Schedule.empty) () =
  let batch =
    match (batch, driver, ordering) with
    | Some b, _, _ -> b
    | None, Max_rate _, Direct -> 1
    | None, _, _ -> 16
  in
  {
    driver;
    ordering;
    backend;
    workers;
    batch;
    max_size;
    duration;
    warmup;
    seed;
    faults;
  }

let label c =
  (* %g throughout (the keyed and scenario printers included): fractional
     percentages must not collapse into the same memo key. *)
  let driver =
    match c.driver with
    | Max_rate (Plain s) ->
        Printf.sprintf "plain/%s/%g%%w" (Workload.cost_label s.cost) s.write_pct
    | Max_rate (Keyed s) -> Format.asprintf "keyed/%a" Workload.Keyed.pp s
    | Open_loop o ->
        Format.asprintf "open/%a/%a/s%d/q%d" Scenario.pp_spec o.scenario
          Arrival.pp o.shape o.sessions o.queue_cap
  in
  let ordering =
    match c.ordering with
    | Direct -> "direct"
    | Partition { partitions; replicas } ->
        Printf.sprintf "part%d/n%d" partitions replicas
  in
  Printf.sprintf "%s/%s/%s/w%d/b%d/m%s/%gs+%gs/seed%Ld%s" driver ordering
    (Registry.to_string c.backend)
    c.workers c.batch
    (match c.max_size with Some m -> string_of_int m | None -> "-")
    c.duration c.warmup c.seed
    (if Psmr_fault.Schedule.is_empty c.faults then ""
     else "/" ^ Psmr_fault.Schedule.to_string c.faults)

let target_of_string s =
  match Registry.of_string s with
  | Some b -> Some (Direct, b)
  | None -> (
      let num suffix =
        match int_of_string_opt suffix with
        | Some p when p >= 1 ->
            Some
              (partition p, Registry.Early Psmr_early.Early_intf.conservative)
        | _ -> None
      in
      let s' = String.lowercase_ascii s in
      let after prefix =
        let n = String.length prefix in
        if String.length s' > n && String.sub s' 0 n = prefix then
          Some (String.sub s' n (String.length s' - n))
        else None
      in
      match (after "part-", after "part") with
      | Some p, _ | None, Some p -> num p
      | None, None -> None)

let target_label ordering backend =
  match ordering with
  | Direct -> Registry.to_string backend
  | Partition { partitions; _ } -> Printf.sprintf "part%d" partitions

type dispatch = {
  direct : int;
  rendezvous : int;
  repairs : int;
  revoked : int;
  dropped : int;
  spec_execs : int;
  rollbacks : int;
  redos : int;
  redo_depth : int;
}

type merge = {
  emitted : int;
  singles : int;
  crosses : int;
  holes : int;
  pending : int;
  views : int;
}

type result = {
  kops : float;
  executed : int;
  mean_population : float;
  offered_kops : float;
  arrivals : int;
  shed : int;
  drop_rate : float;
  queue_peak : int;
  samples : int;
  p50 : float;
  p99 : float;
  p999 : float;
  mean_latency : float;
  max_latency : float;
  dispatch : dispatch;
  merge : merge;
  faults_injected : int;
  crashed_workers : int;
  engine_events : int;
  wall_seconds : float;
  metrics : Psmr_obs.Metrics.t option;
  trace : Psmr_obs.Trace.t option;
}

let no_dispatch =
  {
    direct = 0;
    rendezvous = 0;
    repairs = 0;
    revoked = 0;
    dropped = 0;
    spec_execs = 0;
    rollbacks = 0;
    redos = 0;
    redo_depth = 0;
  }

let no_merge =
  { emitted = 0; singles = 0; crosses = 0; holes = 0; pending = 0; views = 0 }

(* Optimistic pipeline depth for the max-rate driver: how far optimistic
   delivery runs ahead of final delivery.  Adjacent transpositions displace
   a command by one position, so any block >= 2 is sound; 32 gives the
   window a realistic speculated prefix.  The open-loop injector speculates
   whatever it pops, up to [batch]. *)
let opt_block = 32

(* Credit window of the partitioned stack: in-flight commands between the
   feeder and execution on replica 0.  The max-rate driver wants
   throughput.  Under open-loop load a backlog acquired during a transient
   never drains (the merge emits at exactly the offered rate), so
   steady-state latency is pinned at window/rate; 1024 still covers the
   ordering pipeline at peak (~0.6 ms * ~1 Mops/s) without capping
   throughput. *)
let credit_window = function Max_rate _ -> 4096 | Open_loop _ -> 1024

(* The replicated-experiment protocol config, with the batch window
   tightened: the merge couples partition streams at every cross command,
   so inter-partition commit-latency skew — bounded by the batch delay —
   turns directly into rendezvous stall. *)
let part_abcast = { Model.smr_abcast with batch_delay = 0.1e-3 }

(* A kv point op costs what a light list op costs; a scan pays per
   scanned slot.  The schedulers saturate far below the execution
   capacity, but scans must not be free. *)
let op_cost = function
  | Scenario.Scan (_, len) ->
      float_of_int len *. Model.exec_cost Workload.Light ~is_write:false
  | op -> Model.exec_cost Workload.Light ~is_write:(Scenario.is_write op)

(* The injector's intake poll on an empty offered queue: microseconds of
   idle latency floor, far under any knee threshold. *)
let intake_poll = 2e-6

let validate c =
  let fail m = invalid_arg ("Pipeline.run: " ^ m) in
  if c.batch < 1 then fail "batch must be >= 1";
  (match c.driver with
  | Open_loop o when c.batch > o.queue_cap -> fail "need batch <= queue_cap"
  | _ -> ());
  Option.iter
    (fun clause -> fail (clause ^ ": replica crashes run only under Recovery"))
    (Psmr_fault.Schedule.replica_crash_clause c.faults);
  match c.ordering with
  | Direct -> ()
  | Partition { partitions; _ } ->
      if partitions < 1 then fail "partitions must be >= 1";
      if c.batch > credit_window c.driver then
        fail "need batch <= the credit window";
      if Registry.is_optimistic c.backend then
        fail "optimistic backends run under direct ordering only"

type msg =
  | Sub of Cmd.t array  (** feeder traffic into replica 0 *)
  | Wire of Cmd.t Psmr_broadcast.Partition.wire
  | Tick

let run ?(metrics = false) ?(trace = false)
    ?(probe_engine = fun (_ : Engine.t) -> ()) c =
  validate c;
  let engine = Engine.create () in
  probe_engine engine;
  let (module SP) = Psmr_sim.Sim_platform.make engine Model.sim_costs in
  let now () = Engine.now engine in
  let plan = Psmr_fault.Plan.make ~now c.faults in
  (* Installing the (global) plan only when the schedule can fire anything
     keeps fault-free runs free of shared facade state, which is what lets
     Grid_runner fan grid points out over domains. *)
  let with_plan f =
    if Psmr_fault.Schedule.is_empty c.faults then f ()
    else Psmr_fault.Plan.with_plan plan f
  in
  with_plan @@ fun () ->
  (* Recording is pure mutation driven by probe hooks, so the run computes
     exactly the same virtual-time history with metrics on or off. *)
  let trace_buf = if trace then Some (Psmr_obs.Trace.create ()) else None in
  let registry =
    if metrics || trace then
      Some
        (Psmr_obs.Metrics.make ~now
           ~track:(fun () -> Engine.running_tag engine)
           ?trace:trace_buf ())
    else None
  in
  let measuring = ref false in
  let completed = ref 0 in
  let lat = Histogram.create () in
  (* Completion: execution, or commit for an optimistic backend.  Only
     commands born inside the window are sampled, so warm-up queueing does
     not leak into the distribution. *)
  let record (cmd : Cmd.t) =
    if !measuring then begin
      incr completed;
      if cmd.born >= c.warmup then Histogram.record lat (now () -. cmd.born)
    end
  in
  let cpu = Cpu.create ~cores:Model.cores in
  let exec_cost (cmd : Cmd.t) = Cpu.use cpu cmd.cost in
  let rng = Rng.create ~seed:c.seed in
  (* The keyed max-rate stream under direct ordering reserves the seed's
     first draw for its mis-speculation stream; the other drivers never
     disorder and draw their commands from the seed directly. *)
  let srng =
    match (c.driver, c.ordering) with
    | Max_rate (Keyed _), Direct -> Rng.split rng
    | _ -> rng
  in
  let mis_pct =
    match c.driver with Max_rate (Keyed s) -> s.mis_pct | _ -> 0.0
  in
  let horizon = c.warmup +. c.duration in
  (* --- driver: [next n] yields the next 1..n commands --- *)
  let arrivals = ref 0 and shed = ref 0 and q_peak = ref 0 in
  let next =
    match c.driver with
    | Max_rate w ->
        let gen =
          match w with
          | Plain s ->
              fun () ->
                let w = Rng.below_percent rng s.write_pct in
                {
                  Cmd.fp = [ (0, w) ];
                  cost = Model.exec_cost s.cost ~is_write:w;
                  born = now ();
                }
          | Keyed s ->
              fun () ->
                let fp = Workload.Keyed.next_footprint s rng in
                {
                  Cmd.fp;
                  cost = Model.exec_cost s.cost ~is_write:(List.exists snd fp);
                  born = now ();
                }
        in
        fun n -> Array.init n (fun _ -> gen ())
    | Open_loop o ->
        (* The bounded offered queue.  The arrival side is the outside
           world: it touches the queue with host operations only and pays
           zero simulated cost, so the arrival stream is exactly
           backend-independent — it never blocks, it sheds at
           [queue_cap]. *)
        let q : Cmd.t Queue.t = Queue.create () in
        let pool =
          Session.create ~seed:(Int64.add c.seed 0x5EEDL)
            ~sessions:o.sessions ()
        in
        let gen = Scenario.generator o.scenario in
        let arr = Arrival.create ~seed:(Int64.add c.seed 0xA221L) o.shape in
        Engine.spawn engine ~name:"arrivals" (fun () ->
            let rec loop () =
              let t = Arrival.next arr in
              if t < horizon then begin
                if t > now () then SP.sleep (t -. now ());
                if !measuring then incr arrivals;
                let len = Queue.length q in
                if len >= o.queue_cap then (if !measuring then incr shed)
                else begin
                  let sid = Session.draw pool in
                  let op = Scenario.next gen (Session.stream pool sid) in
                  Queue.push
                    {
                      Cmd.fp = Scenario.footprint op;
                      cost = op_cost op;
                      born = now ();
                    }
                    q;
                  if len + 1 > !q_peak then q_peak := len + 1
                end;
                loop ()
              end
            in
            loop ());
        let rec pop n =
          if Queue.is_empty q then begin
            SP.sleep intake_poll;
            pop n
          end
          else Array.init (min n (Queue.length q)) (fun _ -> Queue.pop q)
        in
        pop
  in
  (* --- executor --- *)
  let window = credit_window c.driver in
  let credit =
    match c.ordering with
    | Partition _ -> Some (SP.Semaphore.create window)
    | Direct -> None
  in
  let execute cmd =
    exec_cost cmd;
    record cmd;
    Option.iter SP.Semaphore.release credit
  in
  let max_size =
    match (c.ordering, c.max_size) with
    | Partition _, None -> Some (2 * window)
    | _, m -> m
  in
  let submit, submit_batch, speculate, in_flight, crashed, dispatch =
    match c.backend with
    | Registry.Cos impl ->
        let (module Cos) =
          Psmr_cos.Registry.instantiate impl (module SP) (module Cmd)
        in
        let module Sched = Psmr_sched.Scheduler.Make (SP) (Cos) in
        let b = Sched.start ?max_size ~workers:c.workers ~execute () in
        ( Sched.submit b,
          Sched.submit_batch b,
          None,
          (fun () -> Sched.in_flight b),
          (fun () -> Sched.crashed_workers b),
          fun () -> no_dispatch )
    | Registry.Early cfg ->
        let module D = Psmr_early.Dispatch.Make (SP) (Cmd) in
        let d, speculate =
          if not cfg.optimistic then
            ( D.start ?max_size ?classes:cfg.classes ~workers:c.workers
                ~execute (),
              None )
          else begin
            (* Execution-time optimism: execution charges its CPU cost
               whether speculative or committed, the undo is a store-back
               (the rollback sweep already charges dispatcher work), and
               only commits count as completed. *)
            let d =
              D.start ?max_size ?classes:cfg.classes
                ~speculate:(fun cmd ->
                  exec_cost cmd;
                  fun () -> ())
                ~on_commit:record ~workers:c.workers ~execute:exec_cost ()
            in
            (* Optimistic and final delivery are separate simulated
               processes coupled by a block channel, with the dispatcher
               window as the only backpressure: serializing confirm behind
               submit in one thread would halve the submission rate. *)
            let ch = Queue.create () in
            let ch_m = SP.Mutex.create () in
            let ch_cv = SP.Condition.create () in
            Engine.spawn engine ~name:"confirmer" (fun () ->
                let rec loop () =
                  SP.Mutex.lock ch_m;
                  while Queue.is_empty ch do
                    SP.Condition.wait ch_cv ch_m
                  done;
                  let block = Queue.pop ch in
                  SP.Mutex.unlock ch_m;
                  Array.iter (fun e -> D.confirm d e) block;
                  loop ()
                in
                loop ());
            (* Submit a block in an order disordered by adjacent
               transpositions ({!Psmr_early.Spec_stream}), then hand the
               confirmer its entries in final order. *)
            let speculate finals =
              let order =
                Psmr_early.Spec_stream.disorder ~swap_pct:mis_pct ~rng:srng
                  (Array.init (Array.length finals) Fun.id)
              in
              let entries = Array.make (Array.length finals) None in
              Array.iter
                (fun i ->
                  entries.(i) <- Some (D.submit_optimistic d finals.(i)))
                order;
              let block = Array.map Option.get entries in
              SP.Mutex.lock ch_m;
              Queue.push block ch;
              SP.Condition.signal ch_cv;
              SP.Mutex.unlock ch_m
            in
            (d, Some speculate)
          end
        in
        ( D.submit d,
          D.submit_batch d,
          speculate,
          (fun () -> D.in_flight d),
          (fun () -> D.crashed_workers d),
          fun () ->
            {
              direct = D.direct_count d;
              rendezvous = D.rendezvous_count d;
              repairs = D.repair_count d;
              revoked = D.revoked_count d;
              dropped = D.dropped d;
              spec_execs = D.spec_exec_count d;
              rollbacks = D.rollback_count d;
              redos = D.redo_count d;
              redo_depth = D.redo_depth_max d;
            } )
  in
  (* --- ordering: [inject] hands one block of [next] to the next layer --- *)
  let inject, block, merge =
    match (c.ordering, speculate) with
    | Direct, Some speculate ->
        let block =
          match c.driver with Max_rate _ -> opt_block | Open_loop _ -> c.batch
        in
        (speculate, block, fun () -> no_merge)
    | Direct, None -> (
        match c.driver with
        | Max_rate _ when c.batch = 1 ->
            ((fun cs -> submit cs.(0)), 1, fun () -> no_merge)
        | _ -> (submit_batch, c.batch, fun () -> no_merge))
    | Partition { partitions; replicas = n }, _ ->
        let module Net = Psmr_net.Network.Make (SP) in
        let module Part = Psmr_broadcast.Partition.Make (SP) in
        let net =
          Net.create
            ~latency:(fun ~src:_ ~dst:_ -> Model.lan_latency)
            ~nodes:n ()
        in
        (* Replica 0 collects each event-loop turn's merged emissions and
           feeds the executor through the batched submit path. *)
        let exec_buf = Psmr_util.Vec.create () in
        let eps =
          Array.init n (fun id ->
              Part.create ~config:part_abcast ~partitions ~id ~n
                ~send:(fun dst w -> Net.send net ~src:id ~dst (Wire w))
                ~deliver:(fun (em : Cmd.t Psmr_broadcast.Pmerge.emitted) ->
                  if id = 0 then Psmr_util.Vec.push exec_buf em.cmd)
                ())
        in
        Array.iteri
          (fun id ep ->
            Engine.spawn engine ~name:(Printf.sprintf "part-replica-%d" id)
              (fun () ->
                let rec loop () =
                  match Net.recv net id with
                  | None -> ()
                  | Some { src; payload; _ } ->
                      (match payload with
                      | Sub cmds ->
                          Part.submit_batch ep ~footprint:Cmd.footprint cmds
                      | Wire w -> Part.handle ep ~src w
                      | Tick -> Part.tick ep);
                      if id = 0 && Psmr_util.Vec.length exec_buf > 0 then begin
                        submit_batch (Psmr_util.Vec.to_array exec_buf);
                        Psmr_util.Vec.clear exec_buf
                      end;
                      loop ()
                in
                loop ());
            Engine.spawn engine ~name:(Printf.sprintf "part-ticker-%d" id)
              (fun () ->
                let rec tick_loop () =
                  if not (Net.is_crashed net id) then begin
                    SP.sleep Model.smr_tick_interval;
                    Net.send net ~src:id ~dst:id Tick;
                    tick_loop ()
                  end
                in
                tick_loop ()))
          eps;
        (* Credits return at execution, so the ordering pipeline plus the
           executor hold at most [window] commands; the executor window
           is twice that, so protocol handling never blocks on it. *)
        let credit = Option.get credit in
        let inject cmds =
          SP.Semaphore.acquire ~n:(Array.length cmds) credit;
          Net.send net ~src:0 ~dst:0 (Sub cmds)
        in
        let merge () =
          let ep0 = eps.(0) in
          {
            emitted = Part.emitted ep0;
            singles = Part.emitted ep0 - Part.crosses ep0;
            crosses = Part.crosses ep0;
            holes = Part.holes ep0;
            pending = Part.merge_pending ep0;
            views =
              Array.fold_left
                (fun acc ep -> acc + Part.views_installed ep)
                0 eps;
          }
        in
        (inject, c.batch, merge)
  in
  Engine.spawn engine ~name:"feeder" (fun () ->
      let rec loop () =
        inject (next block);
        loop ()
      in
      loop ());
  (* Backend occupancy, sampled during the window.  Only the max-rate
     driver under direct ordering reports it. *)
  let pop_sum = ref 0 and pop_n = ref 0 in
  (match (c.driver, c.ordering) with
  | Max_rate _, Direct ->
      Engine.spawn engine ~name:"pop-probe" (fun () ->
          let rec probe () =
            SP.sleep 1e-3;
            if !measuring then begin
              pop_sum := !pop_sum + in_flight ();
              incr pop_n
            end;
            probe ()
          in
          probe ())
  | _ -> ());
  Engine.spawn engine ~delay:c.warmup ~name:"warmup-gate" (fun () ->
      measuring := true);
  (match registry with Some r -> Psmr_obs.Metrics.enable r | None -> ());
  let wall0 = Psmr_sim.Grid_runner.wall_now () in
  Fun.protect
    ~finally:(fun () ->
      if Option.is_some registry then Psmr_obs.Metrics.disable ())
    (fun () -> Engine.run ~until:horizon engine);
  let wall_seconds = Psmr_sim.Grid_runner.wall_now () -. wall0 in
  Option.iter
    (fun tr ->
      let module T = Psmr_obs.Trace in
      let module Pr = Psmr_obs.Probe in
      T.set_process_name tr ~pid:Pr.core_pid "cores";
      T.set_process_name tr ~pid:Pr.proc_pid "processes";
      for core = 0 to Model.cores - 1 do
        T.set_thread_name tr ~pid:Pr.core_pid ~tid:core
          (Printf.sprintf "core-%d" core)
      done;
      List.iter
        (fun (pid, name) -> T.set_thread_name tr ~pid:Pr.proc_pid ~tid:pid name)
        (Engine.process_names engine))
    trace_buf;
  {
    kops = float_of_int !completed /. c.duration /. 1000.0;
    executed = !completed;
    mean_population =
      (if !pop_n = 0 then 0.0
       else float_of_int !pop_sum /. float_of_int !pop_n);
    offered_kops =
      (match c.driver with
      | Open_loop o -> Arrival.mean_rate o.shape /. 1000.0
      | Max_rate _ -> 0.0);
    arrivals = !arrivals;
    shed = !shed;
    drop_rate =
      (if !arrivals = 0 then 0.0
       else float_of_int !shed /. float_of_int !arrivals);
    queue_peak = !q_peak;
    samples = Histogram.count lat;
    p50 = Histogram.quantile lat 0.50;
    p99 = Histogram.quantile lat 0.99;
    p999 = Histogram.quantile lat 0.999;
    mean_latency = Histogram.mean lat;
    max_latency = Histogram.max_value lat;
    dispatch = dispatch ();
    merge = merge ();
    faults_injected = Psmr_fault.Plan.injected plan;
    crashed_workers = crashed ();
    engine_events = Engine.events_executed engine;
    wall_seconds;
    metrics = registry;
    trace = trace_buf;
  }

let standalone ?batch ?max_size ?duration ?warmup ~workers spec backend =
  run
    (config ~driver:(Max_rate (Plain spec)) ~backend ~workers ?batch
       ?max_size ?duration ?warmup ())

(* The knee: the first step whose p99 exceeds 8x the idle baseline (the
   first step's p99) or that sheds more than 1% of its arrivals. *)
let knee = function
  | [] -> None
  | base :: _ as steps ->
      let baseline = Float.max base.p99 1e-9 in
      List.find_opt
        (fun s -> s.p99 > 8.0 *. baseline || s.drop_rate > 0.01)
        steps
      |> Option.map (fun s -> s.offered_kops)
