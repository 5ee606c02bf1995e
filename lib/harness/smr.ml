(** Replicated (parallel-SMR) experiments under the simulator — the setup of
    the paper's §7.4 (Figures 4, 5 and 6): three replicas on simulated
    64-way servers connected by a simulated 1 Gbps LAN, closed-loop clients,
    the full atomic-broadcast/replica/COS stack.

    Throughput is measured at replica 0's executor over the measurement
    window; latency is measured at the clients (request send to first
    reply). *)

type result = {
  kops : float;
  mean_latency_ms : float;
  p99_latency_ms : float;
  completed_calls : int;
  views : int;  (** view changes observed (should be 0 in fault-free runs) *)
  faults_injected : int;  (** fault decisions that fired during the run *)
}

let default_duration = 0.2
let default_warmup = 0.08

let default_cmds_per_request = 10

let run ~(mode : Psmr_replica.Replica.mode) ~(spec : Psmr_workload.Workload.spec)
    ~clients ?(cmds_per_request = default_cmds_per_request)
    ?(duration = default_duration) ?(warmup = default_warmup) ?(seed = 7L)
    ?(faults = Psmr_fault.Schedule.empty) () =
  let engine = Psmr_sim.Engine.create () in
  let (module SP) = Psmr_sim.Sim_platform.make engine Model.sim_costs in
  (* Arm the fault plan for the whole deployment: network faults fire in
     the message layer, worker faults inside the replicas' executors. *)
  let plan =
    Psmr_fault.Plan.make ~now:(fun () -> Psmr_sim.Engine.now engine) faults
  in
  (* Fault-free runs skip the plan installation entirely: [with_plan] sets
     process-global state, and not touching it is what lets fault-free grid
     points run on parallel domains (Grid_runner). *)
  let with_plan f =
    if Psmr_fault.Schedule.is_empty faults then f ()
    else Psmr_fault.Plan.with_plan plan f
  in
  with_plan @@ fun () ->
  let module SMR = Psmr_replica.Replica.Make (SP) (Costed_list) in
  let measuring = ref false in
  (* One simulated CPU bank per replica. *)
  let make_service _id =
    let cpu = Psmr_sim.Sim_sync.Cpu.create ~cores:Model.cores in
    Costed_list.create
      ~initial_size:(Psmr_workload.Workload.list_size spec.cost)
      ~charge:(fun ~is_write ->
        Psmr_sim.Sim_sync.Cpu.use cpu (Model.exec_cost spec.cost ~is_write))
  in
  let cfg =
    {
      (SMR.Deployment.default_config ~make_service ()) with
      clients;
      mode;
      abcast = Model.smr_abcast;
      tick_interval = Model.smr_tick_interval;
      client_timeout = Model.smr_client_timeout;
      latency = (fun ~src:_ ~dst:_ -> Model.lan_latency);
    }
  in
  let d = SMR.Deployment.create cfg in
  let latencies = Psmr_util.Vec.create () in
  let completed = ref 0 in
  let master_rng = Psmr_util.Rng.create ~seed in
  let client_rngs =
    Array.init clients (fun _ -> Psmr_util.Rng.split master_rng)
  in
  Psmr_sim.Engine.spawn engine (fun () ->
      SMR.Deployment.start d;
      for ci = 0 to clients - 1 do
        SP.spawn (fun () ->
            let c = SMR.Deployment.client d ci in
            let rng = client_rngs.(ci) in
            let rec loop () =
              let cmds =
                Array.init cmds_per_request (fun _ ->
                    Psmr_workload.Workload.next_list_command spec rng)
              in
              let t0 = SP.now () in
              match SMR.call_batch c cmds with
              | None -> () (* network shut down: end of experiment *)
              | Some _ ->
                  if !measuring then begin
                    Psmr_util.Vec.push latencies (SP.now () -. t0);
                    completed := !completed + cmds_per_request
                  end;
                  loop ()
            in
            loop ())
      done);
  let executed_at_warmup = ref 0 in
  Psmr_sim.Engine.spawn engine ~delay:warmup (fun () ->
      measuring := true;
      executed_at_warmup := SMR.Deployment.replica_executed d 0);
  Psmr_sim.Engine.run ~until:(warmup +. duration) engine;
  let executed =
    SMR.Deployment.replica_executed d 0 - !executed_at_warmup
  in
  let lat = Psmr_util.Vec.to_array latencies in
  (* A wedged deployment must not read as an idle one with 0 ms latency. *)
  if Array.length lat = 0 then
    failwith
      (Printf.sprintf
         "Smr.run: no call completed inside the %g s measurement window (%d \
          clients)"
         duration clients);
  Array.sort compare lat;
  let mean = Psmr_util.Stats.mean lat in
  let p99 = Psmr_util.Stats.percentile lat 99.0 in
  {
    kops = float_of_int executed /. duration /. 1000.0;
    mean_latency_ms = mean *. 1e3;
    p99_latency_ms = p99 *. 1e3;
    completed_calls = !completed;
    views = SMR.Deployment.replica_view d 1;
    faults_injected = Psmr_fault.Plan.injected plan;
  }
