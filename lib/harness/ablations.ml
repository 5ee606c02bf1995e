(** Ablation experiments beyond the paper's figures, probing the design
    choices its text calls out:

    - {!granularity}: §7.3.2 closes by noting that whole-graph and per-node
      locks are "two ends of a lock granularity spectrum" and suggests
      granular locks in between — we sweep the stripe width of the
      segment-locked COS from per-node to whole-graph;
    - {!graph_size}: the evaluation fixes the dependency graph at 150
      entries; we sweep the bound to show the window/backpressure trade-off;
    - {!realistic_conflicts}: §7.4.2 cites evidence that realistic conflict
      rates sit between 0.3% and 2% — a fine-grained sweep over exactly that
      band;
    - {!failover_timeline}: throughput of a replicated deployment across a
      leader crash, showing the outage window and recovery (the protocol
      cost the paper's evaluation keeps out of scope). *)

open Psmr_workload

let cos impl = Psmr_early.Registry.Cos impl

(* --- lock granularity spectrum --- *)

(** Throughput of the striped COS as stripe width grows, bracketed by
    fine-grained (width 1 is the same locking discipline) and the
    coarse-grained monitor.  Returns one series per workload cost. *)
let granularity ?(workers = 16)
    ?(widths = [ 1; 2; 4; 8; 16; 32; 64; 150 ]) ?(write_pct = 5.0)
    ?duration ?warmup () =
  List.map
    (fun cost ->
      let points =
        List.map
          (fun k ->
            ( float_of_int k,
              (Pipeline.standalone ~workers ?duration ?warmup
                 { write_pct; cost }
                 (cos (Psmr_cos.Registry.Striped k)))
                .kops ))
          widths
      in
      { Psmr_util.Table.name = Workload.cost_label cost; points })
    [ Workload.Light; Workload.Moderate ]

(* --- dependency graph bound --- *)

(** Throughput and mean graph population as the COS capacity grows.  Small
    graphs starve workers (insert back-pressure); large graphs lengthen
    every traversal of the list-based algorithms. *)
let graph_size ?(workers = 16) ?(write_pct = 5.0)
    ?(sizes = [ 10; 25; 50; 100; 150; 300; 600; 1200 ]) ?duration ?warmup () =
  List.map
    (fun impl ->
      let points =
        List.map
          (fun max_size ->
            ( float_of_int max_size,
              (Pipeline.standalone ~max_size ~workers ?duration ?warmup
                 { write_pct; cost = Workload.Moderate }
                 (cos impl))
                .kops ))
          sizes
      in
      { Psmr_util.Table.name = Psmr_cos.Registry.to_string impl; points })
    Psmr_cos.Registry.paper

(* --- the realistic conflict band (0.3%..2% writes) --- *)

let realistic_conflicts ?(workers = 16)
    ?(write_pcts = [ 0.3; 0.5; 0.75; 1.0; 1.25; 1.5; 2.0 ]) ?duration ?warmup
    () =
  List.map
    (fun impl ->
      let points =
        List.map
          (fun pct ->
            ( pct,
              (Pipeline.standalone ~workers ?duration ?warmup
                 { write_pct = pct; cost = Workload.Moderate }
                 (cos impl))
                .kops ))
          write_pcts
      in
      { Psmr_util.Table.name = Psmr_cos.Registry.to_string impl; points })
    Psmr_cos.Registry.paper

(* --- indexed vs scan-based insert --- *)

(** Throughput of the key-indexed COS against the lock-free scan baseline
    in the Fig. 2 standalone setup (light cost, 0% writes), with and
    without delivery-time batching.  The insert thread is the bottleneck
    here, so eliminating its O(n) scan moves the whole curve. *)
let indexed_vs_scan ?(write_pct = 0.0)
    ?(worker_counts = [ 1; 2; 4; 8; 16; 32; 64 ]) ?(batch = 16) ?duration
    ?warmup () =
  let series name impl batch =
    let points =
      List.map
        (fun w ->
          ( float_of_int w,
            (Pipeline.standalone ~batch ~workers:w ?duration ?warmup
               { Workload.write_pct; cost = Workload.Light }
               (cos impl))
              .kops ))
        worker_counts
    in
    { Psmr_util.Table.name; points }
  in
  [
    series "lock-free (scan insert)" Psmr_cos.Registry.Lockfree 1;
    series "indexed" Psmr_cos.Registry.Indexed 1;
    series (Printf.sprintf "indexed, batch %d" batch) Psmr_cos.Registry.Indexed
      batch;
  ]

(* Readers-writers command for the micro-measure below (the relation of
   the pipeline's [Plain] workload). *)
module Rw_cmd = struct
  type t = bool

  let conflict a b = a || b
  let footprint w = [ (0, w) ]
  let pp ppf w = Format.pp_print_string ppf (if w then "w" else "r")
end

(** Per-insert virtual-time cost as a function of graph population, with no
    workers attached (every inserted command stays live): the scan-based
    insert is linear in the population, the indexed insert flat.  Returns
    (population, ns per insert) series. *)
let insert_cost_vs_population
    ?(impls = [ Psmr_cos.Registry.Lockfree; Psmr_cos.Registry.Indexed ])
    ?(populations = [ 10; 50; 100; 200; 400; 800 ]) ?(measured = 200)
    ?(write_pct = 5.0) ?(seed = 11L) () =
  List.map
    (fun impl ->
      let points =
        List.map
          (fun pop ->
            let engine = Psmr_sim.Engine.create () in
            let (module SP) = Psmr_sim.Sim_platform.make engine Model.sim_costs in
            let (module Cos : Psmr_cos.Cos_intf.S with type cmd = bool) =
              Psmr_cos.Registry.instantiate impl (module SP)
                (module Rw_cmd)
            in
            let rng = Psmr_util.Rng.create ~seed in
            let per_insert = ref 0.0 in
            Psmr_sim.Engine.spawn engine (fun () ->
                let cos = Cos.create ~max_size:(pop + measured) () in
                for _ = 1 to pop do
                  Cos.insert cos (Psmr_util.Rng.below_percent rng write_pct)
                done;
                let t0 = SP.now () in
                for _ = 1 to measured do
                  Cos.insert cos (Psmr_util.Rng.below_percent rng write_pct)
                done;
                per_insert :=
                  (SP.now () -. t0) /. float_of_int measured *. 1e9);
            Psmr_sim.Engine.run engine;
            (float_of_int pop, !per_insert))
          populations
      in
      { Psmr_util.Table.name = Psmr_cos.Registry.to_string impl; points })
    impls

(* --- early vs late scheduling --- *)

(** Early (queue-dispatch) scheduling versus the lock-free and coarse COS
    across the write-percentage axis, light cost.  Early scheduling is the
    one-class dispatcher — the readers/writers discipline: reads
    round-robin across all workers, every write rendezvouses with all of
    them.  It wins at very low conflict rates (no scheduling structure at
    all) and degrades faster as every write barriers all workers. *)
let early_vs_late ?(workers = 16)
    ?(write_pcts = [ 0.; 1.; 5.; 10.; 15.; 25.; 50.; 100. ]) ?duration ?warmup
    () =
  let series name backend =
    {
      Psmr_util.Table.name;
      points =
        List.map
          (fun pct ->
            ( pct,
              (Pipeline.standalone ~workers ?duration ?warmup
                 { Workload.write_pct = pct; cost = Workload.Light }
                 backend)
                .kops ))
          write_pcts;
    }
  in
  let late impl = series (Psmr_cos.Registry.to_string impl) (cos impl) in
  [
    series "early scheduling"
      (Psmr_early.Registry.Early { classes = Some 1; optimistic = false });
    late Psmr_cos.Registry.Lockfree;
    late Psmr_cos.Registry.Coarse;
  ]

(* --- failover timeline --- *)

(** Run a replicated deployment, crash the leader mid-run, and sample the
    surviving replica's completed-command count in fixed buckets.  Returns
    (bucket_end_time, kops within bucket) — the outage dip and recovery are
    directly visible. *)
let failover_timeline ?(crash_at = 0.3) ?(until = 1.0) ?(bucket = 0.02)
    ?(clients = 100)
    ?(mode =
      Psmr_replica.Replica.Parallel
        { impl = Psmr_cos.Registry.Lockfree; workers = 16 }) () =
  let engine = Psmr_sim.Engine.create () in
  let (module SP) = Psmr_sim.Sim_platform.make engine Model.sim_costs in
  let module SMR = Psmr_replica.Replica.Make (SP) (Costed_list) in
  let spec = { Workload.write_pct = 5.0; cost = Workload.Light } in
  let make_service _ =
    let cpu = Psmr_sim.Sim_sync.Cpu.create ~cores:Model.cores in
    Costed_list.create
      ~initial_size:(Workload.list_size spec.cost)
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
      client_timeout = 0.1 (* fail over quickly relative to the timeline *);
      latency = (fun ~src:_ ~dst:_ -> Model.lan_latency);
    }
  in
  let d = SMR.Deployment.create cfg in
  let master_rng = Psmr_util.Rng.create ~seed:3L in
  Psmr_sim.Engine.spawn engine (fun () ->
      SMR.Deployment.start d;
      for ci = 0 to clients - 1 do
        let rng = Psmr_util.Rng.split master_rng in
        SP.spawn (fun () ->
            let c = SMR.Deployment.client d ci in
            let rec loop () =
              let cmds =
                Array.init 10 (fun _ -> Workload.next_list_command spec rng)
              in
              match SMR.call_batch c cmds with Some _ -> loop () | None -> ()
            in
            loop ())
      done);
  Psmr_sim.Engine.spawn engine ~delay:crash_at (fun () ->
      SMR.Deployment.crash_replica d 0);
  (* Sample executed counters at bucket boundaries.  Replica 1 survives and
     becomes the new leader. *)
  let samples = Psmr_util.Vec.create () in
  let last = ref 0 in
  let schedule_sample t =
    if t <= until +. 1e-9 then
      Psmr_sim.Engine.spawn engine ~delay:t (fun () ->
          let now_exec = SMR.Deployment.replica_executed d 1 in
          Psmr_util.Vec.push samples
            (t, float_of_int (now_exec - !last) /. bucket /. 1000.0);
          last := now_exec)
  in
  let n_buckets = int_of_float (Float.round (until /. bucket)) in
  for i = 1 to n_buckets do
    schedule_sample (float_of_int i *. bucket)
  done;
  Psmr_sim.Engine.run ~until engine;
  let views = SMR.Deployment.replica_view d 1 in
  (Psmr_util.Vec.to_list samples, views)
