(** Full-stack P-SMR benchmark.

    [perfbench --workload NAME --seed N --seconds S --trace 0|1]

    Drives the replicated deployment ({!Stack}) through one workload,
    checks the replicas' outputs, and prints one JSON line last on
    standard output:
    [{"correct": .., "attempted": .., "failed": .., "metrics": {..}}].
    With [--trace 0] the metrics are the end-to-end ones, measured with
    every probe off; with [--trace 1] a separate traced run of the
    reference level gives the per-layer ones.  Latencies are virtual time,
    deterministic per seed; wall-clock figures ([setup_s], [sim.*]) are
    host timings.  Exits 1 when a correctness check fails. *)

module Stats = Psmr_util.Stats
module Histogram = Psmr_util.Histogram
module Model = Psmr_harness.Model

(* --- statistics --------------------------------------------------------- *)

let percentile sorted q =
  if Array.length sorted = 0 then nan else Stats.percentile sorted q

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

let median a = percentile (sorted a) 50.0

(* Quartile spread as Python's [statistics.quantiles(values, n=4)] (the
   exclusive method) gives it, over the median. *)
let quartile_spread a =
  let s = sorted a in
  let ld = Array.length s in
  if ld < 2 then 0.0
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((s.(j - 1) *. (4.0 -. delta)) +. (s.(j) *. delta)) /. 4.0
    in
    let med = percentile s 50.0 in
    if med = 0.0 then 0.0 else (q 3 -. q 1) /. med

let mean a =
  if Array.length a = 0 then 0.0 else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let ratio a b = if b = 0.0 then 0.0 else a /. b
let ms x = x *. 1e3

(* --- one level's end-to-end figures -------------------------------------- *)

(** Requests due inside the window.  One unfinished at the horizon is
    failed, and enters the latency sample censored at horizon − due: the
    percentiles are then lower bounds, never optimistic. *)
type level_stats = {
  attempted : int;
  served : int;
  kops : float;  (** commands completed inside the window, thousands/s *)
  p50_ms : float;
  p99_ms : float;
  unavail_ms : float;
  lag_p99_ms : float;
  growing : bool;  (** the driver backlog grew across the window *)
}

let level_stats (r : Stack.result) =
  let in_window (q : Stack.request) =
    q.due >= r.window_start && q.due < r.window_end
  in
  let due = List.filter in_window (Array.to_list r.requests) |> Array.of_list in
  Array.sort (fun (a : Stack.request) b -> Float.compare a.due b.due) due;
  let finished (q : Stack.request) =
    (not (Float.is_nan q.finish)) && q.finish <= r.horizon
  in
  let served = Array.fold_left (fun a q -> if finished q then a + 1 else a) 0 due in
  let lat =
    Array.map
      (fun (q : Stack.request) ->
        ms ((if finished q then q.finish else r.horizon) -. q.due))
      due
    |> sorted
  in
  let completed_in_window =
    Array.fold_left
      (fun a (q : Stack.request) ->
        if (not (Float.is_nan q.finish)) && q.finish >= r.window_start
           && q.finish < r.window_end
        then a + Array.length q.ids
        else a)
      0 r.requests
  in
  (* Longest stall: from a due time to the first completion of any request
     due at or after it (a suffix minimum over due order).  With a leader
     crash this is the crash-to-first-service outage. *)
  let unavail =
    let best = ref r.horizon and worst = ref 0.0 in
    for i = Array.length due - 1 downto 0 do
      let q = due.(i) in
      if finished q then best := Float.min !best q.finish;
      worst := Float.max !worst (!best -. q.due)
    done;
    ms !worst
  in
  let lag =
    Array.map
      (fun (q : Stack.request) ->
        ms ((if Float.is_nan q.start then r.horizon else q.start) -. q.due))
      due
    |> sorted
  in
  let growing =
    let s = Array.map (fun (x : Stack.sample) -> float_of_int x.s_driver) r.samples in
    let k = Array.length s / 3 in
    k > 0
    &&
    let first = mean (Array.sub s 0 k) in
    let last = mean (Array.sub s (Array.length s - k) k) in
    last > Float.max (first *. 1.5) (first +. 16.0)
  in
  {
    attempted = Array.length due;
    served;
    kops = float_of_int completed_in_window /. (r.window_end -. r.window_start) /. 1e3;
    p50_ms = percentile lat 50.0;
    p99_ms = percentile lat 99.0;
    unavail_ms = unavail;
    lag_p99_ms = percentile lag 99.0;
    growing;
  }

let fail_ratio s = ratio (float_of_int (s.attempted - s.served)) (float_of_int s.attempted)

(* The virtual-time figures a traced run must reproduce bit for bit. *)
let virtual_figures s =
  [ s.kops; s.p50_ms; s.p99_ms; s.unavail_ms; s.lag_p99_ms; float_of_int s.served;
    float_of_int s.attempted ]

(* --- workloads ----------------------------------------------------------- *)

type workload = {
  name : string;
  cfg : Stack.config;
  levels : Stack.load array;  (** fixed grid, increasing load *)
  reference : int;  (** the level [kops]/[lat_*] are read at *)
  slo_ms : float;  (** p99 limit of the knee rule *)
}

let lockfree32 =
  Psmr_replica.Replica.Parallel { impl = Psmr_cos.Registry.Lockfree; workers = 32 }

let base =
  {
    Stack.mode = lockfree32;
    replicas = 3;
    cmds = 10;
    pool = 200;
    warmup = 0.08;
    window = 0.2;
    grace = 0.05;
    crash_at = None;
    plant_skip = false;
  }

(* The paper's Fig 4/5 point: linked list, light cost, 5 % writes. *)
let list_gen () =
  let spec = { Psmr_workload.Workload.write_pct = 5.0; cost = Light } in
  Psmr_workload.Workload.next_list_command spec

(* YCSB-A over 100 k records, Zipf 0.99, with 2 % of the reads replaced by
   scans of length <= 4: the scans are the commands that span partitions. *)
let kv_gen () =
  let spec =
    {
      (Psmr_traffic.Scenario.spec Psmr_traffic.Scenario.A) with
      read_pct = 49.0;
      scan_pct = 1.0;
      max_scan_len = 4;
    }
  in
  let g = Psmr_traffic.Scenario.generator spec in
  fun rng -> Psmr_traffic.Scenario.to_kv (Psmr_traffic.Scenario.next g rng)

let workloads ~seconds =
  [
    ( { name = "closed_list_lockfree";
        cfg = { base with window = 0.02 *. seconds };
        levels = [| Closed { clients = 200 } |];
        reference = 0;
        slo_ms = 10.0 },
      `List );
    ( { name = "open_kv_part4";
        cfg =
          { base with
            mode =
              Partitioned
                { partitions = 4;
                  inner = Parallel { impl = Psmr_cos.Registry.Indexed; workers = 32 } };
            pool = 400;
            warmup = 0.02;
            window = 0.025 *. seconds;
            grace = 0.02 };
        levels = [| Open { kops = 80.0 }; Open { kops = 160.0 }; Open { kops = 240.0 };
                    Open { kops = 320.0 } |];
        reference = 1;
        slo_ms = 5.0 },
      `Kv );
    ( { name = "leader_crash";
        cfg =
          (let window = 0.15 *. seconds in
           { base with warmup = 0.05; window; grace = 0.3;
                       crash_at = Some (0.05 +. (window /. 10.0)) });
        levels = [| Open { kops = 145.0 } |];
        reference = 0;
        slo_ms = 1000.0 },
      `List );
  ]

(* --- cost model ---------------------------------------------------------- *)

(* The model the workloads were sized with (perfbench/README.md).  Virtual
   time follows it, so a change to it moves every virtual-time metric; the
   benchmark says so on stderr. *)
let recorded_model =
  [
    ("mutex_lock", 220e-9); ("mutex_unlock", 150e-9); ("condition_wait", 150e-9);
    ("condition_signal", 100e-9); ("semaphore_op", 500e-9); ("atomic_read", 0.0);
    ("atomic_write", 40e-9); ("wakeup", 1.8e-6); ("visit", 30e-9);
    ("conflict_check", 25e-9); ("alloc", 400e-9); ("marshal", 1200e-9);
    ("hash", 55e-9); ("fault", 50e-9); ("lan_latency", 60e-6);
    ("batch_max", 256.0); ("batch_delay", 0.5e-3); ("heartbeat_interval", 20e-3);
    ("election_timeout", 150e-3); ("checkpoint_interval", 256.0);
    ("tick_interval", 0.25e-3); ("client_timeout", 0.25); ("cores", 64.0);
  ]

let live_model () =
  let ab = Model.smr_abcast in
  Psmr_sim.Costs.to_assoc Model.sim_costs
  @ [
      ("lan_latency", Model.lan_latency);
      ("batch_max", float_of_int ab.batch_max);
      ("batch_delay", ab.batch_delay);
      ("heartbeat_interval", ab.heartbeat_interval);
      ("election_timeout", ab.election_timeout);
      ("checkpoint_interval", float_of_int ab.checkpoint_interval);
      ("tick_interval", Model.smr_tick_interval);
      ("client_timeout", Model.smr_client_timeout);
      ("cores", float_of_int Model.cores);
    ]

let report_model_changes () =
  let live = live_model () in
  List.iter
    (fun (k, v) ->
      match List.assoc_opt k recorded_model with
      | Some r when Float.abs (r -. v) <= 1e-9 *. Float.abs r -> ()
      | Some r -> Printf.eprintf "cost model changed: %s = %g (recorded %g)\n" k v r
      | None -> Printf.eprintf "cost model changed: new constant %s = %g\n" k v)
    live

(* --- metrics output ------------------------------------------------------ *)

let json_metrics ms =
  String.concat ", "
    (List.map
       (fun (name, unit, v) ->
         Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
       ms)

let finite ms = List.for_all (fun (_, _, v) -> Float.is_finite v) ms

(* --- the benchmark ------------------------------------------------------- *)

type outcome = {
  metrics : (string * string * float) list;
  attempted : int;
  failed : int;
  problems : string list;
}

(* Set-up repetitions: at least [setup_reps_min], and more, up to
   [setup_reps_max], until [setup_budget_s] of set-up has been timed. *)
let setup_reps_min = 5
let setup_reps_max = 200
let setup_budget_s = 0.3
let trace_dir = ".perfbench"

module Bench (O : Svc.OPS) = struct
  module St = Stack.Make (O)

  let prepare ~(w : workload) ~make_gen ~seed ~plant ~traced load =
    St.prepare ~cfg:{ w.cfg with plant_skip = plant } ~load ~make_gen ~seed ~traced ()

  let timed f =
    let t0 = Unix.gettimeofday () in
    let x = f () in
    (x, Unix.gettimeofday () -. t0)

  let check_result name (r : Stack.result) (s : level_stats) =
    (match r.check with Ok () -> [] | Error m -> [ name ^ ": " ^ m ])
    @ (if s.served = 0 then [ name ^ ": no request completed in the window" ] else [])

  let end_to_end ~(w : workload) ~make_gen ~seed ~plant =
    (* The first set-up of the reference level is the one that runs.  The
       set-up is repeated after the run, which leaves the heap peak to the
       measured run alone, and the median is reported.  Each set-up starts
       from a collected heap: collector debt left by earlier work is not
       charged to it, while work moved into set-up still is. *)
    let setup () =
      Gc.full_major ();
      timed (fun () ->
          prepare ~w ~make_gen ~seed ~plant ~traced:false w.levels.(w.reference))
    in
    let ref_prep, first_setup = setup () in
    (* Each level starts from a compacted heap and keeps only its figures,
       so the heap peak is the largest single level's, not an accident of
       when the collector ran across levels. *)
    let results =
      Array.mapi
        (fun i load ->
          Gc.compact ();
          let p =
            if i = w.reference then ref_prep
            else prepare ~w ~make_gen ~seed ~plant ~traced:false load
          in
          let r = p.St.go () in
          let s = level_stats r in
          (check_result (Printf.sprintf "level %d" i) r s, s))
        w.levels
    in
    let heap_mb =
      float_of_int (Gc.quick_stat ()).top_heap_words
      *. float_of_int (Sys.word_size / 8) /. 1e6
    in
    Gc.compact ();
    let rec more acc spent k =
      if k >= setup_reps_min && (spent >= setup_budget_s || k >= setup_reps_max)
      then acc
      else
        let _, t = setup () in
        more (t :: acc) (spent +. t) (k + 1)
    in
    let setup_s = median (Array.of_list (more [ first_setup ] first_setup 1)) in
    let _, rs = results.(w.reference) in
    let _, hs = results.(Array.length results - 1) in
    let meets (s : level_stats) = s.p99_ms <= w.slo_ms && fail_ratio s <= 0.01 && not s.growing in
    let knee =
      Array.fold_left (fun a (_, (s : level_stats)) -> if meets s then s.kops else a) 0.0 results
    in
    Array.iteri
      (fun i (_, (s : level_stats)) ->
        Printf.eprintf
          "  level %d: %d requests, %d served, %.3f kops, p50 %.4f ms, p99 %.4f ms, \
           stall %.4f ms, lag p99 %.4f ms%s%s\n"
          i s.attempted s.served s.kops s.p50_ms s.p99_ms s.unavail_ms s.lag_p99_ms
          (if s.growing then ", backlog growing" else "")
          (if meets s then ", meets SLO" else ""))
      results;
    let problems = List.concat_map fst (Array.to_list results) in
    let attempted = Array.fold_left (fun a (_, (s : level_stats)) -> a + s.attempted) 0 results in
    let served = Array.fold_left (fun a (_, (s : level_stats)) -> a + s.served) 0 results in
    {
      metrics =
        [
          ("kops", "kops", rs.kops);
          ("lat_p50_ms", "ms", rs.p50_ms);
          ("lat_p99_ms", "ms", rs.p99_ms);
          ("lat_p99_ms.high", "ms", hs.p99_ms);
          ("knee_kops", "kops", knee);
          ("served_ratio", "ratio", ratio (float_of_int served) (float_of_int attempted));
          ("unavail_ms", "ms", rs.unavail_ms);
          ("setup_s", "s", setup_s);
          ("heap_peak_mb", "MB", heap_mb);
        ];
      attempted;
      failed = attempted - served;
      problems;
    }

  (* Stage ledger: each request's last command to finish at any replica,
     at the replica that finished it first.  queue + to_exec + exec +
     reply telescopes to the client latency; a negative stage would mean a
     reply seen before its execution. *)
  let stages (r : Stack.result) =
    let problems = ref [] in
    let to_exec = Psmr_util.Vec.create () and exec = Psmr_util.Vec.create ()
    and reply = Psmr_util.Vec.create () and self = Psmr_util.Vec.create () in
    Array.iter
      (fun (q : Stack.request) ->
        if q.due >= r.window_start && q.due < r.window_end
           && (not (Float.is_nan q.finish)) && q.finish <= r.horizon
        then begin
          let spans =
            Array.map (fun id -> Hashtbl.find_opt r.first_exec id) q.ids
          in
          if Array.exists Option.is_none spans then
            problems := Printf.sprintf "request %d acknowledged without an execution" q.rid
                        :: !problems
          else begin
            let spans = Array.map Option.get spans in
            let crit =
              Array.fold_left
                (fun (a : Stack.exec_span) (b : Stack.exec_span) ->
                  if b.e_stop > a.e_stop then b else a)
                spans.(0) spans
            in
            let st_queue = q.start -. q.due
            and st_to_exec = crit.e_start -. q.start
            and st_exec = crit.e_stop -. crit.e_start
            and st_reply = q.finish -. crit.e_stop in
            let latency = q.finish -. q.due in
            let sum = st_queue +. st_to_exec +. st_exec +. st_reply in
            if Float.min (Float.min st_queue st_to_exec) (Float.min st_exec st_reply) < 0.0
               || Float.abs (sum -. latency) > 1e-12
            then
              problems :=
                Printf.sprintf "request %d: stages sum to %.9g s, client saw %.9g s"
                  q.rid sum latency
                :: !problems;
            Psmr_util.Vec.push to_exec (ms st_to_exec);
            Psmr_util.Vec.push exec (ms st_exec);
            Psmr_util.Vec.push reply (ms st_reply);
            (* Self time of the call span: its duration minus what its
               commands' execution spans cover. *)
            let ivs =
              Array.map (fun (s : Stack.exec_span) -> (s.e_start, s.e_stop)) spans
            in
            Array.sort compare ivs;
            let covered, _ =
              Array.fold_left
                (fun (acc, reach) (a, b) ->
                  let a = Float.max a (Float.max reach q.start)
                  and b = Float.min b q.finish in
                  if b > a then (acc +. (b -. a), b) else (acc, reach))
                (0.0, neg_infinity) ivs
            in
            Psmr_util.Vec.push self (ms (q.finish -. q.start -. covered))
          end
        end)
      r.requests;
    let v x = sorted (Psmr_util.Vec.to_array x) in
    (v to_exec, v exec, v reply, v self, !problems)

  let write_trace ~(w : workload) (r : Stack.result) =
    let tr = Psmr_obs.Trace.create ~limit:400_000 () in
    let client_pid = 10 and service_pid = 11 and net_pid = 12 in
    Psmr_obs.Trace.set_process_name tr ~pid:client_pid "client call_batch";
    Psmr_obs.Trace.set_process_name tr ~pid:service_pid "service execute";
    Psmr_obs.Trace.set_process_name tr ~pid:net_pid "network send";
    (* A 10 ms slice of the window keeps the file small. *)
    let lo = r.window_start and hi = r.window_start +. 0.01 in
    Array.iter
      (fun (q : Stack.request) ->
        if q.due >= lo && q.due < hi && not (Float.is_nan q.finish) then
          Psmr_obs.Trace.slice tr ~name:(Printf.sprintf "req %d" q.rid) ~pid:client_pid
            ~tid:q.endpoint ~ts:q.start ~dur:(q.finish -. q.start))
      r.requests;
    Array.iter
      (fun (id, (s : Stack.exec_span)) ->
        if s.e_start >= lo && s.e_start < hi then
          Psmr_obs.Trace.slice tr ~name:(Printf.sprintf "cmd %d" id) ~pid:service_pid
            ~tid:s.e_replica ~ts:s.e_start ~dur:(s.e_stop -. s.e_start))
      r.exec_spans;
    Array.iter
      (fun (ts, src, dst) ->
        if ts >= lo && ts < hi then
          Psmr_obs.Trace.slice tr ~name:(Printf.sprintf "%d->%d" src dst) ~pid:net_pid
            ~tid:src ~ts ~dur:Model.lan_latency)
      r.net_spans;
    (try Sys.mkdir trace_dir 0o755 with Sys_error _ -> ());
    let write file s =
      let oc = open_out (Filename.concat trace_dir file) in
      output_string oc s;
      close_out oc
    in
    write (w.name ^ ".spans.json") (Psmr_obs.Trace.to_json tr);
    Option.iter
      (fun m ->
        Option.iter
          (fun t -> write (w.name ^ ".probes.json") (Psmr_obs.Trace.to_json t))
          (Psmr_obs.Metrics.trace m))
      r.registry

  let per_layer ~(w : workload) ~make_gen ~seed ~plant =
    let load = w.levels.(w.reference) in
    let run traced = (prepare ~w ~make_gen ~seed ~plant ~traced load).St.go () in
    let plain = run false in
    let traced = run true in
    let ps = level_stats plain and ts = level_stats traced in
    let problems =
      check_result "untraced" plain ps @ check_result "traced" traced ts
      @ (if virtual_figures ps <> virtual_figures ts then
           [ "traced run's virtual-time figures differ from the untraced run's" ]
         else [])
    in
    let to_exec, exec_st, reply, self, stage_problems = stages traced in
    write_trace ~w traced;
    let m = Option.get traced.registry in
    let c = Psmr_obs.Metrics.counters m in
    let hq h q = ms (Histogram.quantile h q) in
    let cmds = float_of_int plain.executed in
    let samples f = Array.map (fun s -> float_of_int (f s)) traced.samples in
    let amax a = Array.fold_left Float.max 0.0 a in
    let leader = samples (fun s -> s.Stack.s_leader)
    and sched = samples (fun s -> s.Stack.s_sched)
    and merge = samples (fun s -> s.Stack.s_merge) in
    let per_wall =
      Array.mapi
        (fun i wall ->
          if plain.chunk_events.(i) = 0 then nan
          else wall /. float_of_int plain.chunk_events.(i))
        plain.chunk_wall
      |> Array.to_list |> List.filter Float.is_finite |> Array.of_list
    in
    let execs = sorted traced.exec_ms in
    let metrics =
      [
        ("driver.lag_ms.p99", "ms", ts.lag_p99_ms);
        ("client.retries", "count", float_of_int traced.retries);
        ("net.msgs_per_cmd", "msgs", ratio (float_of_int (traced.peer_msgs + traced.client_msgs)) cmds);
        ("net.peer_msgs_per_cmd", "msgs", ratio (float_of_int traced.peer_msgs) cmds);
        ("net.client_msgs_per_cmd", "msgs", ratio (float_of_int traced.client_msgs) cmds);
        ("net.backlog.leader.mean", "msgs", mean leader);
        ("net.backlog.leader.max", "msgs", amax leader);
        ("order.views", "count", float_of_int traced.views);
        ("replica.sched_backlog.mean", "cmds", mean sched);
        ("replica.sched_backlog.max", "cmds", amax sched);
        ("merge.pending.max", "cmds", amax merge);
        ("merge.crosses", "count", float_of_int traced.crosses);
        ("merge.holes", "count", float_of_int traced.holes);
        ("merge.cross_stall_ms.p99", "ms", hq (Psmr_obs.Metrics.cross_stall m) 0.99);
        ("sched.ready_ms.p50", "ms", hq (Psmr_obs.Metrics.delivery_ready m) 0.5);
        ("sched.ready_ms.p99", "ms", hq (Psmr_obs.Metrics.delivery_ready m) 0.99);
        ("sched.dispatch_ms.p50", "ms", hq (Psmr_obs.Metrics.ready_dispatch m) 0.5);
        ("sched.dispatch_ms.p99", "ms", hq (Psmr_obs.Metrics.ready_dispatch m) 0.99);
        ("sched.batch_fill", "cmds", ratio (float_of_int c.batched_cmds) (float_of_int c.batches));
        ("cos.cas_per_success", "ratio", ratio (float_of_int c.cas_attempts) (float_of_int c.cas_successes));
        ("cos.lock_wait_ms", "ms", ms c.lock_wait);
        ("cos.visits_per_insert", "visits", ratio (float_of_int c.insert_visits) (float_of_int c.insert_ops));
        ("cos.sem_parks_per_cmd", "parks", ratio (float_of_int c.sem_parks) (float_of_int c.insert_ops));
        ("exec.ms.p99", "ms", percentile execs 99.0);
        ("exec.busy_util", "ratio",
         traced.busy_s /. ((traced.window_end -. traced.window_start) *. float_of_int Model.cores));
        ("stage.to_exec_ms.p50", "ms", percentile to_exec 50.0);
        ("stage.to_exec_ms.p99", "ms", percentile to_exec 99.0);
        ("stage.exec_ms.p50", "ms", percentile exec_st 50.0);
        ("stage.exec_ms.p99", "ms", percentile exec_st 99.0);
        ("stage.reply_ms.p50", "ms", percentile reply 50.0);
        ("stage.reply_ms.p99", "ms", percentile reply 99.0);
        ("self.call_ms.p50", "ms", percentile self 50.0);
        ("self.call_ms.p99", "ms", percentile self 99.0);
        ("sim.events_per_cmd", "events", ratio (float_of_int plain.events) cmds);
        ("sim.minor_mwords_per_kcmd", "Mwords", ratio (plain.minor_words /. 1e6) (cmds /. 1e3));
        ("sim.wall_s", "s", plain.wall_s);
        ("sim.events_per_wall_s", "1/s", ratio (float_of_int plain.events) plain.wall_s);
        ("sim.wall_spread", "ratio", quartile_spread per_wall);
        ("trace.overhead_ratio", "ratio", ratio traced.wall_s plain.wall_s);
      ]
    in
    {
      metrics;
      attempted = ps.attempted;
      failed = ps.attempted - ps.served;
      problems = problems @ stage_problems;
    }
end

module List_bench = Bench (Svc.List_ops)
module Kv_bench = Bench (Svc.Kv_ops)

let usage () =
  prerr_endline
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--plant-skip]";
  exit 2

let () =
  (* A tighter major-GC pace than the default (120) keeps the heap close to
     the live data, so [heap_peak_mb] follows what the run holds rather
     than when the collector happened to finish a cycle: across seeds the
     peak then moves by ~3 % instead of ~15 %. *)
  Gc.set { (Gc.get ()) with space_overhead = 40 };
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0
  and plant = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S measurement length (sets the virtual window)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run, or traced per-layer run");
      ("--plant-skip", Arg.Set plant, " planted defect: one replica skips one execution");
    ]
    (fun _ -> usage ())
    "perfbench";
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then usage ();
  let w, kind =
    match List.find_opt (fun (w, _) -> w.name = !workload) (workloads ~seconds:(float_of_int !seconds)) with
    | Some x -> x
    | None ->
        prerr_endline ("unknown workload: " ^ !workload);
        usage ()
  in
  let seed = Int64.of_int !seed and plant = !plant in
  Printf.eprintf "%s seed=%Ld trace=%d\n%!" w.name seed !trace;
  report_model_changes ();
  let o =
    match (kind, !trace) with
    | `List, 0 -> List_bench.end_to_end ~w ~make_gen:list_gen ~seed ~plant
    | `List, _ -> List_bench.per_layer ~w ~make_gen:list_gen ~seed ~plant
    | `Kv, 0 -> Kv_bench.end_to_end ~w ~make_gen:kv_gen ~seed ~plant
    | `Kv, _ -> Kv_bench.per_layer ~w ~make_gen:kv_gen ~seed ~plant
  in
  let problems =
    o.problems @ if finite o.metrics then [] else [ "a metric is not a finite number" ]
  in
  List.iter (fun p -> prerr_endline ("CHECK FAILED: " ^ p)) problems;
  List.iter (fun (n, u, v) -> Printf.eprintf "  %-28s %.6g %s\n" n v u) o.metrics;
  let correct = problems = [] in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct o.attempted o.failed
    (json_metrics (List.filter (fun (_, _, v) -> Float.is_finite v) o.metrics));
  if not correct then exit 1
