(* Benchmark entry point.

   Part 1 — Bechamel micro-benchmarks of the real (OS-thread platform) data
   structures: per-operation cost of each COS implementation, the linked-list
   service scans, and supporting structures.  These ground the simulation
   cost model (see EXPERIMENTS.md); the hashtbl group calibrates the [Hash]
   work kind charged by the key-indexed insert.

   Part 2 — a machine-readable summary, BENCH_cos.json: per-implementation
   micro costs, the simulated Fig. 2 standalone throughput (light cost,
   0% writes) for the scan-based and indexed inserts plus the early
   class-map dispatcher, the keyed low-conflict comparison at 32 workers
   (early vs early-opt under a mis-speculation sweep vs the COS family),
   the partitioned-ordering grid, the open-loop sweeps, fault and metrics
   rows, and DES engine speed.  Every simulated row is one
   Psmr_harness.Pipeline configuration, memoized on its label, so a
   config shared between sections runs once.  @bench-verify compares the
   smoke-sized report with bench_smoke.golden.json.

   Part 3 — regeneration of every figure of the paper's evaluation (Figures
   2-6) through the simulation harness.  Set PSMR_BENCH_FAST=1 for a
   subsampled smoke run; set PSMR_BENCH_SKIP_FIGURES=1 to run only the
   micro-benchmarks; set PSMR_BENCH_SMOKE=1 for a time-boxed everything
   (short quotas, short simulation windows, no figures) — the @bench-verify
   alias, which also compares the report with bench_smoke.golden.json. *)

open Bechamel
open Toolkit

module RP = Psmr_platform.Real_platform

module Rw_cmd = struct
  type t = bool

  let conflict a b = a || b
  let footprint w = [ (0, w) ]
  let pp ppf w = Format.pp_print_string ppf (if w then "w" else "r")
end

(* One insert+get+remove cycle on a COS pre-filled to a given population:
   the steady-state per-command cost of the structure itself. *)
let cos_cycle impl ~population ~writes =
  let (module S : Psmr_cos.Cos_intf.S with type cmd = bool) =
    Psmr_cos.Registry.instantiate impl (module RP) (module Rw_cmd)
  in
  let t = S.create ~max_size:150 () in
  let rng = Psmr_util.Rng.create ~seed:1L in
  for _ = 1 to population do
    S.insert t (Psmr_util.Rng.below_percent rng writes)
  done;
  Staged.stage (fun () ->
      S.insert t (Psmr_util.Rng.below_percent rng writes);
      match S.get t with
      | Some h -> S.remove t h
      | None -> assert false)

let bench_impls = Psmr_cos.Registry.paper @ [ Psmr_cos.Registry.Indexed ]

let cos_tests =
  Test.make_grouped ~name:"cos-cycle"
    (List.concat_map
       (fun impl ->
         List.map
           (fun pop ->
             Test.make
               ~name:
                 (Printf.sprintf "%s/pop%d"
                    (Psmr_cos.Registry.to_string impl)
                    pop)
               (cos_cycle impl ~population:pop ~writes:10.0))
           [ 1; 50; 140 ])
       bench_impls)

(* Calibration for the [Hash] work kind: one lookup-or-update on an
   int-keyed table at the population the COS index reaches in steady state
   (a command's footprint keys over a live graph of ~150). *)
let hashtbl_tests =
  let h : (int, int) Hashtbl.t = Hashtbl.create 64 in
  for i = 0 to 149 do
    Hashtbl.replace h i i
  done;
  let rng = Psmr_util.Rng.create ~seed:4L in
  Test.make_grouped ~name:"hashtbl"
    [
      Test.make ~name:"find-150"
        (Staged.stage (fun () ->
             ignore
               (Hashtbl.find_opt h (Psmr_util.Rng.int rng 150) : int option)));
      Test.make ~name:"replace-150"
        (Staged.stage (fun () ->
             let k = Psmr_util.Rng.int rng 150 in
             Hashtbl.replace h k k));
    ]

let list_tests =
  let scan size =
    let l = Psmr_app.Linked_list.create ~initial_size:size in
    let rng = Psmr_util.Rng.create ~seed:2L in
    Staged.stage (fun () ->
        ignore
          (Psmr_app.Linked_list.execute l
             (Contains (Psmr_util.Rng.int rng size))
            : bool))
  in
  Test.make_grouped ~name:"linked-list"
    [
      Test.make ~name:"contains/1k" (scan 1_000);
      Test.make ~name:"contains/10k" (scan 10_000);
    ]

let util_tests =
  let rng = Psmr_util.Rng.create ~seed:3L in
  let hist = Psmr_util.Histogram.create () in
  Test.make_grouped ~name:"util"
    [
      Test.make ~name:"rng-int"
        (Staged.stage (fun () -> ignore (Psmr_util.Rng.int rng 1000 : int)));
      Test.make ~name:"histogram-record"
        (Staged.stage (fun () -> Psmr_util.Histogram.record hist 0.0012));
    ]

let atomic_tests =
  let a = Atomic.make 0 in
  let m = Mutex.create () in
  Test.make_grouped ~name:"primitives"
    [
      Test.make ~name:"atomic-cas"
        (Staged.stage (fun () ->
             ignore (Atomic.compare_and_set a (Atomic.get a) 1 : bool)));
      Test.make ~name:"mutex-lock-unlock"
        (Staged.stage (fun () ->
             Mutex.lock m;
             Mutex.unlock m));
    ]

(* Runs the micro suite, prints the table, and returns (name, ns/op) for the
   JSON summary. *)
let run_micro ~smoke () =
  let cfg =
    if smoke then Benchmark.cfg ~limit:200 ~quota:(Time.second 0.05) ~kde:None ()
    else Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None ()
  in
  let tests =
    Test.make_grouped ~name:"micro"
      [ atomic_tests; util_tests; hashtbl_tests; list_tests; cos_tests ]
  in
  let raws = Benchmark.all cfg [ Instance.monotonic_clock ] tests in
  let ols =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |])
      Instance.monotonic_clock raws
  in
  print_endline "# Micro-benchmarks (real threads, this machine)\n";
  let measured =
    Hashtbl.fold
      (fun name result acc ->
        let ns =
          match Analyze.OLS.estimates result with
          | Some [ e ] -> Some e
          | Some _ | None -> None
        in
        let r2 =
          match Analyze.OLS.r_square result with
          | Some r -> Printf.sprintf "%.4f" r
          | None -> "n/a"
        in
        (name, ns, r2) :: acc)
      ols []
    |> List.sort compare
  in
  let rows =
    List.map
      (fun (name, ns, r2) ->
        let ns =
          match ns with Some e -> Printf.sprintf "%.1f" e | None -> "n/a"
        in
        [ name; ns; r2 ])
      measured
  in
  print_string
    (Psmr_util.Table.render ~header:[ "benchmark"; "ns/op"; "r-sq" ] rows);
  print_newline ();
  List.filter_map
    (fun (name, ns, _) -> Option.map (fun e -> (name, e)) ns)
    measured

(* Every simulated row below is one {!Psmr_harness.Pipeline} configuration.
   The rows of all sections are points of one memoised grid keyed by
   [Pipeline.label], so a configuration shared between sections (or
   repeated across worker counts) is simulated exactly once, and the
   fault-free points are fanned out over domains before the sections are
   assembled. *)
module P = Psmr_harness.Pipeline
module W = Psmr_workload.Workload
module Keyed = W.Keyed
module Scenario = Psmr_traffic.Scenario

(* Measurement window and warm-up, virtual seconds. *)
let window ~smoke = if smoke then (0.02, 0.005) else (0.08, 0.02)

let point ~smoke ?ordering ?batch ~workers backend driver =
  let duration, warmup = window ~smoke in
  let backend =
    match Psmr_early.Registry.of_string backend with
    | Some b -> b
    | None -> invalid_arg ("bench: unknown backend " ^ backend)
  in
  P.config ~driver ?ordering ~backend ~workers ?batch ~duration ~warmup ()

let memo : (string, P.result) Hashtbl.t = Hashtbl.create 64

(* Compute the missing points on [jobs] domains and fill the memo (main
   domain only — the table is never touched from helpers).  Every point is
   independent and deterministic, so the memo ends up with exactly the
   values a sequential run would compute, and the JSON emitted from it is
   identical for any [jobs]. *)
let prefill ~jobs configs =
  let todo =
    List.filter (fun c -> not (Hashtbl.mem memo (P.label c))) configs
    |> List.sort_uniq (fun a b -> compare (P.label a) (P.label b))
  in
  let results =
    Psmr_sim.Grid_runner.map ~jobs (fun c -> P.run c) (Array.of_list todo)
  in
  List.iteri (fun i c -> Hashtbl.replace memo (P.label c) results.(i)) todo

let result c =
  match Hashtbl.find_opt memo (P.label c) with
  | Some r -> r
  | None ->
      let r = P.run c in
      Hashtbl.add memo (P.label c) r;
      r

(* Simulated Fig. 2 points for the JSON summary: standalone throughput at
   light cost, 0% writes, for the scan-based baseline, the indexed insert
   with and without delivery batching, and the early dispatcher (keyed
   low-conflict workload at 0% writes — footprints are needed for the
   class map, the cost profile matches). *)
let fig2 ~smoke =
  let plain = P.Max_rate (Plain { write_pct = 0.0; cost = W.Light }) in
  let keyed0 = P.Max_rate (Keyed { Keyed.low_conflict with write_pct = 0.0 }) in
  List.concat_map
    (fun w ->
      List.map
        (fun (label, backend, batch, driver) ->
          ((w, label), point ~smoke ~batch ~workers:w backend driver))
        [
          ("lockfree", "lockfree", 1, plain);
          ("indexed", "indexed", 1, plain);
          ("indexed_batch16", "indexed", 16, plain);
          ("early", "early", 1, keyed0);
          ("early_opt", "early-opt", 1, keyed0);
        ])
    [ 16; 32; 64 ]

(* The acceptance comparison (docs/SCHEDULING.md): the keyed low-conflict
   workload at 32 workers — early scheduling, conservative and optimistic
   under a mis-speculation sweep, against the COS family fed the identical
   command stream.  Rows carry the dispatcher's class statistics so the
   fast-path share is visible next to the throughput. *)
let keyed ~smoke =
  let pt name ?(mis = 0.0) ?(batch = 1) backend =
    ( (name, mis),
      point ~smoke ~batch ~workers:32 backend
        (P.Max_rate (Keyed { Keyed.low_conflict with mis_pct = mis })) )
  in
  [
    pt "early" "early";
    pt "early_opt_mis0" "early-opt";
    pt "early_opt_mis0_1" ~mis:0.1 "early-opt";
    pt "early_opt_mis1" ~mis:1.0 "early-opt";
    pt "early_opt_mis5" ~mis:5.0 "early-opt";
    pt "early_opt_mis10" ~mis:10.0 "early-opt";
    pt "indexed" "indexed";
    pt "indexed_batch16" ~batch:16 "indexed";
    pt "lockfree" "lockfree";
  ]

(* Partitioned-ordering grid (docs/PARTITIONING.md): the Partition stack
   over the simulated LAN, partitions × workers.  Light rows are
   ordering-bound — execution is cheap enough that the sequencer's
   per-command ingestion is the bottleneck, so throughput scales with
   partitions (the acceptance ratio below).  Moderate rows show the
   interplay with execution: at w8 the executor caps both sides and
   partitioning buys nothing; at w32 it partially unbinds.  The 100%-cross
   rows are the graceful-degradation bound: every command rendezvouses in
   the merge and serializes classwise in the dispatcher, so throughput
   drops but nothing wedges (no holes pile up, no view changes). *)
let part ~smoke =
  let spec cost cross =
    { Keyed.low_conflict with cost; cross_pct = cross }
  in
  let light = spec W.Light and moderate = spec W.Moderate in
  List.map
    (fun (p, w, spec) ->
      ( (p, w, spec),
        point ~smoke ~ordering:(P.partition p) ~workers:w "early"
          (P.Max_rate (Keyed spec)) ))
    [
      (1, 32, light 2.0); (2, 32, light 2.0); (4, 32, light 2.0);
      (4, 32, light 5.0); (1, 32, light 100.0); (4, 32, light 100.0);
      (1, 8, moderate 2.0); (4, 8, moderate 2.0); (1, 32, moderate 2.0);
      (4, 32, moderate 2.0);
    ]

(* Open-loop latency-under-load grid (docs/WORKLOADS.md): the Zipfian
   YCSB-A scenario driven through the bounded offered queue into each
   scheduler family at 32 workers, sweeping offered load to locate the
   saturation knee.  The rate grid is dense around each family's measured
   capacity (coarse saturates near 85 kops; the keyed/early/partitioned
   families near 1.0-1.2 Mops/s) so the knee lands on an interior step
   rather than the sweep edge. *)
let open_loop_workers = 32
let open_loop_scenario = Scenario.spec Scenario.A

let open_loop ~smoke =
  let duration, warmup = window ~smoke in
  let rates =
    if smoke then [ 50_000.0; 200_000.0; 2_000_000.0 ]
    else
      [
        25_000.0; 50_000.0; 100_000.0; 200_000.0; 400_000.0; 800_000.0;
        1_000_000.0; 1_100_000.0; 1_200_000.0; 1_600_000.0;
      ]
  in
  List.map
    (fun name ->
      (* JSON row names use underscores; the target parser wants the
         registry spelling. *)
      let spelled = String.map (function '_' -> '-' | c -> c) name in
      let ordering, backend =
        match P.target_of_string spelled with
        | Some t -> t
        | None -> invalid_arg ("open_loop: unknown target " ^ name)
      in
      ( name,
        List.map
          (fun rate ->
            P.config
              ~driver:
                (P.open_loop open_loop_scenario
                   (Psmr_traffic.Arrival.Poisson { rate }))
              ~ordering ~backend ~workers:open_loop_workers ~duration ~warmup
              ())
          rates ))
    [ "coarse"; "indexed"; "early"; "early_opt"; "part4" ]

let grid ~smoke =
  List.map snd (fig2 ~smoke) @ List.map snd (keyed ~smoke)
  @ List.map snd (part ~smoke)
  @ List.concat_map snd (open_loop ~smoke)

let print_open_loop ~smoke =
  List.iter
    (fun (name, steps) ->
      let steps = List.map result steps in
      Printf.printf "# open-loop %s workers=%d %s\n" name open_loop_workers
        (Format.asprintf "%a" Scenario.pp_spec open_loop_scenario);
      List.iter
        (fun (s : P.result) ->
          Printf.printf
            "  offered %8.1f kops -> %8.1f kops  drop %5.2f%%  p50 %.6f  \
             p99 %.6f  p999 %.6f\n"
            s.offered_kops s.kops
            (100.0 *. s.drop_rate)
            s.p50 s.p99 s.p999)
        steps;
      (match P.knee steps with
      | Some k -> Printf.printf "  knee: %.1f kops offered\n" k
      | None -> print_string "  knee: not reached\n");
      print_newline ())
    (open_loop ~smoke)

(* Throughput-under-faults rows: coarse vs lock-free at 32 workers, with
   one mid-window worker crash that recovers, against the fault-free
   baseline.  Quantifies graceful degradation (docs/FAULTS.md): the
   orphaned command is requeued, a replacement worker joins after the
   respawn delay, and throughput dips rather than collapsing.  Faulty
   points install the global fault plan, so they run on the main domain,
   never in the prefilled grid. *)
let moderate10 = P.Max_rate (Plain { write_pct = 10.0; cost = W.Moderate })

let faults ~smoke =
  let duration, warmup = window ~smoke in
  let crash_spec =
    Printf.sprintf "seed=11,worker-crash=1@%g+%g" (warmup +. (duration /. 4.0))
      (duration /. 4.0)
  in
  let faults = Psmr_fault.Schedule.parse_exn crash_spec in
  List.map
    (fun name ->
      let base = point ~smoke ~workers:32 name moderate10 in
      let faulty = result { base with faults } in
      ( name ^ "_w32",
        crash_spec,
        (result base).kops,
        faulty.kops,
        faulty.faults_injected ))
    [ "coarse"; "lockfree" ]

(* Observability block for the JSON summary: the coarse vs lock-free
   counter/latency breakdown at 32 workers that explains the Figure-2
   plateau (see docs/OBSERVABILITY.md), as emitted by
   [Psmr_obs.Metrics.to_json]. *)
let metrics ~smoke =
  List.map
    (fun name ->
      let r = P.run ~metrics:true (point ~smoke ~workers:32 name moderate10) in
      let doc =
        Psmr_obs.Metrics.to_json
          ~cost_model:(Psmr_sim.Costs.to_assoc Psmr_harness.Model.sim_costs)
          (Option.get r.metrics)
      in
      match Psmr_util.Json.parse doc with
      | Ok j -> (name ^ "_w32", j)
      | Error e -> failwith ("metrics block: " ^ e))
    [ "coarse"; "lockfree" ]

(* --- the JSON summary --- *)

module J = Psmr_util.Json

(* A number as the report has always rounded it: [num "%.1f" kops] reads
   back exactly as the [%.1f] text would. *)
let num fmt x = J.Num (float_of_string (Printf.sprintf fmt x))
let int n = J.Num (float_of_int n)
let obj fields = J.Obj fields

let write_json ~smoke ~path ~micro ~engine =
  let fig2 = List.map (fun (key, c) -> (key, (result c).kops)) (fig2 ~smoke) in
  let keyed = List.map (fun (key, c) -> (key, result c)) (keyed ~smoke) in
  let part = List.map (fun (key, c) -> (key, result c)) (part ~smoke) in
  let sections =
    [
      ("metrics", obj (metrics ~smoke));
      ( "micro_ns_per_op",
        J.Arr
          (List.map
             (fun (name, ns) ->
               obj [ ("name", J.Str name); ("ns", num "%.2f" ns) ])
             micro) );
      ( "faults_sim_kops",
        J.Arr
          (List.map
             (fun (name, spec, base, faulty, injected) ->
               obj
                 [
                   ("name", J.Str name);
                   ("faults", J.Str spec);
                   ("kops_fault_free", num "%.1f" base);
                   ("kops_faulty", num "%.1f" faulty);
                   ("injected", int injected);
                 ])
             (faults ~smoke)) );
      ( "fig2_sim_kops",
        J.Arr
          (List.map
             (fun ((w, impl), kops) ->
               obj
                 [
                   ("workers", int w);
                   ("impl", J.Str impl);
                   ("kops", num "%.1f" kops);
                 ])
             fig2) );
      ( "keyed_sim_kops",
        J.Arr
          (List.map
             (fun ((name, mis), (r : P.result)) ->
               let d = r.dispatch in
               obj
                 [
                   ("name", J.Str name);
                   ("workers", int 32);
                   ("mis_pct", num "%.1f" mis);
                   ("kops", num "%.1f" r.kops);
                   ("direct", int d.direct);
                   ("rendezvous", int d.rendezvous);
                   ("repairs", int d.repairs);
                   ("revoked", int d.revoked);
                   ("spec_execs", int d.spec_execs);
                   ("rollbacks", int d.rollbacks);
                   ("redos", int d.redos);
                 ])
             keyed) );
      ( "part_sim_kops",
        J.Arr
          (List.map
             (fun ((p, w, (spec : Keyed.spec)), (r : P.result)) ->
               let m = r.merge in
               obj
                 [
                   ("partitions", int p);
                   ("replicas", int (P.default_replicas ~partitions:p));
                   ("workers", int w);
                   ("cost", J.Str (W.cost_label spec.cost));
                   ("cross_pct", num "%g" spec.cross_pct);
                   ("kops", num "%.1f" r.kops);
                   ("singles", int m.singles);
                   ("crosses", int m.crosses);
                   ("holes", int m.holes);
                   ("merge_pending", int m.pending);
                   ("views", int m.views);
                 ])
             part) );
      ( "open_loop",
        J.Arr
          (List.map
             (fun (name, configs) ->
               let steps = List.map result configs in
               let sc = open_loop_scenario in
               obj
                 [
                   ("impl", J.Str name);
                   ("workers", int open_loop_workers);
                   ("scenario", J.Str (Scenario.label sc.scenario));
                   ("records", int sc.records);
                   ("theta", num "%g" sc.theta);
                   ( "knee_kops",
                     match P.knee steps with
                     | Some k -> num "%.9g" k
                     | None -> J.Null );
                   ( "steps",
                     J.Arr
                       (List.map
                          (fun (s : P.result) ->
                            obj
                              [
                                ("offered_kops", num "%.9g" s.offered_kops);
                                ("kops", num "%.1f" s.kops);
                                ("drop_rate", num "%.9g" s.drop_rate);
                                ("p50", num "%.9g" s.p50);
                                ("p99", num "%.9g" s.p99);
                                ("p999", num "%.9g" s.p999);
                              ])
                          steps) );
                 ])
             (open_loop ~smoke)) );
      ( "sim_events_per_wall_second",
        J.Arr
          (List.map
             (fun (r : Engine_churn.row) ->
               obj
                 [
                   ("name", J.Str r.name);
                   ("events", int r.events);
                   ("wall_seconds", num "%.6f" r.wall_seconds);
                   ( "events_per_second",
                     num "%.0f" (Engine_churn.events_per_second r) );
                 ])
             engine) );
    ]
  in
  (* Headline ratios, each present when its baseline is positive. *)
  let ratio name base x =
    match (base, x) with
    | Some b, Some x when b > 0.0 -> [ (name, num "%.2f" (x /. b)) ]
    | _ -> []
  in
  let fig2_at32 impl = List.assoc_opt (32, impl) fig2 in
  let keyed_kops name =
    List.find_map
      (fun ((n, _), (r : P.result)) -> if n = name then Some r.kops else None)
      keyed
  in
  (* The partitioning headline: 4 sequencers vs 1 at w32 on the
     ordering-bound (Light, 2%-cross) workload. *)
  let part_kops p =
    List.find_map
      (fun ((p', w, (spec : Keyed.spec)), (r : P.result)) ->
        if p' = p && w = 32 && spec.cost = Light && spec.cross_pct = 2.0 then
          Some r.kops
        else None)
      part
  in
  let headlines =
    ratio "speedup_w32_indexed_batch16_vs_lockfree" (fig2_at32 "lockfree")
      (fig2_at32 "indexed_batch16")
    @ ratio "speedup_w32_early_vs_indexed" (keyed_kops "indexed")
        (keyed_kops "early")
    @ ratio "speedup_w32_part4_vs_part1" (part_kops 1) (part_kops 4)
  in
  let oc = open_out path in
  output_string oc (J.to_string (obj (sections @ headlines)));
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n%!" path

let getenv_flag v =
  match Sys.getenv_opt v with Some ("1" | "true") -> true | _ -> false

let getenv_int v default =
  match Sys.getenv_opt v with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> default)
  | None -> default

let full_run ~smoke =
  let jobs = getenv_int "PSMR_BENCH_JOBS" 1 in
  (* Engine rows first, on the pristine process: the Bechamel section
     leaves a populated major heap behind, and measured on a 10M-event
     churn that costs the engine rows ~12% even after a compaction. *)
  let engine_rows = Engine_churn.rows ~smoke () in
  let micro = run_micro ~smoke () in
  (* Fan the distinct fault-free grid points out over domains before the
     (sequential, memo-served) section builds below. *)
  prefill ~jobs (grid ~smoke);
  let micro_for_json =
    List.filter
      (fun (name, _) ->
        List.exists
          (fun prefix -> String.starts_with ~prefix name)
          [ "micro/cos-cycle/"; "micro/hashtbl/" ])
      micro
  in
  let json_path =
    Option.value (Sys.getenv_opt "PSMR_BENCH_JSON") ~default:"BENCH_cos.json"
  in
  write_json ~smoke ~path:json_path ~micro:micro_for_json ~engine:engine_rows;
  if (not smoke) && not (getenv_flag "PSMR_BENCH_SKIP_FIGURES") then begin
    let opts =
      if getenv_flag "PSMR_BENCH_FAST" then Psmr_harness.Figures.fast_options
      else Psmr_harness.Figures.default_options
    in
    let opts =
      { opts with progress = not (getenv_flag "PSMR_BENCH_QUIET"); jobs }
    in
    print_string (Psmr_harness.Figures.run_all ~opts ())
  end

let () =
  let smoke = getenv_flag "PSMR_BENCH_SMOKE" in
  if getenv_flag "PSMR_BENCH_ENGINE_ONLY" then
    (* Engine-core numbers only (the @bench-engine alias): no Bechamel
       quotas, no simulation grids, no figures — just how fast the DES
       itself turns events over. *)
    List.iter
      (fun r -> Format.printf "%a@." Engine_churn.pp_row r)
      (Engine_churn.rows ~smoke ())
  else if getenv_flag "PSMR_BENCH_OPEN_ONLY" then begin
    (* Open-loop sweeps only (the @bench-open alias): the lib/traffic
       latency-under-load grid, printed as tables, no JSON. *)
    prefill ~jobs:(getenv_int "PSMR_BENCH_JOBS" 1)
      (List.concat_map snd (open_loop ~smoke));
    print_open_loop ~smoke
  end
  else full_run ~smoke
