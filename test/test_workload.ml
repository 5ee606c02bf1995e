(* Tests for workload generation and the experiment harness (tiny simulated
   windows — these validate plumbing and invariants, not absolute numbers). *)

open Psmr_workload

let test_cost_classes () =
  Alcotest.(check int) "light" 1_000 (Workload.list_size Workload.Light);
  Alcotest.(check int) "moderate" 10_000 (Workload.list_size Workload.Moderate);
  Alcotest.(check int) "heavy" 100_000 (Workload.list_size Workload.Heavy);
  Alcotest.(check (option string)) "roundtrip" (Some "heavy")
    (Option.map Workload.cost_label (Workload.cost_of_string "heavy"));
  Alcotest.(check bool) "unknown" true (Workload.cost_of_string "enormous" = None)

let test_write_fraction () =
  let rng = Psmr_util.Rng.create ~seed:9L in
  let spec = { Workload.write_pct = 25.0; cost = Workload.Light } in
  let n = 50_000 in
  let writes = ref 0 in
  for _ = 1 to n do
    match Workload.next_list_command spec rng with
    | Psmr_app.Linked_list.Add _ -> incr writes
    | Psmr_app.Linked_list.Contains _ -> ()
  done;
  let pct = float_of_int !writes /. float_of_int n *. 100.0 in
  if Float.abs (pct -. 25.0) > 1.5 then Alcotest.failf "write fraction %f" pct

let test_targets_in_range () =
  let rng = Psmr_util.Rng.create ~seed:10L in
  let spec = { Workload.write_pct = 50.0; cost = Workload.Light } in
  for _ = 1 to 10_000 do
    let target =
      match Workload.next_list_command spec rng with
      | Psmr_app.Linked_list.Add i | Psmr_app.Linked_list.Contains i -> i
    in
    if target < 0 || target >= 1_000 then Alcotest.failf "target %d" target
  done

let test_trace_deterministic () =
  let spec = { Workload.write_pct = 10.0; cost = Workload.Moderate } in
  let t1 = Workload.generate_trace spec (Psmr_util.Rng.create ~seed:4L) 500 in
  let t2 = Workload.generate_trace spec (Psmr_util.Rng.create ~seed:4L) 500 in
  Alcotest.(check bool) "same trace" true (t1 = t2)

let test_zipf_skew () =
  let z = Workload.Zipf.create ~n:100 ~theta:1.0 in
  let rng = Psmr_util.Rng.create ~seed:11L in
  let counts = Array.make 100 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let k = Workload.Zipf.sample z rng in
    counts.(k) <- counts.(k) + 1
  done;
  Alcotest.(check bool) "rank 0 most frequent" true
    (Array.for_all (fun c -> c <= counts.(0)) counts);
  (* With theta=1 and n=100, rank 0 holds ~1/H(100) ~ 19% of the mass. *)
  let share0 = float_of_int counts.(0) /. float_of_int n in
  if share0 < 0.15 || share0 > 0.25 then Alcotest.failf "share %f" share0

let test_zipf_uniform_theta0 () =
  let z = Workload.Zipf.create ~n:10 ~theta:0.0 in
  let rng = Psmr_util.Rng.create ~seed:12L in
  let counts = Array.make 10 0 in
  for _ = 1 to 50_000 do
    counts.(Workload.Zipf.sample z rng) <- counts.(Workload.Zipf.sample z rng) + 1
  done;
  Array.iter
    (fun c ->
      let share = float_of_int c /. 50_000.0 in
      if Float.abs (share -. 0.1) > 0.02 then Alcotest.failf "share %f" share)
    counts

(* The alias-table sampler must reproduce the *exact* zipf weights, not
   just the qualitative skew: at small n every rank's empirical
   frequency is compared against its analytic mass 1/(i+1)^theta / H.
   This is the property the Vose construction (prob/alias arrays) could
   silently break while keeping rank 0 on top. *)
let prop_zipf_alias_frequencies =
  QCheck.Test.make ~name:"alias sampler matches exact zipf weights" ~count:20
    QCheck.(
      triple (int_range 2 8)
        (oneofl [ 0.0; 0.5; 0.99; 1.2 ])
        (int_range 1 10_000))
    (fun (n, theta, seed) ->
      let weights =
        Array.init n (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) theta)
      in
      let total = Array.fold_left ( +. ) 0.0 weights in
      let z = Workload.Zipf.create ~n ~theta in
      let rng = Psmr_util.Rng.create ~seed:(Int64.of_int seed) in
      let draws = 100_000 in
      let counts = Array.make n 0 in
      for _ = 1 to draws do
        let k = Workload.Zipf.sample z rng in
        counts.(k) <- counts.(k) + 1
      done;
      Array.for_all Fun.id
        (Array.mapi
           (fun i c ->
             let expected = weights.(i) /. total in
             let observed = float_of_int c /. float_of_int draws in
             Float.abs (observed -. expected) < 0.01)
           counts))

(* --- harness smoke tests (short virtual windows) --- *)

let tiny = 0.02

(* The max-rate feeder over the list workload straight into a COS. *)
let standalone ~impl ~workers ?(duration = tiny) ?(warmup = 0.005) spec =
  Psmr_harness.Pipeline.(
    run
      (config ~driver:(Max_rate (Plain spec))
         ~backend:(Psmr_early.Registry.Cos impl) ~workers ~duration ~warmup ()))

let test_standalone_runs impl () =
  let r =
    standalone ~impl ~workers:4
      { write_pct = 10.0; cost = Psmr_workload.Workload.Light }
  in
  Alcotest.(check bool) "throughput positive" true (r.kops > 0.0);
  Alcotest.(check bool) "population within bound" true (r.mean_population <= 151.0)

let test_standalone_deterministic () =
  let run () =
    (standalone ~impl:Psmr_cos.Registry.Lockfree ~workers:8
       { write_pct = 5.0; cost = Psmr_workload.Workload.Light })
      .kops
  in
  Alcotest.(check (float 0.0)) "same kops" (run ()) (run ())

let test_standalone_lockfree_fastest () =
  (* The paper's headline: lock-free beats coarse and fine at scale. *)
  let kops impl =
    (standalone ~impl ~workers:16 ~duration:0.04 ~warmup:0.01
       { write_pct = 0.0; cost = Psmr_workload.Workload.Light })
      .kops
  in
  let lf = kops Psmr_cos.Registry.Lockfree in
  let cg = kops Psmr_cos.Registry.Coarse in
  let fg = kops Psmr_cos.Registry.Fine in
  if not (lf > 2.0 *. cg && lf > 2.0 *. fg) then
    Alcotest.failf "expected lock-free dominance: lf=%.1f cg=%.1f fg=%.1f" lf cg fg

let test_smr_runs () =
  let r =
    Psmr_harness.Smr.run
      ~mode:(Psmr_replica.Replica.Parallel { impl = Psmr_cos.Registry.Lockfree; workers = 4 })
      ~spec:{ write_pct = 0.0; cost = Psmr_workload.Workload.Light }
      ~clients:20 ~duration:0.05 ~warmup:0.02 ()
  in
  Alcotest.(check bool) "throughput positive" true (r.kops > 0.0);
  Alcotest.(check bool) "latency positive" true (r.mean_latency_ms > 0.0);
  Alcotest.(check int) "no view change" 0 r.views

(* More in-flight commands than the early dispatcher's window (150): the
   leader delivers batches of up to 256, which must still drain. *)
let test_smr_early_batch_above_window () =
  let r =
    Psmr_harness.Smr.run
      ~mode:
        (Psmr_replica.Replica.Parallel_early
           { workers = 8; classes = None; optimistic = false })
      ~spec:{ write_pct = 5.0; cost = Psmr_workload.Workload.Light }
      ~clients:151 ~cmds_per_request:1 ~duration:0.03 ~warmup:0.02 ()
  in
  Alcotest.(check bool) "calls complete" true (r.completed_calls > 0);
  Alcotest.(check bool) "throughput positive" true (r.kops > 0.0);
  Alcotest.(check bool) "latency positive" true (r.p99_latency_ms > 0.0)

(* A deployment that completes nothing (every message lost) is an error,
   not a 0 ms latency. *)
let test_smr_fails_without_completions () =
  match
    Psmr_harness.Smr.run
      ~mode:(Psmr_replica.Replica.Parallel { impl = Psmr_cos.Registry.Lockfree; workers = 4 })
      ~spec:{ write_pct = 0.0; cost = Psmr_workload.Workload.Light }
      ~clients:4 ~duration:0.02 ~warmup:0.01
      ~faults:(Psmr_fault.Schedule.parse_exn "net-loss=100")
      ()
  with
  | r -> Alcotest.failf "reported %.1f kops with no completed call" r.kops
  | exception Failure _ -> ()

let test_smr_parallel_beats_sequential_moderate () =
  let kops mode =
    (Psmr_harness.Smr.run ~mode
       ~spec:{ write_pct = 0.0; cost = Psmr_workload.Workload.Moderate }
       ~clients:60 ~duration:0.08 ~warmup:0.03 ())
      .kops
  in
  let seq = kops Psmr_replica.Replica.Sequential in
  let par =
    kops (Psmr_replica.Replica.Parallel { impl = Psmr_cos.Registry.Lockfree; workers = 16 })
  in
  if not (par > 1.5 *. seq) then
    Alcotest.failf "expected parallel >> sequential: par=%.1f seq=%.1f" par seq

let test_costed_list_semantics () =
  let charged = ref [] in
  let s =
    Psmr_harness.Costed_list.create ~initial_size:10 ~charge:(fun ~is_write ->
        charged := is_write :: !charged)
  in
  Alcotest.(check bool) "initial member" true
    (Psmr_harness.Costed_list.execute s (Contains 5));
  Alcotest.(check bool) "absent" false
    (Psmr_harness.Costed_list.execute s (Contains 10));
  Alcotest.(check bool) "add new" true
    (Psmr_harness.Costed_list.execute s (Add 10));
  Alcotest.(check bool) "now member" true
    (Psmr_harness.Costed_list.execute s (Contains 10));
  Alcotest.(check bool) "add duplicate" false
    (Psmr_harness.Costed_list.execute s (Add 3));
  Alcotest.(check (list bool)) "charges recorded"
    [ true; false; true; false; false ]
    !charged

let test_model_exec_cost_monotone () =
  let open Psmr_harness in
  let r c = Model.exec_cost c ~is_write:false in
  Alcotest.(check bool) "light < moderate" true
    (r Psmr_workload.Workload.Light < r Psmr_workload.Workload.Moderate);
  Alcotest.(check bool) "moderate < heavy" true
    (r Psmr_workload.Workload.Moderate < r Psmr_workload.Workload.Heavy);
  Alcotest.(check bool) "write > read" true
    (Model.exec_cost Psmr_workload.Workload.Light ~is_write:true
    > Model.exec_cost Psmr_workload.Workload.Light ~is_write:false)

let () =
  Alcotest.run "workload-harness"
    [
      ( "workload",
        [
          Alcotest.test_case "cost classes" `Quick test_cost_classes;
          Alcotest.test_case "write fraction" `Quick test_write_fraction;
          Alcotest.test_case "targets in range" `Quick test_targets_in_range;
          Alcotest.test_case "trace deterministic" `Quick test_trace_deterministic;
          Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
          Alcotest.test_case "zipf uniform" `Quick test_zipf_uniform_theta0;
          QCheck_alcotest.to_alcotest prop_zipf_alias_frequencies;
        ] );
      ( "standalone-harness",
        Alcotest.test_case "deterministic" `Quick test_standalone_deterministic
        :: Alcotest.test_case "lock-free dominates" `Slow test_standalone_lockfree_fastest
        :: List.map
             (fun (impl, label) ->
               Alcotest.test_case
                 (Printf.sprintf "runs [%s]" label)
                 `Quick (test_standalone_runs impl))
             [
               (Psmr_cos.Registry.Coarse, "coarse");
               (Psmr_cos.Registry.Fine, "fine");
               (Psmr_cos.Registry.Lockfree, "lockfree");
             ] );
      ( "smr-harness",
        [
          Alcotest.test_case "runs" `Slow test_smr_runs;
          Alcotest.test_case "early, batch above the window" `Slow
            test_smr_early_batch_above_window;
          Alcotest.test_case "fails without completions" `Slow
            test_smr_fails_without_completions;
          Alcotest.test_case "parallel beats sequential" `Slow
            test_smr_parallel_beats_sequential_moderate;
        ] );
      ( "model",
        [
          Alcotest.test_case "costed list semantics" `Quick test_costed_list_semantics;
          Alcotest.test_case "exec cost monotone" `Quick test_model_exec_cost_monotone;
        ] );
    ]
