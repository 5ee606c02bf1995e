(* Tests for the model-checking subsystem (lib/check): deterministic
   replay, schedule coverage, oracle cleanliness across all five COS
   implementations, exhaustive DFS on small scenarios, and planted-bug
   detection with seed replay. *)

module Check = Psmr_checker
module Cos_check = Check.Cos_check
module Explore = Check.Explore
module Vclock = Check.Vclock

let impls =
  [
    (Psmr_cos.Registry.Coarse, "coarse");
    (Psmr_cos.Registry.Fine, "fine");
    (Psmr_cos.Registry.Lockfree, "lockfree");
    (Psmr_cos.Registry.Striped 4, "striped-4");
    (Psmr_cos.Registry.Indexed, "indexed");
  ]

let sc ?target ?(workers = 2) ?(commands = 6) ?(write_pct = 50.0)
    ?(drain = true) ?(workload_seed = 1L) () =
  Cos_check.scenario ?target ~workers ~commands ~write_pct
    ~drain_before_close:drain ~workload_seed ()

(* --- vector clocks --- *)

let test_vclock () =
  let a = Vclock.create () in
  let b = Vclock.create () in
  Alcotest.(check bool) "empty <= empty" true (Vclock.leq a b);
  Vclock.tick a 1;
  Alcotest.(check int) "tick" 1 (Vclock.get a 1);
  Alcotest.(check bool) "a not <= b" false (Vclock.leq a b);
  Alcotest.(check bool) "b <= a" true (Vclock.leq b a);
  Vclock.tick b 7;
  Alcotest.(check bool) "incomparable" false (Vclock.leq a b || Vclock.leq b a);
  Vclock.join b a;
  Alcotest.(check bool) "a <= join" true (Vclock.leq a b);
  Alcotest.(check int) "join keeps own" 1 (Vclock.get b 7);
  let c = Vclock.copy b in
  Vclock.tick b 7;
  Alcotest.(check bool) "copy is independent" true (Vclock.get c 7 = 1)

(* --- determinism --- *)

let test_replay_deterministic () =
  let s = sc ~target:(Cos_check.Impl Psmr_cos.Registry.Lockfree) () in
  let a = Explore.replay s ~seed:987654321L in
  let b = Explore.replay s ~seed:987654321L in
  Alcotest.(check bool) "same trace hash" true (a.trace_hash = b.trace_hash);
  Alcotest.(check int) "same decision count" a.decisions b.decisions;
  Alcotest.(check (list string)) "same violations" a.violations b.violations;
  Alcotest.(check bool) "completed" true a.completed;
  let c = Explore.replay s ~seed:987654322L in
  Alcotest.(check bool) "different seed, different schedule" true
    (a.trace_hash <> c.trace_hash)

let test_batch_deterministic () =
  let s = sc ~target:(Cos_check.Impl Psmr_cos.Registry.Fine) () in
  let run () = Explore.random_walk s ~seed:5L ~schedules:50 in
  let a = run () and b = run () in
  Alcotest.(check int) "same schedules" a.Explore.schedules b.Explore.schedules;
  Alcotest.(check int) "same distinct" a.Explore.distinct b.Explore.distinct;
  Alcotest.(check int) "same decisions" a.Explore.decisions b.Explore.decisions;
  Alcotest.(check int) "no failures" 0 (List.length a.Explore.failures)

(* --- schedule coverage --- *)

let test_distinct_schedules () =
  let s = sc ~target:(Cos_check.Impl Psmr_cos.Registry.Lockfree) ~workers:3 () in
  let r = Explore.random_walk s ~seed:42L ~schedules:2000 in
  Alcotest.(check int) "all schedules distinct" 2000 r.Explore.distinct;
  Alcotest.(check int) "none truncated" 0 r.Explore.truncated

(* --- oracle cleanliness on the real implementations --- *)

let clean_random impl () =
  List.iter
    (fun drain ->
      let s = sc ~target:(Cos_check.Impl impl) ~workers:3 ~commands:8 ~drain () in
      let r = Explore.random_walk s ~seed:11L ~schedules:800 in
      Alcotest.(check int)
        (Printf.sprintf "no failures (drain=%b)" drain)
        0
        (List.length r.Explore.failures);
      Alcotest.(check int) "all complete" 0 r.Explore.incomplete)
    [ true; false ]

(* Every simulated atomic is a decision point, so the exact size of the
   bounded tree pins the sequence of shared-memory operations of the two
   lock-free COSes: a refactor of their common graph that reorders,
   adds or drops one atomic moves these counts. *)
let dfs_pins =
  [
    (Psmr_cos.Registry.Lockfree, (4228, 245714));
    (Psmr_cos.Registry.Indexed, (3984, 222502));
  ]

let exhaustive_dfs impl () =
  let s =
    sc ~target:(Cos_check.Impl impl) ~workers:2 ~commands:2 ~write_pct:100.0 ()
  in
  let r = Explore.dfs ~preemption_bound:1 ~max_schedules:100_000 s in
  Alcotest.(check bool) "bounded tree exhausted" true r.Explore.exhausted;
  Alcotest.(check int) "no failures" 0 (List.length r.Explore.failures);
  Alcotest.(check bool) "explored more than one schedule" true
    (r.Explore.distinct > 100);
  match List.assoc_opt impl dfs_pins with
  | Some (distinct, decisions) ->
      Alcotest.(check int) "distinct schedules (pinned)" distinct
        r.Explore.distinct;
      Alcotest.(check int) "decision points (pinned)" decisions
        r.Explore.decisions
  | None -> ()

(* --- planted bugs are caught, with replayable seeds --- *)

let wtg_start_target =
  Cos_check.Custom ("broken-wtg-start", (module Check.Broken.Wtg_start))

let lost_signal_target =
  Cos_check.Custom ("broken-lost-signal", (module Check.Broken.Lost_signal))

let test_promotion_race_caught () =
  (* The §6.2 hazard: pseudocode-style [Wtg] start lets a remover promote a
     node whose dependency set is still under construction.  Parameters are
     the ones the hunt converges with (all-writes maximizes the conflict
     chain). *)
  let s =
    sc ~target:wtg_start_target ~workers:3 ~commands:6 ~write_pct:100.0 ()
  in
  let r =
    Explore.random_walk ~stop_on_first:true s ~seed:9L ~schedules:5000
  in
  match r.Explore.failures with
  | [] -> Alcotest.fail "planted promotion race not caught within 5000 schedules"
  | f :: _ -> (
      Alcotest.(check bool) "conflict-order oracle fired" true
        (List.exists
           (fun v ->
             String.length v >= 14 && String.sub v 0 14 = "conflict order")
           f.Explore.violations);
      match f.Explore.seed with
      | None -> Alcotest.fail "random-walk failure carries no seed"
      | Some seed ->
          let o = Explore.replay s ~seed in
          Alcotest.(check (list string))
            "replay reproduces the exact violations" f.Explore.violations
            o.Cos_check.violations;
          Alcotest.(check bool) "replay follows the recorded schedule" true
            (o.Cos_check.choices = f.Explore.choices))

let test_lost_signal_caught () =
  let s =
    sc ~target:lost_signal_target ~workers:3 ~commands:8 ~write_pct:60.0 ()
  in
  let r =
    Explore.random_walk ~stop_on_first:true ~max_steps:3000 s ~seed:7L
      ~schedules:500
  in
  match r.Explore.failures with
  | [] -> Alcotest.fail "planted lost signal not caught within 500 schedules"
  | f :: _ ->
      Alcotest.(check bool) "reported as deadlock" true
        (List.exists
           (fun v -> String.length v >= 8 && String.sub v 0 8 = "deadlock")
           f.Explore.violations)

(* --- the self-sentinel fix cannot silently regress ---

   [Broken.No_sentinel] is the pre-hardening lock-free algorithm: insert
   does not seed [dep_on] with the node itself, so a remover that reads the
   still-growing dependency list, stalls, and performs its promoting CAS
   only after the insert has opened the node promotes it over live
   dependencies recorded after the read (see the fresh_node comment in
   lib/cos/lf_graph.ml).  Uniform random walks essentially never hit the
   window — it takes three precise preemptions separated by long
   same-process stretches — so the schedule is driven by a sticky seeded
   picker: with 85% probability keep running the process that ran last,
   otherwise pick uniformly.  Seed 1089 is pinned: under it the broken
   variant promotes prematurely and the conflict-order oracle fires; the
   hardened lockfree and indexed implementations stay clean under the same
   picker across a seed sweep that includes it. *)

let sticky_pick rng ~last (tags : int array) =
  let last_idx = ref (-1) in
  Array.iteri (fun i t -> if !last_idx < 0 && t = last then last_idx := i) tags;
  if !last_idx >= 0 && Psmr_util.Rng.below_percent rng 85.0 then !last_idx
  else Psmr_util.Rng.int rng (Array.length tags)

let sticky_run target seed =
  let rng = Psmr_util.Rng.create ~seed in
  Cos_check.run_schedule ~max_steps:5000
    (sc ~target ~workers:2 ~commands:4 ~write_pct:100.0 ~workload_seed:1L ())
    ~pick:(fun ~last tags -> sticky_pick rng ~last tags)

let no_sentinel_target =
  Cos_check.Custom ("broken-no-sentinel", (module Check.Broken.No_sentinel))

let pinned_no_sentinel_seed = 1089L

let test_no_sentinel_race_caught () =
  let o = sticky_run no_sentinel_target pinned_no_sentinel_seed in
  Alcotest.(check bool) "conflict-order oracle fired" true
    (List.exists
       (fun v -> String.length v >= 14 && String.sub v 0 14 = "conflict order")
       o.Cos_check.violations)

let test_self_sentinel_fix_holds impl () =
  for seed = 1 to 2000 do
    let o = sticky_run (Cos_check.Impl impl) (Int64.of_int seed) in
    if o.Cos_check.violations <> [] then
      Alcotest.failf "sticky seed %d: %s" seed
        (String.concat "; " o.Cos_check.violations)
  done

(* --- early-scheduling scenarios (lib/early under the same checker) --- *)

module Early_check = Check.Early_check

let esc ?(workers = 3) ?classes ?(commands = 8) ?(keys = 3) ?(write_pct = 50.0)
    ?(cross_pct = 30.0) ?optimistic ?mis_pct ?repair ?speculate ?undo
    ?(drain = true) ?crashes ?respawn ?(workload_seed = 1L) () =
  Early_check.scenario ~workers ?classes ~commands ~keys ~write_pct ~cross_pct
    ?optimistic ?mis_pct ?repair ?speculate ?undo ~drain_before_close:drain
    ?crashes ?respawn ~workload_seed ()

let early_walk ?stop_on_first s ~seed ~schedules =
  Explore.random_walk_with ?stop_on_first
    ~run:(fun ~pick -> Early_check.run_schedule s ~pick)
    ~seed ~schedules ()

let test_early_replay_deterministic () =
  let s = esc ~optimistic:true ~mis_pct:40.0 () in
  let replay seed =
    Explore.replay_with
      ~run:(fun ~pick -> Early_check.run_schedule s ~pick)
      ~seed ()
  in
  let a = replay 24680L and b = replay 24680L in
  Alcotest.(check bool) "same trace hash" true (a.trace_hash = b.trace_hash);
  Alcotest.(check int) "same decision count" a.decisions b.decisions;
  Alcotest.(check (list string)) "same violations" a.violations b.violations;
  Alcotest.(check bool) "completed" true a.completed;
  let c = replay 24681L in
  Alcotest.(check bool) "different seed, different schedule" true
    (a.trace_hash <> c.trace_hash)

let early_clean_random optimistic () =
  List.iter
    (fun drain ->
      let s = esc ~optimistic ~mis_pct:40.0 ~drain () in
      let r = early_walk s ~seed:13L ~schedules:600 in
      Alcotest.(check int)
        (Printf.sprintf "no failures (drain=%b)" drain)
        0
        (List.length r.Explore.failures);
      Alcotest.(check int) "all complete" 0 r.Explore.incomplete)
    [ true; false ]

let test_early_dfs () =
  let s = esc ~workers:2 ~commands:2 ~write_pct:100.0 ~cross_pct:100.0 () in
  let r =
    Explore.dfs_with ~preemption_bound:1 ~max_schedules:100_000
      ~run:(fun ~pick -> Early_check.run_schedule s ~pick)
      ()
  in
  Alcotest.(check bool) "bounded tree exhausted" true r.Explore.exhausted;
  Alcotest.(check int) "no failures" 0 (List.length r.Explore.failures);
  Alcotest.(check bool) "explored more than one schedule" true
    (r.Explore.distinct > 50)

(* Crash-stop inside a rendezvous: worker 1 dies at its first token fetch
   with no respawn.  On an all-cross workload over 2 single-worker classes
   every command is a 2-party barrier, so its partner arrives and waits
   forever — the class-barrier deadlock oracle must name the stalled
   barrier, and replaying the reported seed must reproduce it. *)
let crash_sc ~respawn =
  esc ~workers:2 ~commands:6 ~keys:2 ~write_pct:100.0 ~cross_pct:100.0
    ~crashes:[ (1, 1) ] ~respawn ()

let test_early_barrier_deadlock_caught () =
  let s = crash_sc ~respawn:false in
  let r = early_walk ~stop_on_first:true s ~seed:100L ~schedules:500 in
  match r.Explore.failures with
  | [] -> Alcotest.fail "crash-stop barrier deadlock not caught"
  | f :: _ -> (
      Alcotest.(check bool) "class-barrier oracle fired" true
        (List.exists
           (fun v ->
             String.length v >= 13 && String.sub v 0 13 = "class-barrier")
           f.Explore.violations);
      match f.Explore.seed with
      | None -> Alcotest.fail "random-walk failure carries no seed"
      | Some seed ->
          let o =
            Explore.replay_with
              ~run:(fun ~pick -> Early_check.run_schedule s ~pick)
              ~seed ()
          in
          Alcotest.(check (list string))
            "replay reproduces the exact violations" f.Explore.violations
            o.Cos_check.violations)

let test_early_crash_respawn_clean () =
  let s = crash_sc ~respawn:true in
  let r = early_walk s ~seed:100L ~schedules:400 in
  Alcotest.(check int) "no failures" 0 (List.length r.Explore.failures);
  Alcotest.(check int) "all complete" 0 r.Explore.incomplete

(* The planted optimistic bug: with the repair scan disabled, a confirmed
   command queued behind a mis-speculated pending one executes in the
   speculative (wrong) order.  All-write, two-key workload at per-worker
   classes keeps every same-key pair in one FIFO, so any disorder swap of
   such a pair is a conflict-order violation; workload seed 2 is pinned to
   contain one.  The repaired dispatcher stays clean on the identical
   scenario. *)
let norepair_sc ~repair =
  esc ~workers:2 ~commands:8 ~keys:2 ~write_pct:100.0 ~cross_pct:0.0
    ~optimistic:true ~mis_pct:40.0 ~repair ~workload_seed:2L ()

let test_early_norepair_caught () =
  let s = norepair_sc ~repair:false in
  let r = early_walk ~stop_on_first:true s ~seed:100L ~schedules:200 in
  match r.Explore.failures with
  | [] -> Alcotest.fail "disabled repair not caught within 200 schedules"
  | f :: _ ->
      Alcotest.(check bool) "conflict-order oracle fired" true
        (List.exists
           (fun v ->
             String.length v >= 14 && String.sub v 0 14 = "conflict order")
           f.Explore.violations)

let test_early_repair_clean () =
  let s = norepair_sc ~repair:true in
  let r = early_walk s ~seed:100L ~schedules:300 in
  Alcotest.(check int) "no failures" 0 (List.length r.Explore.failures);
  Alcotest.(check int) "all complete" 0 r.Explore.incomplete

(* Execution-time optimism over the keyed register file: the same pinned
   all-write scenario, now executing speculatively at optimistic delivery
   with undo-based rollback at confirm mismatch.  The rollback-consistency
   oracle replays the final order sequentially and compares every
   command's observations and the final key values. *)
let spec_sc ?undo ?crashes ?respawn () =
  esc ~workers:2 ~commands:8 ~keys:2 ~write_pct:100.0 ~cross_pct:0.0
    ~optimistic:true ~mis_pct:40.0 ~speculate:true ?undo ?crashes ?respawn
    ~workload_seed:2L ()

let test_early_spec_clean () =
  let s = spec_sc () in
  let r = early_walk s ~seed:100L ~schedules:300 in
  Alcotest.(check int) "no failures" 0 (List.length r.Explore.failures);
  Alcotest.(check int) "all complete" 0 r.Explore.incomplete

(* The planted rollback bug: with [undo = false] the repair revokes and
   re-executes, but skips the register restore, so redone commands observe
   the mis-speculated writes.  Caught by rollback consistency on the very
   scenario that stays clean with undo on — the deliberately broken
   variant is otherwise schedule-for-schedule identical (the picker only
   sees tags). *)
let test_early_noundo_caught () =
  let s = spec_sc ~undo:false () in
  let r = early_walk ~stop_on_first:true s ~seed:100L ~schedules:200 in
  match r.Explore.failures with
  | [] -> Alcotest.fail "disabled undo not caught within 200 schedules"
  | f :: _ ->
      Alcotest.(check bool) "rollback-consistency oracle fired" true
        (List.exists
           (fun v ->
             String.length v >= 20
             && String.sub v 0 20 = "rollback consistency")
           f.Explore.violations)

(* Worker crashes landing inside the speculation/rollback window: the
   crashed worker requeues its reservation (a speculative pop restores the
   token to pending), respawns, and the drain still commits every command
   exactly once with consistent state. *)
let test_early_spec_crash_clean () =
  let s = spec_sc ~crashes:[ (1, 2); (2, 1) ] ~respawn:true () in
  let r = early_walk s ~seed:100L ~schedules:300 in
  Alcotest.(check int) "no failures" 0 (List.length r.Explore.failures);
  Alcotest.(check int) "all complete" 0 r.Explore.incomplete

let per_impl name f =
  List.map
    (fun (impl, label) ->
      Alcotest.test_case (Printf.sprintf "%s [%s]" name label) `Quick (f impl))
    impls

let () =
  Alcotest.run "check"
    [
      ("vclock", [ Alcotest.test_case "ordering" `Quick test_vclock ]);
      ( "determinism",
        [
          Alcotest.test_case "replay" `Quick test_replay_deterministic;
          Alcotest.test_case "batch" `Quick test_batch_deterministic;
          Alcotest.test_case "coverage" `Quick test_distinct_schedules;
        ] );
      ("random-walk", per_impl "clean, drain and racing close" clean_random);
      ("dfs", per_impl "bound-1 tree exhausted, clean" exhaustive_dfs);
      ( "planted-bugs",
        [
          Alcotest.test_case "promotion race caught + replay" `Quick
            test_promotion_race_caught;
          Alcotest.test_case "lost signal caught as deadlock" `Quick
            test_lost_signal_caught;
          Alcotest.test_case "no-sentinel race caught (pinned sticky seed)"
            `Quick test_no_sentinel_race_caught;
          Alcotest.test_case "self-sentinel fix holds [lockfree]" `Quick
            (test_self_sentinel_fix_holds Psmr_cos.Registry.Lockfree);
          Alcotest.test_case "self-sentinel fix holds [indexed]" `Quick
            (test_self_sentinel_fix_holds Psmr_cos.Registry.Indexed);
        ] );
      ( "early",
        [
          Alcotest.test_case "replay deterministic" `Quick
            test_early_replay_deterministic;
          Alcotest.test_case "clean, conservative" `Quick
            (early_clean_random false);
          Alcotest.test_case "clean, optimistic" `Quick
            (early_clean_random true);
          Alcotest.test_case "dfs bound-1 tree exhausted, clean" `Quick
            test_early_dfs;
          Alcotest.test_case "crash-stop barrier deadlock caught + replay"
            `Quick test_early_barrier_deadlock_caught;
          Alcotest.test_case "crash + respawn drains clean" `Quick
            test_early_crash_respawn_clean;
          Alcotest.test_case "disabled repair caught (conflict order)" `Quick
            test_early_norepair_caught;
          Alcotest.test_case "repair keeps identical scenario clean" `Quick
            test_early_repair_clean;
          Alcotest.test_case "clean, speculative execution + rollback" `Quick
            test_early_spec_clean;
          Alcotest.test_case "disabled undo caught (rollback consistency)"
            `Quick test_early_noundo_caught;
          Alcotest.test_case "crashes inside the repair window drain clean"
            `Quick test_early_spec_crash_clean;
        ] );
    ]
