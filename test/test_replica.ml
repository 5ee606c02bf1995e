(* End-to-end tests of the replicated deployments: sequential and parallel
   SMR over atomic broadcast, on real threads and on the simulator. *)

module RP = Psmr_platform.Real_platform

(* --- KV service deployments on real threads --- *)

module KV_smr = Psmr_replica.Replica.Make (RP) (Psmr_app.Kv_store)

let fast_abcast =
  {
    Psmr_broadcast.Abcast.batch_max = 16;
    batch_delay = 1e-3;
    heartbeat_interval = 5e-3;
    election_timeout = 100e-3;
    checkpoint_interval = 64;
  }

(* execute-with-undo wrapper for the optimistic mode; harmless to set
   unconditionally since the other modes ignore it. *)
let kv_opt_execute s cmd =
  let resp, u = Psmr_app.Kv_store.execute_undoable s cmd in
  (resp, fun () -> Psmr_app.Kv_store.undo s u)

let kv_deployment ?(clients = 2) ?(mode = Psmr_replica.Replica.Sequential) () =
  let services = Array.make 3 None in
  let make_service id =
    let s = Psmr_app.Kv_store.create ~capacity:64 in
    services.(id) <- Some s;
    s
  in
  let cfg =
    {
      (KV_smr.Deployment.default_config ~make_service ()) with
      clients;
      mode;
      abcast = fast_abcast;
      tick_interval = 1e-3;
      client_timeout = 0.4;
      opt_execute = Some kv_opt_execute;
    }
  in
  let d = KV_smr.Deployment.create cfg in
  KV_smr.Deployment.start d;
  (d, services)

let test_kv_roundtrip mode () =
  let d, _ = kv_deployment ~mode () in
  let c = KV_smr.Deployment.client d 0 in
  Alcotest.(check bool) "put" true (KV_smr.call c (Put (1, 10)) = Some Stored);
  Alcotest.(check bool) "get" true
    (KV_smr.call c (Get 1) = Some (Value (Some 10)));
  Alcotest.(check bool) "get empty" true
    (KV_smr.call c (Get 2) = Some (Value None));
  KV_smr.Deployment.shutdown d

let test_kv_replicas_converge mode () =
  let d, services = kv_deployment ~mode () in
  let c0 = KV_smr.Deployment.client d 0 in
  let c1 = KV_smr.Deployment.client d 1 in
  let t0 = Thread.create (fun () ->
      for i = 0 to 19 do
        ignore (KV_smr.call c0 (Put (i mod 8, i)) : _ option)
      done) () in
  let t1 = Thread.create (fun () ->
      for i = 0 to 19 do
        ignore (KV_smr.call c1 (Put (8 + (i mod 8), 100 + i)) : _ option)
      done) () in
  Thread.join t0;
  Thread.join t1;
  (* One more command from each client; once answered, all prior commands
     are executed at the answering replica.  Give stragglers a moment, then
     compare full state across replicas. *)
  ignore (KV_smr.call c0 (Get 0) : _ option);
  Thread.delay 0.2;
  let dump = function
    | Some s -> List.init 64 (fun k -> Psmr_app.Kv_store.execute s (Get k))
    | None -> Alcotest.fail "service not created"
  in
  let s0 = dump services.(0) in
  Alcotest.(check bool) "replica 1 equals replica 0" true (dump services.(1) = s0);
  Alcotest.(check bool) "replica 2 equals replica 0" true (dump services.(2) = s0);
  KV_smr.Deployment.shutdown d

(* --- leader crash and failover --- *)

let test_leader_crash_failover mode () =
  let d, _ = kv_deployment ~clients:1 ~mode () in
  let c = KV_smr.Deployment.client d 0 in
  Alcotest.(check bool) "before crash" true
    (KV_smr.call c (Put (0, 1)) = Some Stored);
  KV_smr.Deployment.crash_replica d 0;
  (* The next calls must eventually succeed via the new leader. *)
  Alcotest.(check bool) "after crash: write" true
    (KV_smr.call c (Put (1, 2)) = Some Stored);
  Alcotest.(check bool) "after crash: read" true
    (KV_smr.call c (Get 1) = Some (Value (Some 2)));
  Alcotest.(check bool) "survivors installed a newer view" true
    (KV_smr.Deployment.replica_view d 1 > 0
    && KV_smr.Deployment.replica_view d 1 = KV_smr.Deployment.replica_view d 2);
  KV_smr.Deployment.shutdown d

(* --- at-most-once semantics under retries --- *)

module Bank_smr = Psmr_replica.Replica.Make (RP) (Psmr_app.Bank)

let bank_opt_execute s cmd =
  let resp, u = Psmr_app.Bank.execute_undoable s cmd in
  (resp, fun () -> Psmr_app.Bank.undo s u)

let test_exactly_once_deposits mode () =
  (* Aggressive client timeout forces spurious retries; deposits must still
     be applied exactly once each. *)
  let services = Array.make 3 None in
  let make_service id =
    let s = Psmr_app.Bank.create ~accounts:4 ~initial_balance:0 in
    services.(id) <- Some s;
    s
  in
  let cfg =
    {
      (Bank_smr.Deployment.default_config ~make_service ()) with
      clients = 2;
      mode;
      abcast = fast_abcast;
      tick_interval = 1e-3;
      client_timeout = 0.02 (* small: retries will happen *);
      opt_execute = Some bank_opt_execute;
    }
  in
  let d = Bank_smr.Deployment.create cfg in
  Bank_smr.Deployment.start d;
  let deposits_per_client = 25 in
  let worker ci =
    let c = Bank_smr.Deployment.client d ci in
    fun () ->
      for _ = 1 to deposits_per_client do
        ignore (Bank_smr.call c (Deposit (ci, 1)) : _ option)
      done;
      (* Retries of the last request may still be in flight; settle. *)
      ignore (Bank_smr.call c (Balance ci) : _ option)
  in
  let t0 = Thread.create (worker 0) () in
  let t1 = Thread.create (worker 1) () in
  Thread.join t0;
  Thread.join t1;
  Thread.delay 0.3;
  let check_replica i =
    match services.(i) with
    | Some s ->
        Alcotest.(check int)
          (Printf.sprintf "replica %d total (exactly-once)" i)
          (2 * deposits_per_client)
          (Psmr_app.Bank.total s)
    | None -> Alcotest.fail "missing service"
  in
  check_replica 0;
  check_replica 1;
  check_replica 2;
  Bank_smr.Deployment.shutdown d

(* --- the same deployment stack under the simulator --- *)

let test_sim_deployment () =
  let open Psmr_sim in
  let engine = Engine.create () in
  let (module SP) = Sim_platform.make engine Costs.default in
  let module SMR = Psmr_replica.Replica.Make (SP) (Psmr_app.Kv_store) in
  let responses = ref [] in
  let cfg =
    {
      (SMR.Deployment.default_config ~make_service:(fun _ ->
           Psmr_app.Kv_store.create ~capacity:64)
         ()) with
      clients = 4;
      mode = Parallel { impl = Psmr_cos.Registry.Lockfree; workers = 4 };
      abcast = fast_abcast;
      tick_interval = 1e-3;
      client_timeout = 0.4;
      latency = (fun ~src:_ ~dst:_ -> 60e-6);
    }
  in
  let d = SMR.Deployment.create cfg in
  Engine.spawn engine (fun () ->
      SMR.Deployment.start d;
      for ci = 0 to 3 do
        SP.spawn (fun () ->
            let c = SMR.Deployment.client d ci in
            for i = 0 to 24 do
              match SMR.call c (Put ((ci * 16) + (i mod 16), i)) with
              | Some Stored -> responses := `Ok :: !responses
              | Some _ | None -> responses := `Bad :: !responses
            done)
      done);
  Engine.run ~until:5.0 engine;
  Alcotest.(check int) "all calls answered" 100 (List.length !responses);
  Alcotest.(check bool) "all stored" true
    (List.for_all (fun r -> r = `Ok) !responses);
  Alcotest.(check bool) "virtual time sane" true (Engine.now engine <= 5.0)

let test_sim_group_commit () =
  (* One client, a 10 ms batch timer and 60 us links: the idle leader
     proposes the lone command at once (group commit), so the call takes a
     few link delays, not the batch timer. *)
  let open Psmr_sim in
  let engine = Engine.create () in
  let (module SP) = Sim_platform.make engine Costs.default in
  let module SMR = Psmr_replica.Replica.Make (SP) (Psmr_app.Kv_store) in
  let cfg =
    {
      (SMR.Deployment.default_config ~make_service:(fun _ ->
           Psmr_app.Kv_store.create ~capacity:16)
         ()) with
      abcast = { fast_abcast with batch_delay = 10e-3 };
      latency = (fun ~src:_ ~dst:_ -> 60e-6);
    }
  in
  let d = SMR.Deployment.create cfg in
  let elapsed = ref infinity in
  Engine.spawn engine (fun () ->
      SMR.Deployment.start d;
      SP.spawn (fun () ->
          let c = SMR.Deployment.client d 0 in
          let t0 = SP.now () in
          match SMR.call c (Put (1, 1)) with
          | Some Stored -> elapsed := SP.now () -. t0
          | Some _ | None -> ()));
  Engine.run ~until:1.0 engine;
  Alcotest.(check bool)
    (Printf.sprintf "call took %.3f ms < 1 ms" (!elapsed *. 1e3))
    true (!elapsed < 1e-3)

let test_state_transfer_after_truncation () =
  (* Partition replica 2 away from its peers' traffic while the log is being
     truncated aggressively; after healing, it can no longer catch up from
     logs (gap beyond every base) so it must recover through a service
     snapshot, and end up with the same state. *)
  let open Psmr_sim in
  let engine = Engine.create () in
  (* Zero-cost atomic reads let the test inspect counters after the run. *)
  let (module SP) =
    Sim_platform.make engine { Costs.default with atomic_read = 0.0 }
  in
  let module SMR = Psmr_replica.Replica.Make (SP) (Psmr_app.Kv_store) in
  let services = Array.make 3 None in
  let cfg =
    {
      (SMR.Deployment.default_config ~make_service:(fun id ->
           let s = Psmr_app.Kv_store.create ~capacity:16 in
           services.(id) <- Some s;
           s)
         ()) with
      clients = 1;
      mode = Sequential;
      abcast = { fast_abcast with checkpoint_interval = 4; batch_max = 4 };
      tick_interval = 1e-3;
      client_timeout = 0.3;
      latency = (fun ~src:_ ~dst:_ -> 1e-4);
    }
  in
  let d = SMR.Deployment.create cfg in
  let net = SMR.Deployment.network d in
  let client_done = ref false in
  Engine.spawn engine (fun () ->
      SMR.Deployment.start d;
      SP.spawn (fun () ->
          let c = SMR.Deployment.client d 0 in
          for i = 0 to 199 do
            (* Cut everything into replica 2 before call 50, for 1 s: the
               cut tracks the client's progress, not the calls' latency. *)
            if i = 50 then begin
              SMR.Net.set_link_filter net (fun ~src:_ ~dst -> dst <> 2);
              SP.after 1.0 (fun () -> SMR.Net.heal net)
            end;
            ignore (SMR.call c (Put (i mod 16, i)) : _ option)
          done;
          client_done := true));
  Engine.run ~until:8.0 engine;
  Alcotest.(check bool) "client finished" true !client_done;
  let dump = function
    | Some s -> List.init 16 (fun k -> Psmr_app.Kv_store.execute s (Get k))
    | None -> Alcotest.fail "service missing"
  in
  (* Let replica 2 finish catching up within the run window; states must
     converge. *)
  let s0 = dump services.(0) in
  Alcotest.(check bool) "replica 1 converged" true (dump services.(1) = s0);
  Alcotest.(check bool) "replica 2 converged via state transfer" true
    (dump services.(2) = s0);
  (* Commands skipped over by the snapshot were never individually delivered
     at replica 2 — proof the recovery went through state transfer rather
     than log replay. *)
  Alcotest.(check bool) "snapshot skipped deliveries" true
    (SMR.Deployment.replica_delivered d 2 < SMR.Deployment.replica_delivered d 0)

(* Golden event-order digests of one seeded simulated deployment per
   execution mode: an MD5 over the (time, tag) pair of every executed
   event (hex floats, so the digest sees exact bits), plus the final clock
   and event count -- the fold test_sim's [trace_digest] pins the pipeline
   harness with.  Two clients issue batches of three (a put, a get and a
   four-slot scan, so partitioned runs cross partitions) over overlapping
   keys.  Any change to the replica, the ordering stack or an executor
   that reorders, adds or drops an event breaks these. *)
let sim_deployment_digest mode =
  let open Psmr_sim in
  let engine = Engine.create () in
  let buf = Buffer.create (1 lsl 16) in
  Engine.set_tracer engine
    (Some
       (fun time tag ->
         Buffer.add_string buf (Printf.sprintf "%h %d\n" time tag)));
  let (module SP) = Sim_platform.make engine Costs.default in
  let module SMR = Psmr_replica.Replica.Make (SP) (Psmr_app.Kv_store) in
  let answered = ref 0 in
  let cfg =
    {
      (SMR.Deployment.default_config ~make_service:(fun _ ->
           Psmr_app.Kv_store.create ~capacity:16)
         ()) with
      clients = 2;
      mode;
      abcast = fast_abcast;
      latency = (fun ~src:_ ~dst:_ -> 80e-6);
      opt_execute = Some kv_opt_execute;
    }
  in
  let d = SMR.Deployment.create cfg in
  Engine.spawn engine (fun () ->
      SMR.Deployment.start d;
      for ci = 0 to 1 do
        SP.spawn (fun () ->
            let c = SMR.Deployment.client d ci in
            for i = 0 to 5 do
              let k = (3 * i) + ci in
              match
                SMR.call_batch c
                  [|
                    Put (k mod 16, i); Get ((k + 5) mod 16); Scan (k mod 12, 4);
                  |]
              with
              | Some _ -> incr answered
              | None -> ()
            done)
      done);
  Engine.run ~until:0.5 engine;
  Alcotest.(check int) "every batch answered" 12 !answered;
  Printf.sprintf "%s clock=%h events=%d"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))
    (Engine.now engine) (Engine.events_executed engine)

(* Captured before the early executors were folded into one; required
   to hold unchanged through refactors of the replica layer. *)
let deployment_golden =
  let open Psmr_replica.Replica in
  let early =
    Parallel_early { workers = 3; classes = None; optimistic = false }
  in
  [
    ( "sequential",
      Sequential,
      "02dff4e8073590bfa21efbd508de980b clock=0x1p-1 events=31318" );
    ( "lockfree",
      Parallel { impl = Psmr_cos.Registry.Lockfree; workers = 3 },
      "9ad2cac9b55729b41d58ba3f3d0ea799 clock=0x1p-1 events=35984" );
    ( "early",
      early,
      "793cb9a0df24af1609ba1e35ea177351 clock=0x1p-1 events=34958" );
    ( "early-opt",
      Parallel_early { workers = 3; classes = None; optimistic = true },
      "186156868e2cab65ae39ea2ffcaea0ac clock=0x1p-1 events=36400" );
    ( "part2-indexed",
      Partitioned
        {
          partitions = 2;
          inner = Parallel { impl = Psmr_cos.Registry.Indexed; workers = 3 };
        },
      "9d40f5052e56ce4663c5d19c2631d16f clock=0x1p-1 events=45092" );
    ( "part2-early",
      Partitioned { partitions = 2; inner = early },
      "480c5ee987b4b991c40ea83747354020 clock=0x1p-1 events=39675" );
  ]

let deployment_golden_tests =
  List.map
    (fun (name, mode, expected) ->
      Alcotest.test_case name `Quick (fun () ->
          let digest = sim_deployment_digest mode in
          Alcotest.(check string) "bit-identical rerun" digest
            (sim_deployment_digest mode);
          Alcotest.(check string) "golden event-order digest" expected digest))
    deployment_golden

(* [Deployment.create] rejects configurations it cannot run.  Each
   deployment is built on an engine that never runs, so the accepted
   control spawns no thread. *)
let create_on_sim ?replicas ?opt_execute mode =
  let engine = Psmr_sim.Engine.create () in
  let (module SP) = Psmr_sim.Sim_platform.make engine Psmr_sim.Costs.default in
  let module SMR = Psmr_replica.Replica.Make (SP) (Psmr_app.Kv_store) in
  let base =
    SMR.Deployment.default_config
      ~make_service:(fun _ -> Psmr_app.Kv_store.create ~capacity:16)
      ()
  in
  let replicas = Option.value replicas ~default:base.replicas in
  ignore
    (SMR.Deployment.create { base with mode; replicas; opt_execute }
      : SMR.Deployment.t)

let validation_early optimistic =
  Psmr_replica.Replica.Parallel_early { workers = 2; classes = None; optimistic }

let test_create_rejects ?replicas ?opt_execute mode () =
  match create_on_sim ?replicas ?opt_execute mode with
  | () -> Alcotest.fail "accepted"
  | exception Invalid_argument _ -> ()

let test_create_accepts_optimistic () =
  create_on_sim ~opt_execute:kv_opt_execute (validation_early true)

let validation_tests =
  let open Psmr_replica.Replica in
  [
    Alcotest.test_case "optimistic early without opt_execute" `Quick
      (test_create_rejects (validation_early true));
    Alcotest.test_case "nested Partitioned" `Quick
      (test_create_rejects
         (Partitioned
            {
              partitions = 2;
              inner =
                Partitioned { partitions = 2; inner = validation_early false };
            }));
    Alcotest.test_case "zero partitions" `Quick
      (test_create_rejects
         (Partitioned { partitions = 0; inner = validation_early false }));
    Alcotest.test_case "even replica count" `Quick
      (test_create_rejects ~replicas:4 (validation_early false));
    Alcotest.test_case "optimistic early with opt_execute" `Quick
      test_create_accepts_optimistic;
  ]

let () =
  let m_seq = Psmr_replica.Replica.Sequential in
  let m_par impl =
    Psmr_replica.Replica.Parallel { impl; workers = 3 }
  in
  let m_early ?classes optimistic =
    Psmr_replica.Replica.Parallel_early { workers = 3; classes; optimistic }
  in
  Alcotest.run "replica"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "sequential" `Quick (test_kv_roundtrip m_seq);
          Alcotest.test_case "coarse" `Quick
            (test_kv_roundtrip (m_par Psmr_cos.Registry.Coarse));
          Alcotest.test_case "fine" `Quick
            (test_kv_roundtrip (m_par Psmr_cos.Registry.Fine));
          Alcotest.test_case "lockfree" `Quick
            (test_kv_roundtrip (m_par Psmr_cos.Registry.Lockfree));
          Alcotest.test_case "early" `Quick (test_kv_roundtrip (m_early false));
          Alcotest.test_case "early-opt" `Quick
            (test_kv_roundtrip (m_early true));
          Alcotest.test_case "early, 2 classes" `Quick
            (test_kv_roundtrip (m_early ~classes:2 false));
          Alcotest.test_case "early-opt, 2 classes" `Quick
            (test_kv_roundtrip (m_early ~classes:2 true));
        ] );
      ( "convergence",
        [
          Alcotest.test_case "sequential" `Quick (test_kv_replicas_converge m_seq);
          Alcotest.test_case "lockfree parallel" `Quick
            (test_kv_replicas_converge (m_par Psmr_cos.Registry.Lockfree));
          Alcotest.test_case "early" `Quick
            (test_kv_replicas_converge (m_early false));
          Alcotest.test_case "early-opt" `Quick
            (test_kv_replicas_converge (m_early true));
        ] );
      ( "failover",
        [
          Alcotest.test_case "sequential" `Quick (test_leader_crash_failover m_seq);
          Alcotest.test_case "lockfree parallel" `Quick
            (test_leader_crash_failover (m_par Psmr_cos.Registry.Lockfree));
          Alcotest.test_case "early" `Quick
            (test_leader_crash_failover (m_early false));
          Alcotest.test_case "early-opt" `Quick
            (test_leader_crash_failover (m_early true));
        ] );
      ("validation", validation_tests);
      ( "at-most-once",
        [
          Alcotest.test_case "deposits under retries" `Quick
            (test_exactly_once_deposits
               (Psmr_replica.Replica.Parallel
                  { impl = Psmr_cos.Registry.Lockfree; workers = 2 }));
          Alcotest.test_case "deposits under retries [early]" `Quick
            (test_exactly_once_deposits (m_early false));
          Alcotest.test_case "deposits under retries [early-opt]" `Quick
            (test_exactly_once_deposits (m_early true));
        ] );
      ( "simulated",
        [
          Alcotest.test_case "full deployment on sim" `Quick test_sim_deployment;
          Alcotest.test_case "group commit beats the batch timer" `Quick
            test_sim_group_commit;
          Alcotest.test_case "state transfer after truncation" `Quick
            test_state_transfer_after_truncation;
        ] );
      ("deployment-golden", deployment_golden_tests);
    ]
