(* Tests for early scheduling (Psmr_early): the related-work architecture
   where scheduling decisions happen at delivery time — the class map, the
   barrier, the conservative and optimistic dispatcher, the backend
   registry, and the dispatcher driven through the experiment pipeline. *)

module RP = Psmr_platform.Real_platform

(* ====================================================================== *)
(* lib/early: the class-map dispatch subsystem (Psmr_early).              *)
(* ====================================================================== *)

module CM = Psmr_early.Class_map

(* Footprint-carrying commands for the dispatcher: conflict iff a shared
   key with at least one writer (the KEYED_COMMAND contract). *)
module Fc = struct
  type t = { idx : int; fp : (int * bool) list }

  let footprint c = c.fp

  let conflict a b =
    List.exists
      (fun (k, w) -> List.exists (fun (k', w') -> k = k' && (w || w')) b.fp)
      a.fp

  let pp ppf c = Format.fprintf ppf "#%d" c.idx
end

module D = Psmr_early.Dispatch.Make (RP) (Fc)

(* --- class map --- *)

let test_class_map_shape () =
  let cm = CM.create ~classes:2 ~workers:5 () in
  Alcotest.(check int) "classes" 2 (CM.classes cm);
  Alcotest.(check int) "workers" 5 (CM.workers cm);
  Alcotest.(check (array int)) "class 0 members" [| 1; 3; 5 |]
    (CM.members_of_class cm 0);
  Alcotest.(check (array int)) "class 1 members" [| 2; 4 |]
    (CM.members_of_class cm 1);
  Alcotest.(check int) "key 7 -> class 1" 1 (CM.class_of_key cm 7);
  Alcotest.(check int) "key 6 -> class 0" 0 (CM.class_of_key cm 6);
  (* More classes than workers are clamped: a class needs a worker. *)
  let clamped = CM.create ~classes:9 ~workers:3 () in
  Alcotest.(check int) "clamped classes" 3 (CM.classes clamped);
  (* Default: one class per worker. *)
  let default = CM.create ~workers:4 () in
  Alcotest.(check int) "default classes" 4 (CM.classes default)

let test_class_map_plans () =
  (* classes = workers: every single-key command is a Direct fast path. *)
  let cm = CM.create ~workers:4 () in
  (match CM.plan cm [ (0, true) ] with
  | CM.Direct { worker } -> Alcotest.(check int) "w(key 0)" 1 worker
  | p -> Alcotest.failf "expected Direct, got %a" CM.pp_plan p);
  (match CM.plan cm [ (5, true) ] with
  | CM.Direct { worker } -> Alcotest.(check int) "w(key 5)" 2 worker
  | p -> Alcotest.failf "expected Direct, got %a" CM.pp_plan p);
  (* Cross-class write: every involved class's members, smallest id
     designated. *)
  (match CM.plan cm [ (0, true); (2, true) ] with
  | CM.Rendezvous { members; designated } ->
      Alcotest.(check (array int)) "members" [| 1; 3 |] members;
      Alcotest.(check int) "designated" 1 designated
  | p -> Alcotest.failf "expected Rendezvous, got %a" CM.pp_plan p);
  (* Coarser map: a write covers the whole class. *)
  let cm2 = CM.create ~classes:2 ~workers:4 () in
  (match CM.plan cm2 [ (0, true) ] with
  | CM.Rendezvous { members; designated } ->
      Alcotest.(check (array int)) "class write members" [| 1; 3 |] members;
      Alcotest.(check int) "class write designated" 1 designated
  | p -> Alcotest.failf "expected Rendezvous, got %a" CM.pp_plan p);
  (* A read takes one round-robin representative of the class. *)
  let rep () =
    match CM.plan cm2 [ (0, false) ] with
    | CM.Direct { worker } -> worker
    | p -> Alcotest.failf "expected Direct read, got %a" CM.pp_plan p
  in
  let a = rep () and b = rep () and c = rep () in
  Alcotest.(check (list int)) "reads rotate the class" [ 3; 1; 3 ] [ a; b; c ];
  (* Empty footprint: global round-robin across all workers. *)
  let free () =
    match CM.plan cm2 [] with
    | CM.Direct { worker } -> worker
    | p -> Alcotest.failf "expected Direct free, got %a" CM.pp_plan p
  in
  let ws = List.init 4 (fun _ -> free ()) in
  Alcotest.(check (list int)) "free commands rotate all workers" [ 2; 3; 4; 1 ]
    ws

(* --- barrier --- *)

let test_barrier_rendezvous () =
  let module B = Psmr_early.Barrier.Make (RP) in
  let module L = Psmr_platform.Latch.Make (RP) in
  let b = B.create ~size:3 ~designated:2 in
  let executes = Atomic.make 0 and dones = Atomic.make 0 in
  let l = L.create 3 in
  for w = 1 to 3 do
    RP.spawn ~name:(Printf.sprintf "b%d" w) (fun () ->
        (match B.arrive b ~worker:w with
        | `Execute ->
            Atomic.incr executes;
            B.complete b
        | `Done -> Atomic.incr dones);
        L.count_down l)
  done;
  L.wait l;
  Alcotest.(check int) "one executor" 1 (Atomic.get executes);
  Alcotest.(check int) "two passengers" 2 (Atomic.get dones);
  Alcotest.(check bool) "completed" true (B.completed b);
  Alcotest.check_raises "size < 2 rejected"
    (Invalid_argument "Barrier.create: size must be >= 2") (fun () ->
      ignore (B.create ~size:1 ~designated:1))

(* --- conservative dispatch --- *)

let test_dispatch_rw_one_class workers () =
  (* classes = 1 makes the keyed dispatcher a readers-writers scheduler:
     writes rendezvous every worker, reads fan out round-robin.  With a
     single worker every command is a direct append to its one queue, so
     execution follows delivery order exactly. *)
  let inside = Atomic.make 0 in
  let write_overlap = Atomic.make false in
  let order_m = Mutex.create () in
  let order = ref [] in
  let execute (c : Fc.t) =
    let now_inside = 1 + Atomic.fetch_and_add inside 1 in
    if List.exists snd c.fp && now_inside > 1 then
      Atomic.set write_overlap true;
    Mutex.protect order_m (fun () -> order := c.idx :: !order);
    Thread.yield ();
    Atomic.decr inside
  in
  let d = D.start ~classes:1 ~workers ~execute () in
  let rng = Psmr_util.Rng.create ~seed:34L in
  let writes = ref 0 in
  for i = 0 to 799 do
    let w = Psmr_util.Rng.below_percent rng 10.0 in
    if w then incr writes;
    D.submit d { Fc.idx = i; fp = [ (0, w) ] }
  done;
  D.shutdown d;
  Alcotest.(check int) "all executed" 800 (D.executed d);
  Alcotest.(check bool) "writes ran alone" false (Atomic.get write_overlap);
  if workers = 1 then begin
    Alcotest.(check int) "all direct" 800 (D.direct_count d);
    Alcotest.(check (list int)) "delivery order" (List.init 800 Fun.id)
      (List.rev !order)
  end
  else begin
    Alcotest.(check int) "writes rendezvous" !writes (D.rendezvous_count d);
    Alcotest.(check int) "reads direct" (800 - !writes) (D.direct_count d)
  end;
  Alcotest.(check (list string)) "strict invariant" [] (D.invariant ~strict:true d)

let test_dispatch_batch_above_window () =
  (* Window slots are reserved before a batch is published, so a batch one
     larger than the whole window must go out in slices rather than wait
     for slots only its own execution could free.  On the simulator a
     stall ends the run with the submitter parked instead of hanging. *)
  let open Psmr_sim in
  let e = Engine.create () in
  let (module SP) = Sim_platform.make e Costs.default in
  let module SD = Psmr_early.Dispatch.Make (SP) (Fc) in
  let n = Psmr_cos.Cos_intf.default_max_size + 1 in
  let executed = ref 0 and drained = ref false in
  Engine.spawn e (fun () ->
      let d =
        SD.start ~workers:4
          ~execute:(fun _ ->
            SP.sleep 1e-6;
            incr executed)
          ()
      in
      SD.submit_batch d
        (Array.init n (fun i -> { Fc.idx = i; fp = [ (i mod 7, i mod 5 = 0) ] }));
      SD.shutdown d;
      drained := true);
  Engine.run e;
  Alcotest.(check bool) "drained" true !drained;
  Alcotest.(check int) "all executed" n !executed

let test_dispatch_cross_class_total_order () =
  (* Writes covering every class are totally ordered by the barriers. *)
  let last = Atomic.make (-1) in
  let ok = Atomic.make true in
  let execute (c : Fc.t) =
    if Atomic.exchange last c.Fc.idx >= c.Fc.idx then Atomic.set ok false
  in
  let d = D.start ~workers:4 ~execute () in
  let all = [ (0, true); (1, true); (2, true); (3, true) ] in
  for i = 0 to 199 do
    D.submit d { Fc.idx = i; fp = all }
  done;
  D.shutdown d;
  Alcotest.(check bool) "monotone execution order" true (Atomic.get ok);
  Alcotest.(check int) "all rendezvous" 200 (D.rendezvous_count d)

let test_dispatch_equivalent_to_sequential () =
  let commands = 1200 in
  let rng = Psmr_util.Rng.create ~seed:35L in
  let cmds =
    Array.init commands (fun i ->
        let target = Psmr_util.Rng.int rng 200 in
        ( i,
          if Psmr_util.Rng.below_percent rng 25.0 then
            Psmr_app.Linked_list.Add target
          else Psmr_app.Linked_list.Contains target ))
  in
  let ref_list = Psmr_app.Linked_list.create ~initial_size:100 in
  let expected =
    Array.map (fun (_, c) -> Psmr_app.Linked_list.execute ref_list c) cmds
  in
  let par_list = Psmr_app.Linked_list.create ~initial_size:100 in
  let responses = Array.make commands None in
  let execute (c : Fc.t) =
    let _, real = cmds.(c.Fc.idx) in
    responses.(c.Fc.idx) <- Some (Psmr_app.Linked_list.execute par_list real)
  in
  let d = D.start ~classes:1 ~workers:6 ~execute () in
  Array.iter
    (fun (i, c) ->
      D.submit d
        { Fc.idx = i; fp = [ (0, Psmr_app.Linked_list.is_write c) ] })
    cmds;
  D.shutdown d;
  Array.iteri
    (fun i exp ->
      match responses.(i) with
      | Some got when got = exp -> ()
      | Some got -> Alcotest.failf "response %d: expected %b got %b" i exp got
      | None -> Alcotest.failf "missing response %d" i)
    expected;
  Alcotest.(check int) "final size" (Psmr_app.Linked_list.size ref_list)
    (Psmr_app.Linked_list.size par_list)

(* --- optimistic dispatch --- *)

let test_optimistic_repair_equivalence () =
  (* Submit in a disordered (optimistic) stream, confirm in final order:
     responses must match sequential final-order execution, and the
     disorder must have triggered actual repairs. *)
  let n = 512 and keys = 8 and block = 16 in
  let rng = Psmr_util.Rng.create ~seed:36L in
  let cmds =
    Array.init n (fun i ->
        let k = Psmr_util.Rng.int rng keys in
        if Psmr_util.Rng.below_percent rng 40.0 then
          (i, Psmr_app.Kv_store.Put (k, i))
        else (i, Psmr_app.Kv_store.Get k))
  in
  let ref_store = Psmr_app.Kv_store.create ~capacity:keys in
  let expected =
    Array.map (fun (_, c) -> Psmr_app.Kv_store.execute ref_store c) cmds
  in
  let module KC = struct
    type t = int * Psmr_app.Kv_store.command

    let conflict (_, a) (_, b) = Psmr_app.Kv_store.conflict a b
    let footprint (_, c) = Psmr_app.Kv_store.footprint c

    let pp ppf (i, c) =
      Format.fprintf ppf "%d:%a" i Psmr_app.Kv_store.pp_command c
  end in
  let module ED = Psmr_early.Dispatch.Make (RP) (KC) in
  let par_store = Psmr_app.Kv_store.create ~capacity:keys in
  let responses = Array.make n None in
  let execute ((i, c) : KC.t) =
    responses.(i) <- Some (Psmr_app.Kv_store.execute par_store c)
  in
  let d = ED.start ~workers:4 ~execute () in
  let srng = Psmr_util.Rng.create ~seed:37L in
  let specs = Array.make n None in
  let base = ref 0 in
  while !base < n do
    let len = min block (n - !base) in
    let idxs = Array.init len (fun j -> !base + j) in
    let opt = Psmr_early.Spec_stream.disorder ~swap_pct:35.0 ~rng:srng idxs in
    Array.iter
      (fun i -> specs.(i) <- Some (ED.submit_optimistic d cmds.(i)))
      opt;
    Array.iter (fun i -> ED.confirm d (Option.get specs.(i))) idxs;
    base := !base + len
  done;
  ED.shutdown d;
  Array.iteri
    (fun i exp ->
      match responses.(i) with
      | Some got when got = exp -> ()
      | Some _ -> Alcotest.failf "response %d diverged from final order" i
      | None -> Alcotest.failf "missing response %d" i)
    expected;
  Alcotest.(check bool) "repairs happened" true (ED.repair_count d > 0);
  Alcotest.(check bool) "revocations happened" true
    (ED.revoked_count d >= ED.repair_count d);
  Alcotest.(check int) "nothing dropped" 0 (ED.dropped d);
  Alcotest.(check int) "all submitted" n (ED.submitted d);
  Alcotest.(check (list string)) "strict invariant" [] (ED.invariant ~strict:true d)

let test_optimistic_double_confirm_rejected () =
  let d = D.start ~workers:2 ~execute:(fun _ -> ()) () in
  let s = D.submit_optimistic d { Fc.idx = 0; fp = [ (0, true) ] } in
  D.confirm d s;
  (match D.confirm d s with
  | () -> Alcotest.fail "double confirm accepted"
  | exception Invalid_argument _ -> ());
  D.shutdown d

let test_optimistic_sim_deterministic () =
  let open Psmr_sim in
  let run () =
    let e = Engine.create () in
    let (module SP) = Sim_platform.make e Costs.default in
    let module SD = Psmr_early.Dispatch.Make (SP) (Fc) in
    let executed_at = ref 0.0 in
    Engine.spawn e (fun () ->
        let d = SD.start ~workers:8 ~execute:(fun _ -> SP.sleep 1e-5) () in
        let rng = Psmr_util.Rng.create ~seed:38L in
        let srng = Psmr_util.Rng.create ~seed:39L in
        let block = 8 in
        for b = 0 to 39 do
          let cmds =
            Array.init block (fun j ->
                {
                  Fc.idx = (b * block) + j;
                  fp = [ (Psmr_util.Rng.int rng 16, Psmr_util.Rng.bool rng) ];
                })
          in
          let idxs = Array.init block Fun.id in
          let opt =
            Psmr_early.Spec_stream.disorder ~swap_pct:20.0 ~rng:srng idxs
          in
          let specs = Array.make block None in
          Array.iter
            (fun j -> specs.(j) <- Some (SD.submit_optimistic d cmds.(j)))
            opt;
          Array.iter (fun j -> SD.confirm d (Option.get specs.(j))) idxs
        done;
        SD.shutdown d;
        executed_at := SP.now ());
    Engine.run e;
    !executed_at
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "ran" true (a > 0.0);
  Alcotest.(check (float 0.0)) "deterministic" a b

(* --- qcheck: early execution histories = coarse COS = sequential --- *)

(* Each property runs the same random workload through the early
   dispatcher, through the coarse-COS scheduler and through a sequential
   reference, and requires identical response histories. *)

let kv_equivalence =
  QCheck.Test.make ~name:"early = coarse = sequential (kv)" ~count:25
    QCheck.(
      pair (int_range 1 6)
        (list_of_size
           Gen.(int_range 1 120)
           (pair (int_range 0 7) (option (int_range 0 100)))))
    (fun (workers, ops) ->
      let module KC = struct
        type t = int * Psmr_app.Kv_store.command

        let conflict (_, a) (_, b) = Psmr_app.Kv_store.conflict a b
        let footprint (_, c) = Psmr_app.Kv_store.footprint c

        let pp ppf (i, c) =
          Format.fprintf ppf "%d:%a" i Psmr_app.Kv_store.pp_command c
      end in
      let cmds =
        List.mapi
          (fun i (k, v) ->
            ( i,
              match v with
              | None -> Psmr_app.Kv_store.Get k
              | Some v -> Psmr_app.Kv_store.Put (k, v) ))
          ops
      in
      let n = List.length cmds in
      let ref_store = Psmr_app.Kv_store.create ~capacity:8 in
      let expected =
        List.map (fun (_, c) -> Psmr_app.Kv_store.execute ref_store c) cmds
        |> Array.of_list
      in
      let run_early () =
        let module ED = Psmr_early.Dispatch.Make (RP) (KC) in
        let store = Psmr_app.Kv_store.create ~capacity:8 in
        let responses = Array.make n None in
        let d =
          ED.start ~workers
            ~execute:(fun (i, c) ->
              responses.(i) <- Some (Psmr_app.Kv_store.execute store c))
            ()
        in
        List.iter (ED.submit d) cmds;
        ED.shutdown d;
        responses
      in
      let run_coarse () =
        let (module S : Psmr_cos.Cos_intf.S with type cmd = KC.t) =
          Psmr_cos.Registry.instantiate Psmr_cos.Registry.Coarse
            (module RP)
            (module KC)
        in
        let module Sched = Psmr_sched.Scheduler.Make (RP) (S) in
        let store = Psmr_app.Kv_store.create ~capacity:8 in
        let responses = Array.make n None in
        let sched =
          Sched.start ~workers
            ~execute:(fun (i, c) ->
              responses.(i) <- Some (Psmr_app.Kv_store.execute store c))
            ()
        in
        List.iter (Sched.submit sched) cmds;
        Sched.shutdown sched;
        responses
      in
      let early = run_early () and coarse = run_coarse () in
      Array.for_all2
        (fun e r -> match r with Some r -> r = e | None -> false)
        expected early
      && Array.for_all2 (fun a b -> a = b) early coarse)

let bank_equivalence =
  QCheck.Test.make ~name:"early = coarse = sequential (bank)" ~count:25
    QCheck.(
      pair (int_range 1 6)
        (list_of_size
           Gen.(int_range 1 120)
           (triple (int_range 0 2) (pair (int_range 0 5) (int_range 0 5))
              (int_range 0 30))))
    (fun (workers, ops) ->
      let module KC = struct
        type t = int * Psmr_app.Bank.command

        let conflict (_, a) (_, b) = Psmr_app.Bank.conflict a b
        let footprint (_, c) = Psmr_app.Bank.footprint c

        let pp ppf (i, c) =
          Format.fprintf ppf "%d:%a" i Psmr_app.Bank.pp_command c
      end in
      let cmds =
        List.mapi
          (fun i (kind, (a, b), amount) ->
            ( i,
              match kind with
              | 0 -> Psmr_app.Bank.Balance a
              | 1 -> Psmr_app.Bank.Deposit (a, amount)
              | _ -> Psmr_app.Bank.Transfer { src = a; dst = b; amount } ))
          ops
      in
      let n = List.length cmds in
      let fresh () = Psmr_app.Bank.create ~accounts:6 ~initial_balance:50 in
      let ref_bank = fresh () in
      let expected =
        List.map (fun (_, c) -> Psmr_app.Bank.execute ref_bank c) cmds
        |> Array.of_list
      in
      let run_early () =
        let module ED = Psmr_early.Dispatch.Make (RP) (KC) in
        let bank = fresh () in
        let responses = Array.make n None in
        let d =
          ED.start ~workers
            ~execute:(fun (i, c) ->
              responses.(i) <- Some (Psmr_app.Bank.execute bank c))
            ()
        in
        List.iter (ED.submit d) cmds;
        ED.shutdown d;
        (responses, Psmr_app.Bank.total bank)
      in
      let run_coarse () =
        let (module S : Psmr_cos.Cos_intf.S with type cmd = KC.t) =
          Psmr_cos.Registry.instantiate Psmr_cos.Registry.Coarse
            (module RP)
            (module KC)
        in
        let module Sched = Psmr_sched.Scheduler.Make (RP) (S) in
        let bank = fresh () in
        let responses = Array.make n None in
        let sched =
          Sched.start ~workers
            ~execute:(fun (i, c) ->
              responses.(i) <- Some (Psmr_app.Bank.execute bank c))
            ()
        in
        List.iter (Sched.submit sched) cmds;
        Sched.shutdown sched;
        responses
      in
      let early, total = run_early () in
      let coarse = run_coarse () in
      (* Deposits add money, so compare against the reference bank rather
         than the initial total. *)
      total = Psmr_app.Bank.total ref_bank
      && Array.for_all2
           (fun e r -> match r with Some r -> r = e | None -> false)
           expected early
      && Array.for_all2 (fun a b -> a = b) early coarse)

let list_equivalence =
  QCheck.Test.make ~name:"early = coarse = sequential (linked list)" ~count:20
    QCheck.(
      pair (int_range 1 6)
        (list_of_size
           Gen.(int_range 1 120)
           (pair (int_range 0 60) bool)))
    (fun (workers, ops) ->
      let module KC = struct
        type t = int * Psmr_app.Linked_list.command

        let conflict (_, a) (_, b) = Psmr_app.Linked_list.conflict a b
        let footprint (_, c) = Psmr_app.Linked_list.footprint c

        let pp ppf (i, c) =
          Format.fprintf ppf "%d:%a" i Psmr_app.Linked_list.pp_command c
      end in
      let cmds =
        List.mapi
          (fun i (target, write) ->
            ( i,
              if write then Psmr_app.Linked_list.Add target
              else Psmr_app.Linked_list.Contains target ))
          ops
      in
      let n = List.length cmds in
      let ref_list = Psmr_app.Linked_list.create ~initial_size:30 in
      let expected =
        List.map (fun (_, c) -> Psmr_app.Linked_list.execute ref_list c) cmds
        |> Array.of_list
      in
      let run_early () =
        let module ED = Psmr_early.Dispatch.Make (RP) (KC) in
        let l = Psmr_app.Linked_list.create ~initial_size:30 in
        let responses = Array.make n None in
        let d =
          (* classes:1 so the single-variable service still spreads reads. *)
          ED.start ~classes:1 ~workers
            ~execute:(fun (i, c) ->
              responses.(i) <- Some (Psmr_app.Linked_list.execute l c))
            ()
        in
        List.iter (ED.submit d) cmds;
        ED.shutdown d;
        responses
      in
      let run_coarse () =
        let (module S : Psmr_cos.Cos_intf.S with type cmd = KC.t) =
          Psmr_cos.Registry.instantiate Psmr_cos.Registry.Coarse
            (module RP)
            (module KC)
        in
        let module Sched = Psmr_sched.Scheduler.Make (RP) (S) in
        let l = Psmr_app.Linked_list.create ~initial_size:30 in
        let responses = Array.make n None in
        let sched =
          Sched.start ~workers
            ~execute:(fun (i, c) ->
              responses.(i) <- Some (Psmr_app.Linked_list.execute l c))
            ()
        in
        List.iter (Sched.submit sched) cmds;
        Sched.shutdown sched;
        responses
      in
      let early = run_early () and coarse = run_coarse () in
      Array.for_all2
        (fun e r -> match r with Some r -> r = e | None -> false)
        expected early
      && Array.for_all2 (fun a b -> a = b) early coarse)

(* --- qcheck: optimistic execution with rollback = conservative early --- *)

(* Feed indices [0..n) through an optimistic dispatcher: the optimistic
   stream is a seeded disorder of each block, with a full-shuffle
   adversarial burst every fourth block when [burst] is set; confirmations
   always arrive in final (index) order. *)
let opt_feed ~n ~seed ~burst ~submit ~confirm =
  let srng = Psmr_util.Rng.create ~seed in
  let block = 16 in
  let specs = Array.make n None in
  let base = ref 0 and bi = ref 0 in
  while !base < n do
    let len = min block (n - !base) in
    let idxs = Array.init len (fun j -> !base + j) in
    let swap_pct = if burst && !bi mod 4 = 3 then 100.0 else 30.0 in
    let opt = Psmr_early.Spec_stream.disorder ~swap_pct ~rng:srng idxs in
    Array.iter (fun i -> specs.(i) <- Some (submit i)) opt;
    Array.iter (fun i -> confirm (Option.get specs.(i))) idxs;
    incr bi;
    base := !base + len
  done

let kv_opt_equivalence =
  QCheck.Test.make
    ~name:"early-opt rollback = early = sequential (kv)" ~count:20
    QCheck.(
      triple (int_range 1 6) bool
        (list_of_size
           Gen.(int_range 1 120)
           (pair (int_range 0 7) (option (int_range 0 100)))))
    (fun (workers, burst, ops) ->
      let module KC = struct
        type t = int * Psmr_app.Kv_store.command

        let conflict (_, a) (_, b) = Psmr_app.Kv_store.conflict a b
        let footprint (_, c) = Psmr_app.Kv_store.footprint c

        let pp ppf (i, c) =
          Format.fprintf ppf "%d:%a" i Psmr_app.Kv_store.pp_command c
      end in
      let cmds =
        Array.of_list
          (List.mapi
             (fun i (k, v) ->
               ( i,
                 match v with
                 | None -> Psmr_app.Kv_store.Get k
                 | Some v -> Psmr_app.Kv_store.Put (k, v) ))
             ops)
      in
      let n = Array.length cmds in
      let ref_store = Psmr_app.Kv_store.create ~capacity:8 in
      let expected =
        Array.map (fun (_, c) -> Psmr_app.Kv_store.execute ref_store c) cmds
      in
      let dump s = List.init 8 (fun k -> Psmr_app.Kv_store.execute s (Get k)) in
      let run_opt () =
        let module ED = Psmr_early.Dispatch.Make (RP) (KC) in
        let store = Psmr_app.Kv_store.create ~capacity:8 in
        let responses = Array.make n None in
        let speculate ((i, c) : KC.t) =
          let resp, u = Psmr_app.Kv_store.execute_undoable store c in
          responses.(i) <- Some resp;
          fun () -> Psmr_app.Kv_store.undo store u
        in
        let d =
          ED.start ~workers ~speculate
            ~execute:(fun (i, c) ->
              responses.(i) <- Some (Psmr_app.Kv_store.execute store c))
            ()
        in
        opt_feed ~n
          ~seed:(Int64.of_int ((workers * 1009) + n))
          ~burst
          ~submit:(fun i -> ED.submit_optimistic d cmds.(i))
          ~confirm:(fun sp -> ED.confirm d sp);
        ED.shutdown d;
        (responses, dump store)
      in
      let run_early () =
        let module ED = Psmr_early.Dispatch.Make (RP) (KC) in
        let store = Psmr_app.Kv_store.create ~capacity:8 in
        let responses = Array.make n None in
        let d =
          ED.start ~workers
            ~execute:(fun (i, c) ->
              responses.(i) <- Some (Psmr_app.Kv_store.execute store c))
            ()
        in
        Array.iter (ED.submit d) cmds;
        ED.shutdown d;
        responses
      in
      let opt, opt_state = run_opt () in
      let early = run_early () in
      opt_state = dump ref_store
      && Array.for_all2
           (fun e r -> match r with Some r -> r = e | None -> false)
           expected opt
      && Array.for_all2 (fun a b -> a = b) opt early)

let bank_opt_equivalence =
  QCheck.Test.make
    ~name:"early-opt rollback = early = sequential (bank)" ~count:20
    QCheck.(
      triple (int_range 1 6) bool
        (list_of_size
           Gen.(int_range 1 120)
           (triple (int_range 0 2) (pair (int_range 0 5) (int_range 0 5))
              (int_range 0 30))))
    (fun (workers, burst, ops) ->
      let module KC = struct
        type t = int * Psmr_app.Bank.command

        let conflict (_, a) (_, b) = Psmr_app.Bank.conflict a b
        let footprint (_, c) = Psmr_app.Bank.footprint c

        let pp ppf (i, c) =
          Format.fprintf ppf "%d:%a" i Psmr_app.Bank.pp_command c
      end in
      let cmds =
        Array.of_list
          (List.mapi
             (fun i (kind, (a, b), amount) ->
               ( i,
                 match kind with
                 | 0 -> Psmr_app.Bank.Balance a
                 | 1 -> Psmr_app.Bank.Deposit (a, amount)
                 | _ -> Psmr_app.Bank.Transfer { src = a; dst = b; amount } ))
             ops)
      in
      let n = Array.length cmds in
      let fresh () = Psmr_app.Bank.create ~accounts:6 ~initial_balance:50 in
      let ref_bank = fresh () in
      let expected =
        Array.map (fun (_, c) -> Psmr_app.Bank.execute ref_bank c) cmds
      in
      let run_opt () =
        let module ED = Psmr_early.Dispatch.Make (RP) (KC) in
        let bank = fresh () in
        let responses = Array.make n None in
        let speculate ((i, c) : KC.t) =
          let resp, u = Psmr_app.Bank.execute_undoable bank c in
          responses.(i) <- Some resp;
          fun () -> Psmr_app.Bank.undo bank u
        in
        let d =
          ED.start ~workers ~speculate
            ~execute:(fun (i, c) ->
              responses.(i) <- Some (Psmr_app.Bank.execute bank c))
            ()
        in
        opt_feed ~n
          ~seed:(Int64.of_int ((workers * 1013) + n))
          ~burst
          ~submit:(fun i -> ED.submit_optimistic d cmds.(i))
          ~confirm:(fun sp -> ED.confirm d sp);
        ED.shutdown d;
        (responses, Psmr_app.Bank.total bank)
      in
      let run_early () =
        let module ED = Psmr_early.Dispatch.Make (RP) (KC) in
        let bank = fresh () in
        let responses = Array.make n None in
        let d =
          ED.start ~workers
            ~execute:(fun (i, c) ->
              responses.(i) <- Some (Psmr_app.Bank.execute bank c))
            ()
        in
        Array.iter (ED.submit d) cmds;
        ED.shutdown d;
        responses
      in
      let opt, total = run_opt () in
      let early = run_early () in
      total = Psmr_app.Bank.total ref_bank
      && Array.for_all2
           (fun e r -> match r with Some r -> r = e | None -> false)
           expected opt
      && Array.for_all2 (fun a b -> a = b) opt early)

let list_opt_equivalence =
  QCheck.Test.make
    ~name:"early-opt rollback = early = sequential (linked list)" ~count:15
    QCheck.(
      triple (int_range 1 6) bool
        (list_of_size Gen.(int_range 1 120) (pair (int_range 0 60) bool)))
    (fun (workers, burst, ops) ->
      let module KC = struct
        type t = int * Psmr_app.Linked_list.command

        let conflict (_, a) (_, b) = Psmr_app.Linked_list.conflict a b
        let footprint (_, c) = Psmr_app.Linked_list.footprint c

        let pp ppf (i, c) =
          Format.fprintf ppf "%d:%a" i Psmr_app.Linked_list.pp_command c
      end in
      let cmds =
        Array.of_list
          (List.mapi
             (fun i (target, write) ->
               ( i,
                 if write then Psmr_app.Linked_list.Add target
                 else Psmr_app.Linked_list.Contains target ))
             ops)
      in
      let n = Array.length cmds in
      let ref_list = Psmr_app.Linked_list.create ~initial_size:30 in
      let expected =
        Array.map (fun (_, c) -> Psmr_app.Linked_list.execute ref_list c) cmds
      in
      let run_opt () =
        let module ED = Psmr_early.Dispatch.Make (RP) (KC) in
        let l = Psmr_app.Linked_list.create ~initial_size:30 in
        let responses = Array.make n None in
        let speculate ((i, c) : KC.t) =
          let resp, u = Psmr_app.Linked_list.execute_undoable l c in
          responses.(i) <- Some resp;
          fun () -> Psmr_app.Linked_list.undo l u
        in
        let d =
          (* classes:1 so the single-variable service still spreads reads. *)
          ED.start ~classes:1 ~workers ~speculate
            ~execute:(fun (i, c) ->
              responses.(i) <- Some (Psmr_app.Linked_list.execute l c))
            ()
        in
        opt_feed ~n
          ~seed:(Int64.of_int ((workers * 1019) + n))
          ~burst
          ~submit:(fun i -> ED.submit_optimistic d cmds.(i))
          ~confirm:(fun sp -> ED.confirm d sp);
        ED.shutdown d;
        (responses, Psmr_app.Linked_list.size l)
      in
      let opt, size = run_opt () in
      size = Psmr_app.Linked_list.size ref_list
      && Array.for_all2
           (fun e r -> match r with Some r -> r = e | None -> false)
           expected opt)

(* --- the 0%-mis fast path, pinned --- *)

let test_optimistic_zero_mis_fast_path () =
  (* With the optimistic stream already in final order, confirmation must
     be pure fast path: the observability ledger pins every repair-family
     counter at zero, and a per-command minor-heap budget guards against
     repair-scan or log-walk work sneaking back onto the hot path (the
     regression this PR fixed was exactly such serialized repair-side
     work). *)
  let reg = Psmr_obs.Metrics.make () in
  Psmr_obs.Metrics.enable reg;
  Fun.protect ~finally:Psmr_obs.Metrics.disable @@ fun () ->
  let spec_runs = Atomic.make 0 in
  let speculate (_ : Fc.t) =
    Atomic.incr spec_runs;
    Fun.id
  in
  let d = D.start ~workers:4 ~speculate ~execute:(fun _ -> ()) () in
  let cmd i = { Fc.idx = i; fp = [ (i mod 8, i mod 4 = 0) ] } in
  (* Pipeline a block ahead, confirming in the same order as submission —
     a 0%-mis stream with real overlap between speculation and
     confirmation. *)
  let block = 32 in
  let feed base count =
    let specs = Array.make block None in
    let at = ref base in
    while !at < base + count do
      let len = min block (base + count - !at) in
      for j = 0 to len - 1 do
        specs.(j) <- Some (D.submit_optimistic d (cmd (!at + j)))
      done;
      for j = 0 to len - 1 do
        D.confirm d (Option.get specs.(j))
      done;
      at := !at + len
    done
  in
  feed 0 256 (* warmup: first dispatches grow internal structures *);
  let n = 4096 in
  let before = Gc.minor_words () in
  feed 256 n;
  let words = Gc.minor_words () -. before in
  D.shutdown d;
  let c = Psmr_obs.Metrics.counters reg in
  Alcotest.(check int) "no repairs" 0 c.spec_repairs;
  Alcotest.(check int) "no revocations" 0 c.spec_revoked;
  Alcotest.(check int) "no rollbacks" 0 c.spec_rollbacks;
  Alcotest.(check int) "nothing undone" 0 c.spec_undone;
  Alcotest.(check int) "no redos" 0 c.spec_redos;
  Alcotest.(check int) "no requeues" 0 c.requeues;
  Alcotest.(check bool) "speculation actually ran" true
    (Atomic.get spec_runs > 0);
  Alcotest.(check int) "every command executed" (256 + n) (D.executed d);
  Alcotest.(check int) "dispatch agrees: no rollbacks" 0 (D.rollback_count d);
  Alcotest.(check int) "dispatch agrees: no redos" 0 (D.redo_count d);
  Alcotest.(check bool) "single execution per command" true
    (D.redo_depth_max d <= 1);
  let per_cmd = words /. float_of_int n in
  if per_cmd > 512.0 then
    Alcotest.failf "fast path allocates %.0f minor words/command (budget 512)"
      per_cmd

let test_submit_batch_alloc_budget () =
  (* Batched confirm on the conservative feed: with no speculation in
     flight, [submit_batch] must take the single-pass fast path — one
     chunked window acquire and one lock round per worker queue for the
     whole batch.  Measured ~110 minor words/command on this workload;
     the 256-word budget leaves slack for GC jitter and the workers'
     concurrent pops (they share the minor heap) while still catching a
     reintroduced per-command acquire or a per-command queue-append
     (the latter is O(batch²) words and blows the budget immediately). *)
  let d = D.start ~max_size:4096 ~workers:4 ~execute:(fun _ -> ()) () in
  let cmd i = { Fc.idx = i; fp = [ (i mod 4, true) ] } in
  let batch base len = Array.init len (fun j -> cmd (base + j)) in
  let bsz = 256 in
  D.submit_batch d (batch 0 bsz) (* warmup: grows internal structures *);
  Thread.delay 0.05;
  let rounds = 8 in
  let before = Gc.minor_words () in
  for r = 0 to rounds - 1 do
    D.submit_batch d (batch ((r + 1) * bsz) bsz)
  done;
  let words = Gc.minor_words () -. before in
  let n = rounds * bsz in
  D.shutdown d;
  Alcotest.(check int) "every command executed" (bsz + n) (D.executed d);
  let per_cmd = words /. float_of_int n in
  if per_cmd > 256.0 then
    Alcotest.failf
      "batched submit allocates %.0f minor words/command (budget 256)" per_cmd

(* The keyed max-rate pipeline on the DES: a short window over [backend]. *)
let keyed_run ?(workers = 8) ?faults spec backend =
  Psmr_harness.Pipeline.(
    run
      (config ~driver:(Max_rate (Keyed spec)) ~backend ~workers ?faults
         ~duration:0.01 ~warmup:0.002 ()))

(* --- worker crash inside the repair window (DES) --- *)

let test_keyed_pipeline_opt_crash_mid_repair () =
  (* Crash a worker while the optimistic run is actively repairing
     (mis_pct high enough that rollbacks are continuously in flight): the
     crashed worker's reservation must requeue and the run keep
     completing commands after the respawn. *)
  let faults = Psmr_fault.Schedule.parse_exn "worker-crash=2@0.004+0.002" in
  let spec =
    { Psmr_workload.Workload.Keyed.low_conflict with keys = 16; mis_pct = 30.0 }
  in
  let r =
    keyed_run ~workers:4 ~faults spec
      (Psmr_early.Registry.Early Psmr_early.Early_intf.optimistic)
  in
  Alcotest.(check int) "one crash" 1 r.crashed_workers;
  Alcotest.(check bool) "fault injected" true (r.faults_injected >= 1);
  Alcotest.(check bool) "repairs happened" true (r.dispatch.repairs > 0);
  Alcotest.(check bool) "rollbacks happened" true (r.dispatch.rollbacks > 0);
  Alcotest.(check bool) "kept completing after respawn" true (r.executed > 0)

(* --- registry --- *)

let test_backend_registry_roundtrip () =
  let module R = Psmr_early.Registry in
  List.iter
    (fun b ->
      let s = R.to_string b in
      Alcotest.(check bool)
        (Printf.sprintf "roundtrip %S" s)
        true
        (R.of_string s = Some b))
    R.all;
  let check s expect =
    Alcotest.(check bool)
      (Printf.sprintf "parse %S" s)
      true
      (R.of_string s = expect)
  in
  check "early" (Some (R.Early Psmr_early.Early_intf.conservative));
  check "early-opt" (Some (R.Early Psmr_early.Early_intf.optimistic));
  check "early_opt" (Some (R.Early Psmr_early.Early_intf.optimistic));
  check "EARLY" (Some (R.Early Psmr_early.Early_intf.conservative));
  check "Early_Opt-4"
    (Some
       (R.Early { Psmr_early.Early_intf.classes = Some 4; optimistic = true }));
  check "LOCKFREE" (Some (R.Cos Psmr_cos.Registry.Lockfree));
  check "early-4"
    (Some (R.Early { Psmr_early.Early_intf.classes = Some 4; optimistic = false }));
  check "early-opt-8"
    (Some (R.Early { Psmr_early.Early_intf.classes = Some 8; optimistic = true }));
  check "early-0" None;
  check "early-x" None;
  check "coarse" (Some (R.Cos Psmr_cos.Registry.Coarse));
  check "indexed" (Some (R.Cos Psmr_cos.Registry.Indexed));
  check "bogus" None;
  Alcotest.(check bool) "early-opt is optimistic" true
    (R.is_optimistic (R.Early Psmr_early.Early_intf.optimistic));
  Alcotest.(check bool) "early is conservative" false
    (R.is_optimistic (R.Early Psmr_early.Early_intf.conservative))

(* Every registry name builds a backend that runs a keyed workload end to
   end: the pipeline is the one place that turns a name into a running
   backend, whichever family it names. *)
let test_backend_runs backend () =
  let r =
    keyed_run ~workers:3 Psmr_workload.Workload.Keyed.low_conflict backend
  in
  Alcotest.(check bool) "executed some" true (r.executed > 0);
  Alcotest.(check bool) "latency sampled" true (r.samples > 0);
  Alcotest.(check int) "nothing dropped" 0 r.dispatch.dropped;
  match backend with
  | Psmr_early.Registry.Cos _ ->
      Alcotest.(check int) "no early stats on cos" 0
        (r.dispatch.direct + r.dispatch.rendezvous)
  | Early _ ->
      Alcotest.(check bool) "dispatcher ran" true
        (r.dispatch.direct + r.dispatch.rendezvous > 0)

let backend_run_tests =
  let module R = Psmr_early.Registry in
  List.map
    (fun b ->
      Alcotest.test_case
        (Printf.sprintf "runs in the pipeline [%s]" (R.to_string b))
        `Quick (test_backend_runs b))
    (R.all
    @ [
        R.Early { Psmr_early.Early_intf.classes = Some 4; optimistic = false };
        R.Early { Psmr_early.Early_intf.classes = Some 4; optimistic = true };
      ])

(* --- the keyed-workload harness on the DES --- *)

let test_keyed_pipeline_early () =
  let r =
    keyed_run Psmr_workload.Workload.Keyed.low_conflict
      (Psmr_early.Registry.Early Psmr_early.Early_intf.conservative)
  in
  Alcotest.(check bool) "executed some" true (r.executed > 0);
  Alcotest.(check bool) "positive kops" true (r.kops > 0.0);
  Alcotest.(check bool) "fast path dominates" true
    (r.dispatch.direct > r.dispatch.rendezvous);
  Alcotest.(check int) "nothing dropped" 0 r.dispatch.dropped

let test_keyed_pipeline_optimistic_repairs () =
  let spec =
    { Psmr_workload.Workload.Keyed.low_conflict with keys = 32; mis_pct = 10.0 }
  in
  let r =
    keyed_run spec (Psmr_early.Registry.Early Psmr_early.Early_intf.optimistic)
  in
  Alcotest.(check bool) "executed some" true (r.executed > 0);
  Alcotest.(check bool) "mis-speculation repaired" true (r.dispatch.repairs > 0);
  Alcotest.(check bool) "revoked >= repairs" true
    (r.dispatch.revoked >= r.dispatch.repairs)

let test_keyed_pipeline_crash_respawn () =
  let faults = Psmr_fault.Schedule.parse_exn "worker-crash=2@0.004+0.002" in
  let r =
    keyed_run ~workers:4 ~faults Psmr_workload.Workload.Keyed.low_conflict
      (Psmr_early.Registry.Early Psmr_early.Early_intf.conservative)
  in
  Alcotest.(check int) "one crash" 1 r.crashed_workers;
  Alcotest.(check bool) "fault injected" true (r.faults_injected >= 1);
  Alcotest.(check bool) "kept executing after respawn" true (r.executed > 0)

let test_keyed_pipeline_cos_backend () =
  let r =
    keyed_run Psmr_workload.Workload.Keyed.low_conflict
      (Psmr_early.Registry.Cos Psmr_cos.Registry.Indexed)
  in
  Alcotest.(check bool) "executed some" true (r.executed > 0);
  Alcotest.(check int) "no early stats on cos" 0
    (r.dispatch.direct + r.dispatch.rendezvous)

let () =
  Alcotest.run "early-scheduler"
    [
      ( "class-map",
        [
          Alcotest.test_case "shape and clamping" `Quick test_class_map_shape;
          Alcotest.test_case "plans" `Quick test_class_map_plans;
        ] );
      ( "barrier",
        [ Alcotest.test_case "rendezvous" `Quick test_barrier_rendezvous ] );
      ( "dispatch",
        [
          Alcotest.test_case "one class = readers-writers" `Quick
            (test_dispatch_rw_one_class 4);
          Alcotest.test_case "one class, one worker = sequential" `Quick
            (test_dispatch_rw_one_class 1);
          Alcotest.test_case "batch above the window drains" `Quick
            test_dispatch_batch_above_window;
          Alcotest.test_case "cross-class writes totally ordered" `Quick
            test_dispatch_cross_class_total_order;
          Alcotest.test_case "equivalent to sequential" `Quick
            test_dispatch_equivalent_to_sequential;
        ] );
      ( "optimistic",
        [
          Alcotest.test_case "repair restores final order" `Quick
            test_optimistic_repair_equivalence;
          Alcotest.test_case "double confirm rejected" `Quick
            test_optimistic_double_confirm_rejected;
          Alcotest.test_case "deterministic on sim" `Quick
            test_optimistic_sim_deterministic;
          Alcotest.test_case "zero-mis fast path does no repair work" `Quick
            test_optimistic_zero_mis_fast_path;
          Alcotest.test_case "batched submit stays allocation-flat" `Quick
            test_submit_batch_alloc_budget;
        ] );
      ( "equivalence",
        List.map QCheck_alcotest.to_alcotest
          [
            kv_equivalence;
            bank_equivalence;
            list_equivalence;
            kv_opt_equivalence;
            bank_opt_equivalence;
            list_opt_equivalence;
          ] );
      ( "registry",
        [
          Alcotest.test_case "roundtrip and parsing" `Quick
            test_backend_registry_roundtrip;
        ]
        @ backend_run_tests );
      ( "harness",
        [
          Alcotest.test_case "keyed pipeline early" `Quick test_keyed_pipeline_early;
          Alcotest.test_case "keyed pipeline optimistic repairs" `Quick
            test_keyed_pipeline_optimistic_repairs;
          Alcotest.test_case "keyed pipeline crash respawn" `Quick
            test_keyed_pipeline_crash_respawn;
          Alcotest.test_case "keyed pipeline crash mid-repair (early-opt)" `Quick
            test_keyed_pipeline_opt_crash_mid_repair;
          Alcotest.test_case "keyed pipeline cos backend" `Quick
            test_keyed_pipeline_cos_backend;
        ] );
    ]
