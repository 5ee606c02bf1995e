(* Tests for the replicated services: determinism, conflict relations, and
   the FIFO (sequential baseline) COS. *)

module LL = Psmr_app.Linked_list
module KV = Psmr_app.Kv_store
module Bank = Psmr_app.Bank

(* --- linked list --- *)

let test_ll_init () =
  let l = LL.create ~initial_size:5 in
  Alcotest.(check int) "size" 5 (LL.size l);
  for i = 0 to 4 do
    Alcotest.(check bool) "member" true (LL.execute l (LL.Contains i))
  done;
  Alcotest.(check bool) "absent" false (LL.execute l (LL.Contains 5))

let test_ll_add () =
  let l = LL.create ~initial_size:3 in
  Alcotest.(check bool) "new entry" true (LL.execute l (LL.Add 10));
  Alcotest.(check bool) "duplicate" false (LL.execute l (LL.Add 10));
  Alcotest.(check int) "size grew once" 4 (LL.size l);
  Alcotest.(check bool) "now present" true (LL.execute l (LL.Contains 10))

let test_ll_empty () =
  let l = LL.create ~initial_size:0 in
  Alcotest.(check int) "empty" 0 (LL.size l);
  Alcotest.(check bool) "nothing" false (LL.execute l (LL.Contains 0));
  Alcotest.(check bool) "add to empty" true (LL.execute l (LL.Add 0))

let test_ll_conflicts () =
  Alcotest.(check bool) "r/r" false (LL.conflict (Contains 1) (Contains 1));
  Alcotest.(check bool) "r/w" true (LL.conflict (Contains 1) (Add 2));
  Alcotest.(check bool) "w/r" true (LL.conflict (Add 2) (Contains 1));
  Alcotest.(check bool) "w/w" true (LL.conflict (Add 1) (Add 2))

let prop_ll_deterministic =
  QCheck.Test.make ~name:"linked list execution is deterministic" ~count:100
    QCheck.(list (pair bool (int_range 0 50)))
    (fun ops ->
      let run () =
        let l = LL.create ~initial_size:10 in
        List.map
          (fun (w, i) -> LL.execute l (if w then LL.Add i else LL.Contains i))
          ops
      in
      run () = run ())

(* --- kv store --- *)

let test_kv_get_put () =
  let s = KV.create ~capacity:4 in
  Alcotest.(check bool) "empty get" true (KV.execute s (KV.Get 0) = Value None);
  Alcotest.(check bool) "put" true (KV.execute s (KV.Put (0, 42)) = Stored);
  Alcotest.(check bool) "get back" true (KV.execute s (KV.Get 0) = Value (Some 42))

let test_kv_bounds () =
  let s = KV.create ~capacity:4 in
  Alcotest.check_raises "key out of range"
    (Invalid_argument "Kv_store: key 4 out of range") (fun () ->
      ignore (KV.execute s (KV.Get 4) : KV.response))

let test_kv_conflicts () =
  Alcotest.(check bool) "same-key get/get" false (KV.conflict (Get 1) (Get 1));
  Alcotest.(check bool) "same-key get/put" true (KV.conflict (Get 1) (Put (1, 0)));
  Alcotest.(check bool) "diff-key put/put" false (KV.conflict (Put (0, 1)) (Put (1, 2)));
  Alcotest.(check bool) "same-key put/put" true (KV.conflict (Put (1, 1)) (Put (1, 2)))

(* --- the kv range read (YCSB-E support) --- *)

let test_kv_scan () =
  let s = KV.create ~capacity:8 in
  ignore (KV.execute s (KV.Put (2, 20)) : KV.response);
  ignore (KV.execute s (KV.Put (4, 40)) : KV.response);
  Alcotest.(check bool) "range with holes" true
    (KV.execute s (KV.Scan (2, 3)) = Range [ Some 20; None; Some 40 ]);
  Alcotest.(check bool) "singleton range" true
    (KV.execute s (KV.Scan (4, 1)) = Range [ Some 40 ]);
  Alcotest.(check bool) "scan leaves state intact" true
    (KV.execute s (KV.Get 2) = Value (Some 20))

let test_kv_scan_bounds () =
  let s = KV.create ~capacity:8 in
  Alcotest.check_raises "zero length"
    (Invalid_argument
       (Printf.sprintf "Kv_store: scan length 0 out of [1,%d]" KV.max_scan_len))
    (fun () -> ignore (KV.execute s (KV.Scan (0, 0)) : KV.response));
  Alcotest.check_raises "over the footprint bound"
    (Invalid_argument
       (Printf.sprintf "Kv_store: scan length %d out of [1,%d]"
          (KV.max_scan_len + 1) KV.max_scan_len))
    (fun () ->
      ignore (KV.execute s (KV.Scan (0, KV.max_scan_len + 1)) : KV.response));
  Alcotest.check_raises "end past capacity"
    (Invalid_argument "Kv_store: key 8 out of range") (fun () ->
      ignore (KV.execute s (KV.Scan (6, 3)) : KV.response))

let test_kv_scan_footprint () =
  Alcotest.(check bool) "a scan is a read" false (KV.is_write (Scan (2, 3)));
  Alcotest.(check (list (pair int bool)))
    "every scanned slot declared, as reads"
    [ (2, false); (3, false); (4, false) ]
    (KV.footprint (Scan (2, 3)));
  Alcotest.(check bool) "scan vs overlapping put" true
    (KV.conflict (Scan (2, 3)) (Put (4, 0)));
  Alcotest.(check bool) "scan vs put past the range" false
    (KV.conflict (Scan (2, 3)) (Put (5, 0)));
  Alcotest.(check bool) "scan vs overlapping get" false
    (KV.conflict (Scan (2, 3)) (Get 3));
  Alcotest.(check bool) "scan vs scan" false
    (KV.conflict (Scan (2, 3)) (Scan (3, 4)))

(* --- bank --- *)

let test_bank_transfer () =
  let b = Bank.create ~accounts:3 ~initial_balance:100 in
  Alcotest.(check bool) "transfer ok" true
    (Bank.execute b (Transfer { src = 0; dst = 1; amount = 40 }) = Ok);
  Alcotest.(check bool) "src debited" true (Bank.execute b (Balance 0) = Amount 60);
  Alcotest.(check bool) "dst credited" true (Bank.execute b (Balance 1) = Amount 140);
  Alcotest.(check int) "conservation" 300 (Bank.total b)

let test_bank_insufficient () =
  let b = Bank.create ~accounts:2 ~initial_balance:10 in
  Alcotest.(check bool) "rejected" true
    (Bank.execute b (Transfer { src = 0; dst = 1; amount = 11 }) = Insufficient);
  Alcotest.(check int) "unchanged" 20 (Bank.total b)

let test_bank_conflicts () =
  let t a b amt = Bank.Transfer { src = a; dst = b; amount = amt } in
  Alcotest.(check bool) "shared account" true (Bank.conflict (t 0 1 5) (t 1 2 5));
  Alcotest.(check bool) "disjoint" false (Bank.conflict (t 0 1 5) (t 2 3 5));
  Alcotest.(check bool) "balance vs balance" false
    (Bank.conflict (Balance 0) (Balance 0));
  Alcotest.(check bool) "balance vs transfer" true
    (Bank.conflict (Balance 0) (t 0 1 5))

let prop_bank_conserves =
  QCheck.Test.make ~name:"transfers conserve total balance" ~count:100
    QCheck.(list (pair (pair (int_range 0 4) (int_range 0 4)) (int_range 0 50)))
    (fun ops ->
      let b = Bank.create ~accounts:5 ~initial_balance:100 in
      List.iter
        (fun ((src, dst), amount) ->
          ignore (Bank.execute b (Transfer { src; dst; amount }) : Bank.response))
        ops;
      Bank.total b = 500)

let prop_conflict_symmetric =
  QCheck.Test.make ~name:"bank conflict relation is symmetric" ~count:200
    (let cmd =
       QCheck.oneof
         [
           QCheck.map (fun a -> Bank.Balance a) (QCheck.int_range 0 4);
           QCheck.map (fun (a, v) -> Bank.Deposit (a, v))
             QCheck.(pair (int_range 0 4) (int_range 0 9));
           QCheck.map
             (fun ((s, d), v) -> Bank.Transfer { src = s; dst = d; amount = v })
             QCheck.(pair (pair (int_range 0 4) (int_range 0 4)) (int_range 0 9));
         ]
     in
     QCheck.pair cmd cmd)
    (fun (a, b) -> Bank.conflict a b = Bank.conflict b a)

(* --- footprint ⇔ conflict oracle ---

   The documented law in service_intf.ml (and the contract the indexed COS
   and the early class-map dispatch both lean on): two commands conflict
   iff their footprints share a key that at least one of the sharers
   writes.  Checked dynamically for random command pairs of all three
   services, independently of how [conflict] is implemented. *)

let footprints_share_written_key fa fb =
  List.exists
    (fun (k, w) -> List.exists (fun (k', w') -> k = k' && (w || w')) fb)
    fa

let prop_footprint_oracle name count gen conflict footprint =
  QCheck.Test.make
    ~name:(name ^ " conflict iff footprints share a written key")
    ~count
    (QCheck.pair gen gen)
    (fun (a, b) ->
      conflict a b = footprints_share_written_key (footprint a) (footprint b))

let bank_cmd =
  QCheck.oneof
    [
      QCheck.map (fun a -> Bank.Balance a) (QCheck.int_range 0 4);
      QCheck.map (fun (a, v) -> Bank.Deposit (a, v))
        QCheck.(pair (int_range 0 4) (int_range 0 9));
      QCheck.map
        (fun ((s, d), v) -> Bank.Transfer { src = s; dst = d; amount = v })
        QCheck.(pair (pair (int_range 0 4) (int_range 0 4)) (int_range 0 9));
    ]

let kv_cmd =
  QCheck.oneof
    [
      QCheck.map (fun k -> KV.Get k) (QCheck.int_range 0 7);
      QCheck.map (fun (k, v) -> KV.Put (k, v))
        QCheck.(pair (int_range 0 7) (int_range 0 9));
      QCheck.map (fun (s, len) -> KV.Scan (s, len))
        QCheck.(pair (int_range 0 7) (int_range 1 4));
    ]

let ll_cmd =
  QCheck.oneof
    [
      QCheck.map (fun i -> LL.Contains i) (QCheck.int_range 0 9);
      QCheck.map (fun i -> LL.Add i) (QCheck.int_range 0 9);
    ]

let prop_bank_footprint_oracle =
  prop_footprint_oracle "bank" 500 bank_cmd Bank.conflict Bank.footprint

let prop_kv_footprint_oracle =
  prop_footprint_oracle "kv" 500 kv_cmd KV.conflict KV.footprint

let prop_ll_footprint_oracle =
  prop_footprint_oracle "linked list" 200 ll_cmd LL.conflict LL.footprint

(* --- snapshot / restore round trips (state transfer support) --- *)

let test_ll_snapshot_roundtrip () =
  let a = LL.create ~initial_size:5 in
  ignore (LL.execute a (LL.Add 42) : bool);
  ignore (LL.execute a (LL.Add 17) : bool);
  let b = LL.create ~initial_size:0 in
  LL.restore b (LL.snapshot a);
  Alcotest.(check int) "size" (LL.size a) (LL.size b);
  for i = 0 to 4 do
    Alcotest.(check bool) "member" true (LL.execute b (LL.Contains i))
  done;
  Alcotest.(check bool) "42" true (LL.execute b (LL.Contains 42));
  Alcotest.(check bool) "17" true (LL.execute b (LL.Contains 17));
  (* Divergent execution after restore stays independent. *)
  ignore (LL.execute b (LL.Add 99) : bool);
  Alcotest.(check bool) "a unaffected" false (LL.execute a (LL.Contains 99))

let test_ll_snapshot_deterministic () =
  let a = LL.create ~initial_size:10 in
  let b = LL.create ~initial_size:10 in
  Alcotest.(check bool) "equal states, equal snapshots" true
    (LL.snapshot a = LL.snapshot b)

let test_kv_snapshot_roundtrip () =
  let a = KV.create ~capacity:8 in
  ignore (KV.execute a (Put (3, 33)) : KV.response);
  ignore (KV.execute a (Put (7, 77)) : KV.response);
  let b = KV.create ~capacity:8 in
  KV.restore b (KV.snapshot a);
  Alcotest.(check bool) "slot 3" true (KV.execute b (Get 3) = Value (Some 33));
  Alcotest.(check bool) "slot 7" true (KV.execute b (Get 7) = Value (Some 77));
  Alcotest.(check bool) "slot 0 empty" true (KV.execute b (Get 0) = Value None)

let test_kv_snapshot_capacity_mismatch () =
  let a = KV.create ~capacity:8 in
  let b = KV.create ~capacity:4 in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Kv_store.restore: capacity mismatch") (fun () ->
      KV.restore b (KV.snapshot a))

let test_bank_snapshot_roundtrip () =
  let a = Bank.create ~accounts:3 ~initial_balance:100 in
  ignore (Bank.execute a (Transfer { src = 0; dst = 2; amount = 30 }) : Bank.response);
  let b = Bank.create ~accounts:3 ~initial_balance:0 in
  Bank.restore b (Bank.snapshot a);
  Alcotest.(check bool) "acct 0" true (Bank.execute b (Balance 0) = Amount 70);
  Alcotest.(check bool) "acct 2" true (Bank.execute b (Balance 2) = Amount 130);
  Alcotest.(check int) "total preserved" 300 (Bank.total b)

let test_costed_list_snapshot_roundtrip () =
  let charges = ref 0 in
  let charge ~is_write:_ = incr charges in
  let a = Psmr_harness.Costed_list.create ~initial_size:10 ~charge in
  ignore (Psmr_harness.Costed_list.execute a (Add 50) : bool);
  let b = Psmr_harness.Costed_list.create ~initial_size:10 ~charge in
  Psmr_harness.Costed_list.restore b (Psmr_harness.Costed_list.snapshot a);
  Alcotest.(check bool) "extra present" true
    (Psmr_harness.Costed_list.execute b (Contains 50));
  Alcotest.(check bool) "initial present" true
    (Psmr_harness.Costed_list.execute b (Contains 3))

(* --- the undo capability (optimistic rollback support) --- *)

(* Seeded random command streams per service, shared by the undo tests. *)
let gen_kv_cmds rng n =
  Array.init n (fun i ->
      let k = Psmr_util.Rng.int rng 8 in
      match Psmr_util.Rng.int rng 4 with
      | 0 | 1 -> KV.Put (k, i)
      | 2 -> KV.Get k
      | _ -> KV.Scan (k, 1 + Psmr_util.Rng.int rng (8 - k)))

let gen_bank_cmds rng n =
  Array.init n (fun _ ->
      let a = Psmr_util.Rng.int rng 6 and b = Psmr_util.Rng.int rng 6 in
      let amount = Psmr_util.Rng.int rng 30 in
      match Psmr_util.Rng.int rng 3 with
      | 0 -> Bank.Balance a
      | 1 -> Bank.Deposit (a, amount)
      | _ -> Bank.Transfer { src = a; dst = b; amount })

let gen_ll_cmds rng n =
  Array.init n (fun _ ->
      let t = Psmr_util.Rng.int rng 40 in
      if Psmr_util.Rng.bool rng then LL.Add t else LL.Contains t)

(* undo . do = id: execute a whole random stream through the undoable
   path, unwind it in reverse execution order, and require the snapshot
   back byte-identical — for every service.  Responses along the way must
   match the plain [execute] on a twin state (the undoable path may not
   change semantics). *)
let undo_do_id (type st cmd resp u) ~name ~fresh ~snapshot
    ~(execute : st -> cmd -> resp)
    ~(execute_undoable : st -> cmd -> resp * u) ~(undo : st -> u -> unit)
    (cmds : cmd array) =
  let s : st = fresh () and twin : st = fresh () in
  let s0 = snapshot s in
  let undos =
    Array.map
      (fun c ->
        let resp, u = execute_undoable s c in
        if resp <> execute twin c then
          Alcotest.failf "%s: undoable response diverged" name;
        u)
      cmds
  in
  for i = Array.length undos - 1 downto 0 do
    undo s undos.(i)
  done;
  Alcotest.(check string)
    (name ^ ": snapshot restored by full unwind")
    s0 (snapshot s)

let test_kv_undo_do_id () =
  let rng = Psmr_util.Rng.create ~seed:81L in
  undo_do_id ~name:"kv"
    ~fresh:(fun () -> KV.create ~capacity:8)
    ~snapshot:KV.snapshot ~execute:KV.execute
    ~execute_undoable:KV.execute_undoable ~undo:KV.undo (gen_kv_cmds rng 200)

let test_bank_undo_do_id () =
  let rng = Psmr_util.Rng.create ~seed:82L in
  undo_do_id ~name:"bank"
    ~fresh:(fun () -> Bank.create ~accounts:6 ~initial_balance:50)
    ~snapshot:Bank.snapshot ~execute:Bank.execute
    ~execute_undoable:Bank.execute_undoable ~undo:Bank.undo
    (gen_bank_cmds rng 200)

let test_ll_undo_do_id () =
  let rng = Psmr_util.Rng.create ~seed:83L in
  undo_do_id ~name:"linked list"
    ~fresh:(fun () -> LL.create ~initial_size:20)
    ~snapshot:LL.snapshot ~execute:LL.execute
    ~execute_undoable:LL.execute_undoable ~undo:LL.undo (gen_ll_cmds rng 200)

(* Redo idempotence: do / undo / redo any number of times lands on the
   same response and the same state as the first execution — re-execution
   after a rollback must be invisible. *)
let redo_idempotent (type st cmd resp u) ~name ~fresh ~snapshot
    ~(execute_undoable : st -> cmd -> resp * u) ~(undo : st -> u -> unit)
    (cmds : cmd array) =
  let s : st = fresh () in
  Array.iter
    (fun c ->
      let r1, u1 = execute_undoable s c in
      let after = snapshot s in
      undo s u1;
      let last_u = ref None in
      for _ = 1 to 3 do
        (match !last_u with None -> () | Some u -> undo s u);
        let r, u = execute_undoable s c in
        if r <> r1 then Alcotest.failf "%s: redo changed the response" name;
        if snapshot s <> after then
          Alcotest.failf "%s: redo changed the state" name;
        last_u := Some u
      done)
    cmds;
  ignore (snapshot s : string)

let test_kv_redo_idempotent () =
  let rng = Psmr_util.Rng.create ~seed:84L in
  redo_idempotent ~name:"kv"
    ~fresh:(fun () -> KV.create ~capacity:8)
    ~snapshot:KV.snapshot ~execute_undoable:KV.execute_undoable ~undo:KV.undo
    (gen_kv_cmds rng 120)

let test_bank_redo_idempotent () =
  let rng = Psmr_util.Rng.create ~seed:85L in
  redo_idempotent ~name:"bank"
    ~fresh:(fun () -> Bank.create ~accounts:6 ~initial_balance:50)
    ~snapshot:Bank.snapshot ~execute_undoable:Bank.execute_undoable
    ~undo:Bank.undo (gen_bank_cmds rng 120)

let test_ll_redo_idempotent () =
  let rng = Psmr_util.Rng.create ~seed:86L in
  redo_idempotent ~name:"linked list"
    ~fresh:(fun () -> LL.create ~initial_size:20)
    ~snapshot:LL.snapshot ~execute_undoable:LL.execute_undoable ~undo:LL.undo
    (gen_ll_cmds rng 120)

(* Snapshot / undo interaction, the way the recovery path composes them: a
   checkpoint is cut at a command boundary, speculative execution runs
   past it, and a rollback must land exactly back on the checkpoint — so
   that a replica recovering from that checkpoint and replaying the suffix
   reaches the same state the optimistic run reaches after repair. *)
let test_kv_undo_back_to_checkpoint () =
  let rng = Psmr_util.Rng.create ~seed:87L in
  let prefix = gen_kv_cmds rng 60 and suffix = gen_kv_cmds rng 40 in
  let s = KV.create ~capacity:8 in
  Array.iter (fun c -> ignore (KV.execute s c : KV.response)) prefix;
  let checkpoint = KV.snapshot s in
  let undos = Array.map (fun c -> snd (KV.execute_undoable s c)) suffix in
  let speculative = KV.snapshot s in
  for i = Array.length undos - 1 downto 0 do
    KV.undo s undos.(i)
  done;
  Alcotest.(check string) "rollback lands on the checkpoint" checkpoint
    (KV.snapshot s);
  (* Recover a fresh replica from the checkpoint and replay the suffix:
     same state as the speculative execution it replaces. *)
  let r = KV.create ~capacity:8 in
  KV.restore r checkpoint;
  Array.iter (fun c -> ignore (KV.execute r c : KV.response)) suffix;
  Alcotest.(check string) "checkpoint + replay = speculative execution"
    speculative (KV.snapshot r);
  (* And the rolled-back replica re-executing the suffix converges too —
     the undo log left no residue behind the snapshot. *)
  Array.iter (fun c -> ignore (KV.execute s c : KV.response)) suffix;
  Alcotest.(check string) "rollback + re-execution converges" speculative
    (KV.snapshot s)

let test_bank_undo_back_to_checkpoint () =
  let rng = Psmr_util.Rng.create ~seed:88L in
  let prefix = gen_bank_cmds rng 60 and suffix = gen_bank_cmds rng 40 in
  let s = Bank.create ~accounts:6 ~initial_balance:50 in
  Array.iter (fun c -> ignore (Bank.execute s c : Bank.response)) prefix;
  let checkpoint = Bank.snapshot s in
  let undos = Array.map (fun c -> snd (Bank.execute_undoable s c)) suffix in
  let speculative = Bank.snapshot s in
  for i = Array.length undos - 1 downto 0 do
    Bank.undo s undos.(i)
  done;
  Alcotest.(check string) "rollback lands on the checkpoint" checkpoint
    (Bank.snapshot s);
  let r = Bank.create ~accounts:6 ~initial_balance:0 in
  Bank.restore r checkpoint;
  Array.iter (fun c -> ignore (Bank.execute r c : Bank.response)) suffix;
  Alcotest.(check string) "checkpoint + replay = speculative execution"
    speculative (Bank.snapshot r)

let () =
  Alcotest.run "app"
    [
      ( "linked-list",
        [
          Alcotest.test_case "init" `Quick test_ll_init;
          Alcotest.test_case "add" `Quick test_ll_add;
          Alcotest.test_case "empty" `Quick test_ll_empty;
          Alcotest.test_case "conflicts" `Quick test_ll_conflicts;
          QCheck_alcotest.to_alcotest prop_ll_deterministic;
          QCheck_alcotest.to_alcotest prop_ll_footprint_oracle;
        ] );
      ( "kv-store",
        [
          Alcotest.test_case "get/put" `Quick test_kv_get_put;
          Alcotest.test_case "bounds" `Quick test_kv_bounds;
          Alcotest.test_case "conflicts" `Quick test_kv_conflicts;
          Alcotest.test_case "scan" `Quick test_kv_scan;
          Alcotest.test_case "scan bounds" `Quick test_kv_scan_bounds;
          Alcotest.test_case "scan footprint" `Quick test_kv_scan_footprint;
          QCheck_alcotest.to_alcotest prop_kv_footprint_oracle;
        ] );
      ( "bank",
        [
          Alcotest.test_case "transfer" `Quick test_bank_transfer;
          Alcotest.test_case "insufficient" `Quick test_bank_insufficient;
          Alcotest.test_case "conflicts" `Quick test_bank_conflicts;
          QCheck_alcotest.to_alcotest prop_bank_conserves;
          QCheck_alcotest.to_alcotest prop_conflict_symmetric;
          QCheck_alcotest.to_alcotest prop_bank_footprint_oracle;
        ] );
      ( "snapshots",
        [
          Alcotest.test_case "linked list roundtrip" `Quick test_ll_snapshot_roundtrip;
          Alcotest.test_case "linked list deterministic" `Quick
            test_ll_snapshot_deterministic;
          Alcotest.test_case "kv roundtrip" `Quick test_kv_snapshot_roundtrip;
          Alcotest.test_case "kv capacity mismatch" `Quick
            test_kv_snapshot_capacity_mismatch;
          Alcotest.test_case "bank roundtrip" `Quick test_bank_snapshot_roundtrip;
          Alcotest.test_case "costed list roundtrip" `Quick
            test_costed_list_snapshot_roundtrip;
        ] );
      ( "undo",
        [
          Alcotest.test_case "kv: undo . do = id" `Quick test_kv_undo_do_id;
          Alcotest.test_case "bank: undo . do = id" `Quick test_bank_undo_do_id;
          Alcotest.test_case "linked list: undo . do = id" `Quick
            test_ll_undo_do_id;
          Alcotest.test_case "kv: redo idempotent" `Quick
            test_kv_redo_idempotent;
          Alcotest.test_case "bank: redo idempotent" `Quick
            test_bank_redo_idempotent;
          Alcotest.test_case "linked list: redo idempotent" `Quick
            test_ll_redo_idempotent;
          Alcotest.test_case "kv: rollback lands on checkpoint" `Quick
            test_kv_undo_back_to_checkpoint;
          Alcotest.test_case "bank: rollback lands on checkpoint" `Quick
            test_bank_undo_back_to_checkpoint;
        ] );
    ]
