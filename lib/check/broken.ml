(** Deliberately broken COS variants, used to validate the checker itself:
    a model checker that has never caught a planted bug proves nothing.
    Each variant is a copy of the lock-free algorithm with one realistic
    mutation — both are bugs the correct implementation documents having to
    avoid (see the header of [Psmr_cos.Lockfree]).

    - {!Wtg_start}: nodes enter the list in the [Wtg] state instead of an
      explicit inserting state, exactly as in the paper's pseudocode.  A
      remover of an already-recorded dependency can then promote a node
      whose dependency set is still being built, releasing a command while
      an older conflicting command is still in the structure — caught by
      the conflict-order oracle.
    - {!Lost_signal}: [remove] promotes freed dependents but forgets to
      release the ready semaphore for them, so the promoted commands are
      ready with no token to claim them — caught as a deadlock.
    - {!No_sentinel}: no mutation at all — the functor body itself {e is}
      the pre-hardening lock-free algorithm, without the self-sentinel
      seeded into [dep_on] during insert (see the long comment on
      [Psmr_cos.Lf_graph.Make.fresh_node]).  A remover can read the still-growing
      dependency list, stall, and perform its promoting CAS only after the
      insert has published later live dependencies and opened the node —
      caught by the conflict-order oracle.  Pinned-seed replays of this
      variant are the regression test for the self-sentinel fix. *)

open Psmr_platform
open Psmr_cos

module type CONFIG = sig
  val name : string
  val wtg_start : bool
  val lost_signal : bool
end

module Make_broken (Cfg : CONFIG) (P : Platform_intf.S) (C : Cos_intf.COMMAND) =
struct
  type cmd = C.t

  type status = Ins | Wtg | Rdy | Exe | Rmd

  type node = {
    cmd : cmd;
    st : status P.Atomic.t;
    dep_on : node list P.Atomic.t;
    dep_me : node list P.Atomic.t;
    nxt : node option P.Atomic.t;
  }

  type handle = node

  type t = {
    first : node option P.Atomic.t;
    space : P.Semaphore.t;
    ready : P.Semaphore.t;
    size : int P.Atomic.t;
    closed : bool P.Atomic.t;
    close_tokens : int;
  }

  let name = Cfg.name

  let create ?(max_size = Cos_intf.default_max_size) ?(worker_bound = 1024) ()
      =
    if max_size <= 0 then invalid_arg "Broken.create: max_size must be positive";
    {
      first = P.Atomic.make None;
      space = P.Semaphore.create max_size;
      ready = P.Semaphore.create 0;
      size = P.Atomic.make 0;
      closed = P.Atomic.make false;
      close_tokens = max_size + worker_bound;
    }

  let command (n : handle) = n.cmd

  let test_ready (n : node) =
    let deps = P.Atomic.get n.dep_on in
    let all_removed =
      List.for_all
        (fun d ->
          P.work Visit;
          P.Atomic.get d.st = Rmd)
        deps
    in
    if all_removed && P.Atomic.compare_and_set n.st Wtg Rdy then 1 else 0

  let helped_remove t (dead : node) (prev_live : node option) =
    List.iter
      (fun ni ->
        P.work Visit;
        let rest = List.filter (fun d -> d != dead) (P.Atomic.get ni.dep_on) in
        P.Atomic.set ni.dep_on rest)
      (P.Atomic.get dead.dep_me);
    let successor = P.Atomic.get dead.nxt in
    match prev_live with
    | None -> P.Atomic.set t.first successor
    | Some p -> P.Atomic.set p.nxt successor

  let lf_insert t c =
    P.work Alloc;
    let nn =
      {
        cmd = c;
        (* THE BUG (Wtg_start): the paper's pseudocode start state.  The
           node is promotable before its dependency set is complete. *)
        st = P.Atomic.make (if Cfg.wtg_start then Wtg else Ins);
        dep_on = P.Atomic.make [];
        dep_me = P.Atomic.make [];
        nxt = P.Atomic.make None;
      }
    in
    let rec walk prev_live cur =
      match cur with
      | None -> prev_live
      | Some n' ->
          P.work Visit;
          let nxt = P.Atomic.get n'.nxt in
          if P.Atomic.get n'.st = Rmd then begin
            helped_remove t n' prev_live;
            walk prev_live nxt
          end
          else begin
            P.work Conflict_check;
            if C.conflict n'.cmd c then begin
              P.Atomic.set n'.dep_me (nn :: P.Atomic.get n'.dep_me);
              P.Atomic.set nn.dep_on (n' :: P.Atomic.get nn.dep_on)
            end;
            walk (Some n') nxt
          end
    in
    let last_live = walk None (P.Atomic.get t.first) in
    (match last_live with
    | None -> P.Atomic.set t.first (Some nn)
    | Some p -> P.Atomic.set p.nxt (Some nn));
    ignore (P.Atomic.fetch_and_add t.size 1 : int);
    if not Cfg.wtg_start then P.Atomic.set nn.st Wtg;
    test_ready nn

  let lf_get t =
    let rec walk = function
      | None -> None
      | Some n ->
          P.work Visit;
          if P.Atomic.compare_and_set n.st Rdy Exe then Some n
          else walk (P.Atomic.get n.nxt)
    in
    walk (P.Atomic.get t.first)

  let lf_remove (n : node) =
    P.Atomic.set n.st Rmd;
    List.fold_left
      (fun acc ni -> acc + test_ready ni)
      0 (P.Atomic.get n.dep_me)

  let insert t c =
    P.Semaphore.acquire t.space;
    if not (P.Atomic.get t.closed) then begin
      let promoted = lf_insert t c in
      if promoted > 0 then P.Semaphore.release ~n:promoted t.ready
    end

  let insert_batch t cs = Array.iter (insert t) cs

  let get t =
    P.Semaphore.acquire t.ready;
    let rec attempt () =
      match lf_get t with
      | Some n -> Some n
      | None ->
          if P.Atomic.get t.closed && P.Atomic.get t.size = 0 then None
          else begin
            P.yield ();
            attempt ()
          end
    in
    attempt ()

  let remove t n =
    let promoted = lf_remove n in
    ignore (P.Atomic.fetch_and_add t.size (-1) : int);
    (* THE BUG (Lost_signal): the freed dependents are Rdy but nobody is
       told — their tokens are never released. *)
    if (not Cfg.lost_signal) && promoted > 0 then
      P.Semaphore.release ~n:promoted t.ready;
    P.Semaphore.release t.space

  let requeue t n =
    if not (P.Atomic.compare_and_set n.st Exe Rdy) then
      invalid_arg "Broken.requeue: command not reserved";
    P.Semaphore.release t.ready

  let close t =
    if not (P.Atomic.exchange t.closed true) then begin
      P.Semaphore.release ~n:t.close_tokens t.ready;
      P.Semaphore.release ~n:t.close_tokens t.space
    end

  let pending t = P.Atomic.get t.size

  (* No structural self-checks: the planted bugs must be caught by the
     checker's external oracles, not confessed by the data structure. *)
  let invariant ?strict:_ _ = []
end

module Wtg_start : Cos_intf.IMPL = Make_broken (struct
  let name = "broken-wtg-start"
  let wtg_start = true
  let lost_signal = false
end)

module Lost_signal : Cos_intf.IMPL = Make_broken (struct
  let name = "broken-lost-signal"
  let wtg_start = false
  let lost_signal = true
end)

module No_sentinel : Cos_intf.IMPL = Make_broken (struct
  let name = "broken-no-sentinel"
  let wtg_start = false
  let lost_signal = false
end)
