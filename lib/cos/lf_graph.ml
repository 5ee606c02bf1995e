(** The lock-free graph and its blocking layer — the part of the paper's
    Algorithms 5–7 that [Lockfree] and [Indexed] share.  The two COSes
    differ only in how the single insert thread finds a new node's
    dependency edges ([Lockfree.lf_insert] scans, [Indexed] looks keys
    up); everything the worker threads touch lives here, once.

    Layering (§6): a {e blocking layer} of two counting semaphores handles
    the full-graph and no-ready-command conditions; underneath, the graph
    operations are nonblocking.  A node's lifecycle is the atomic state
    chain [Wtg -> Rdy -> Exe -> Rmd]:

    - the insert path (called sequentially by the scheduler) walks the
      list, helping to physically unlink nodes already marked [Rmd]
      ([helped_remove]), collects conflict edges, then appends the new
      node with one atomic pointer store;
    - [lf_get] scans for a node whose state CASes [Rdy -> Exe];
    - [lf_remove] marks the node [Rmd] (logical removal) and promotes
      dependents whose remaining dependencies are all removed, with a
      [Wtg -> Rdy] CAS ensuring each promotion is signalled exactly once.

    Topological mutation happens only in the (single-threaded) insert path,
    which is what makes the concurrent traversals safe: [get]'s scan may
    run through a node being bypassed, whose [nxt] still leads back to the
    live list — OCaml's GC plays the role the paper assigns to Java's.

    Two deviations from the pseudocode:

    - Algorithm 7 advances its trailing pointer [n] to every visited node,
      including logically removed ones it just bypassed; appending or
      bypassing from such a dead node would detach live nodes.  [help_walk]
      tracks the last {e live} node instead, which is the evident intent of
      the correctness argument in §6.2.1.
    - Nodes start in an explicit {e inserting} state ([Ins]) rather than
      [Wtg].  With the pseudocode's [wtg] start, a remover of an
      already-walked dependency can run [testReady] on the new node while
      its [depOn] set is still partially built: every dependency recorded
      {e so far} is removed, so the CAS [wtg -> rdy] succeeds and the new
      command is released while older conflicting commands are still in
      the structure — exactly the hazard §6.2 warns about for edges "under
      insertion" (found by the property tests in this repository, which
      execute adversarial schedules under the simulator).  [Ins] makes
      that CAS fail; the insert path flips [Ins -> Wtg] only after every
      edge is in place and then runs the final [testReady] itself
      ([open_node]), so a promotion skipped during construction is always
      re-examined.  [fresh_node]'s self-sentinel closes the remaining
      window. *)

open Psmr_platform
module Probe = Psmr_obs.Probe

module Make (P : Platform_intf.S) (C : Cos_intf.COMMAND) = struct
  type cmd = C.t

  type status = Ins | Wtg | Rdy | Exe | Rmd

  type node = {
    cmd : cmd;
    st : status P.Atomic.t;
    dep_on : node list P.Atomic.t;  (* nodes this one depends on *)
    dep_me : node list P.Atomic.t;  (* nodes that depend on this one *)
    nxt : node option P.Atomic.t;  (* arrival order *)
    mutable delivered_at : float;  (* virtual time of the insert call *)
    mutable ready_at : float;  (* virtual time of promotion to Rdy *)
  }

  type handle = node

  (* ['x] is what an insert path keeps beside the shared graph. *)
  type 'x graph = {
    first : node option P.Atomic.t;  (* the list head, [N] in the paper *)
    space : P.Semaphore.t;
    ready : P.Semaphore.t;
    size : int P.Atomic.t;
    closed : bool P.Atomic.t;
    close_tokens : int;
    who : string;  (* the COS's module name, for argument errors *)
    ext : 'x;
  }

  (* [ext max_size] builds the insert path's own state. *)
  let create ~who ~ext ?(max_size = Cos_intf.default_max_size)
      ?(worker_bound = 1024) () =
    if max_size <= 0 then invalid_arg (who ^ ".create: max_size must be positive");
    if worker_bound < 0 then
      invalid_arg (who ^ ".create: worker_bound must be non-negative");
    {
      first = P.Atomic.make None;
      space = P.Semaphore.create max_size;
      ready = P.Semaphore.create 0;
      size = P.Atomic.make 0;
      closed = P.Atomic.make false;
      (* [close] floods both semaphores so that everything blocked — up to
         [worker_bound] getters on [ready], plus the inserter waiting on up
         to [max_size] [space] tokens at once — wakes and observes
         [closed].  A fixed 1024 used to deadlock close for
         [max_size > 1024]. *)
      close_tokens = max_size + worker_bound;
      who;
      ext = ext max_size;
    }

  let command (n : handle) = n.cmd

  (* Algorithm 7, testReady: promote [n] to ready iff every node it still
     depends on has been logically removed.  The CAS makes concurrent
     promoters signal the blocking layer exactly once. *)
  let test_ready (n : node) =
    let deps = P.Atomic.get n.dep_on in
    let all_removed =
      List.for_all
        (fun d ->
          P.work Visit;
          P.Atomic.get d.st = Rmd)
        deps
    in
    if all_removed && P.Atomic.compare_and_set n.st Wtg Rdy then begin
      n.ready_at <- Probe.now ();
      Probe.ready_latency (n.ready_at -. n.delivered_at);
      1
    end
    else 0

  (* Algorithm 7, helpedRemove: physically unlink [dead], whose state is
     [Rmd], from the list.  [prev_live] is the last preceding node that is
     not removed ([None] when [dead] is first).  Runs only inside the
     sequential insert, so plain reasoning applies to the topology. *)
  let helped_remove t (dead : node) (prev_live : node option) =
    Probe.helped_removal ();
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

  (* One insert-thread pass over the arrival list: unlink every removed
     node and hand each live one to [on_live].  Returns the last live
     node, where the next node is appended. *)
  let help_walk t visits on_live =
    let rec walk prev_live cur =
      match cur with
      | None -> prev_live
      | Some n ->
          P.work Visit;
          incr visits;
          let nxt = P.Atomic.get n.nxt in
          if P.Atomic.get n.st = Rmd then begin
            helped_remove t n prev_live;
            walk prev_live nxt
          end
          else begin
            on_live n;
            walk (Some n) nxt
          end
    in
    walk None (P.Atomic.get t.first)

  (* A new node, not promotable until fully inserted ([Ins]).

     Promotion-stall guard: once the insert path installs a [dep_me] edge,
     a remover can invoke [test_ready nn].  [Ins] makes its immediate CAS
     fail, but a remover that reads the still-growing dependency list now
     and performs the CAS only after the insert completes would promote
     [nn] although dependencies recorded after its read are still live.
     Seeding [dep_on] with [nn] itself — never [Rmd] during its own insert
     — makes every such early read conclude "not removable"; the insert
     path replaces the list before [open_node]. *)
  let fresh_node c ~delivered_at =
    P.work Alloc;
    let nn =
      {
        cmd = c;
        st = P.Atomic.make Ins;
        dep_on = P.Atomic.make [];
        dep_me = P.Atomic.make [];
        nxt = P.Atomic.make None;
        delivered_at;
        ready_at = 0.0;
      }
    in
    P.Atomic.set nn.dep_on [ nn ];
    nn

  (* Link [nn] after [last] (at the head when [None]) and count it. *)
  let append t last nn =
    (match last with
    | None -> P.Atomic.set t.first (Some nn) (* linearization point: insert *)
    | Some p -> P.Atomic.set p.nxt (Some nn));
    ignore (P.Atomic.fetch_and_add t.size 1 : int)

  (* Every edge is in place: open [nn] for promotion and re-examine it
     ourselves (a remover may have tried and failed while the dependency
     set was still being built).  Returns the promotion count (0 or 1). *)
  let open_node nn ~visits =
    P.Atomic.set nn.st Wtg;
    Probe.insert_done ~visits;
    test_ready nn

  (* Algorithm 7, lfGet: one scan for a ready node. *)
  let lf_get t visits =
    let rec walk = function
      | None -> None
      | Some n ->
          P.work Visit;
          incr visits;
          if P.Atomic.compare_and_set n.st Rdy Exe then Some n
          else walk (P.Atomic.get n.nxt)
    in
    walk (P.Atomic.get t.first)

  (* Algorithm 7, lfRemove: logical removal plus promotion of freed
     dependents; physical unlinking is left to future inserts.  Returns the
     promotion count and the number of dependents examined. *)
  let lf_remove (n : node) =
    P.Atomic.set n.st Rmd;
    let visits = ref 0 in
    let promoted =
      List.fold_left
        (fun acc ni ->
          incr visits;
          acc + test_ready ni)
        0 (P.Atomic.get n.dep_me)
    in
    (promoted, !visits)

  (* Blocking layer (Algorithm 5).  [node_insert] is the insert path's
     graph operation; it returns the number of promotions to signal. *)

  let insert_with node_insert t c =
    let delivered_at = Probe.now () in
    P.Semaphore.acquire t.space;
    if not (P.Atomic.get t.closed) then begin
      let promoted = node_insert t c ~delivered_at in
      if promoted > 0 then P.Semaphore.release ~n:promoted t.ready
    end

  let get t =
    P.Semaphore.acquire t.ready;
    let visits = ref 0 in
    let rec attempt () =
      match lf_get t visits with
      | Some n ->
          Probe.dispatch_latency (Probe.now () -. n.ready_at);
          Probe.get_done ~visits:!visits;
          Some n
      | None ->
          if P.Atomic.get t.closed && P.Atomic.get t.size = 0 then begin
            Probe.get_done ~visits:!visits;
            None
          end
          else begin
            (* Our token's node was promoted behind the scan position and
               taken over by a faster worker; its token is still in flight
               for us.  Rescan. *)
            Probe.rescan ();
            P.yield ();
            attempt ()
          end
    in
    attempt ()

  let remove t n =
    let promoted, visits = lf_remove n in
    ignore (P.Atomic.fetch_and_add t.size (-1) : int);
    if promoted > 0 then P.Semaphore.release ~n:promoted t.ready;
    P.Semaphore.release t.space;
    Probe.remove_done ~visits

  (* Demote a reserved node back to [Rdy] (dead-worker recovery).  The
     node's recorded dependencies are all [Rmd] — they were when [lf_get]'s
     CAS promoted it, and [Rmd] is terminal — so [Rdy] is immediately
     legal; the released token replaces the one the dead worker's [get]
     consumed.  This is the one backward move in the state chain; the
     promoted-with-live-dependency invariant survives it because the
     demoted node's dependency set is unchanged. *)
  let requeue t n =
    if not (P.Atomic.compare_and_set n.st Exe Rdy) then
      invalid_arg (t.who ^ ".requeue: command not reserved");
    n.ready_at <- Probe.now ();
    Probe.requeue ();
    P.Semaphore.release t.ready

  let close t =
    if not (P.Atomic.exchange t.closed true) then begin
      Probe.close_tokens (2 * t.close_tokens);
      P.Semaphore.release ~n:t.close_tokens t.ready;
      P.Semaphore.release ~n:t.close_tokens t.space
    end

  let pending t = P.Atomic.get t.size

  let show = function
    | Ins -> "Ins"
    | Wtg -> "Wtg"
    | Rdy -> "Rdy"
    | Exe -> "Exe"
    | Rmd -> "Rmd"

  (* Read-only structural check (see {!Cos_intf.S.invariant}); every read
     goes through [P.Atomic.get], so on the check platform this snapshots
     the structure between two scheduled operations.  Checked here:

     - the arrival list is finite and acyclic, and no node is linked twice
       (a node re-appearing would mean a physical removal ran twice or
       unlinked the wrong predecessor);
     - at most one node is in the [Ins] state (there is a single inserting
       scheduler thread);
     - state legality: a node promoted to [Rdy]/[Exe] has only [Rmd]
       dependencies — promotions never run ahead of removals (states move
       forward along [Ins -> Wtg -> Rdy -> Exe -> Rmd] except for the
       [requeue] demotion [Exe -> Rdy], which keeps the dependency set and
       [Rmd] is terminal, so this holds at every instant, not just at the
       promotion point).

     [extra ~strict ~err nodes] adds the insert path's own checks over the
     linked [nodes]. *)
  let invariant ?(strict = false) ?(extra = fun ~strict:_ ~err:_ _ -> ()) t =
    let errs = ref [] in
    let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
    let cap = 1_000_000 in
    let rec collect acc n visits =
      if visits > cap then begin
        err "traversal exceeded %d nodes: cycle suspected" cap;
        List.rev acc
      end
      else
        match n with
        | None -> List.rev acc
        | Some n -> collect (n :: acc) (P.Atomic.get n.nxt) (visits + 1)
    in
    let nodes = collect [] (P.Atomic.get t.first) 0 in
    if List.length nodes <= 4096 then begin
      let rec dup = function
        | [] -> false
        | n :: rest -> List.memq n rest || dup rest
      in
      if dup nodes then err "a node is physically linked more than once"
    end;
    let inserting =
      List.fold_left
        (fun acc n -> if P.Atomic.get n.st = Ins then acc + 1 else acc)
        0 nodes
    in
    if inserting > 1 then
      err "%d nodes in the Ins state (single-inserter discipline broken)"
        inserting;
    List.iter
      (fun n ->
        match P.Atomic.get n.st with
        | (Rdy | Exe) as s ->
            List.iter
              (fun d ->
                let ds = P.Atomic.get d.st in
                if ds <> Rmd then
                  err "node promoted while a dependency is still live (%s %s depends on %s %s)"
                    (show s)
                    (Format.asprintf "%a" C.pp n.cmd)
                    (show ds)
                    (Format.asprintf "%a" C.pp d.cmd))
              (P.Atomic.get n.dep_on)
        | Ins | Wtg | Rmd -> ())
      nodes;
    let size = P.Atomic.get t.size in
    if size < 0 then err "negative size %d" size;
    if strict then begin
      let live =
        List.fold_left
          (fun acc n -> if P.Atomic.get n.st <> Rmd then acc + 1 else acc)
          0 nodes
      in
      if live <> size then err "live node count %d <> size %d" live size;
      List.iter
        (fun n ->
          List.iter
            (fun d ->
              if not (List.memq d nodes) then
                err "dependency edge to an unlinked node")
            (P.Atomic.get n.dep_on))
        nodes
    end;
    extra ~strict ~err:(err "%s") nodes;
    List.rev !errs
end
