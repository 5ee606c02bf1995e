(* The early-scheduling execution runtime: one FIFO of tokens per worker,
   a static class map deciding at submit time which queues a command
   touches, and a rendezvous barrier for cross-class commands.

   Token life cycle.  A token is [Pending] (optimistically enqueued, not
   yet confirmed by final delivery), [Confirmed] (executable once it
   reaches the head of its queue), [Taken] (a pending single-queue token
   popped by its worker for speculative execution) or [Revoked] (pulled
   out by the repair path; workers skip it).  Conservative submissions
   append [Confirmed] tokens directly; optimistic submissions append
   [Pending] ones and a later {!confirm} commits them.

   Ordering argument.  The submit thread is the only thread that appends,
   confirms or revokes, and it processes final deliveries in final order,
   so confirmation order = final delivery order.  Every entry carries a
   monotone queue position [e_pos] assigned at (re-)append time, so per
   queue the token order is ascending [e_pos] order.  Unconfirmed
   speculations additionally sit in a submit-thread-private FIFO in the
   same order.  When a command is confirmed (or conservatively
   submitted), any unconfirmed speculation with a smaller position that
   shares one of its queues belongs to a command whose confirmation —
   hence final position — comes later, so that command is mis-speculated.
   Detecting this costs one FIFO head comparison on the fast path (the
   confirmation arrives in speculated order) and never touches a queue
   lock; no per-queue scan is needed because position order and queue
   order coincide.

   Execution-time optimism.  When a [speculate] hook is installed, a
   worker reaching a [Pending] single-queue token does not wait for the
   confirmation: it pops the token and executes the command through the
   hook, which returns an undo closure; the pair is pushed on the queue's
   undo log.  A clean confirmation then merely commits the already-done
   work (pop the log, count it executed).  A mis-speculated confirmation
   rolls back: the affected queues are quiesced (a gate stops new
   speculative pops; the submit thread waits out the one possibly running
   execution), the undo log suffix from the earliest victim onward is
   undone newest-first, non-victim collateral entries are re-inserted at
   the queue front in their original order (to be re-executed against the
   repaired state), and the victims are revoked and re-appended at the
   tail as fresh speculations.  Cross-class (rendezvous) commands never
   execute speculatively — their barrier would entangle other queues in
   the rollback — so a rollback is always confined to single-queue
   entries, and an undo log never holds a command that conflicts with
   another queue's contents (conflicting commands share a queue).

   Fault behavior mirrors the COS scheduler: before participating in a
   dequeued token the worker consults the fault hook; a crash pushes the
   token back at the {e front} of the queue (the reservation is returned,
   order intact — a speculative pop is restored to [Pending]) and the
   core leaves the pool or respawns.  A crash-stop of a worker involved
   in a rendezvous leaves that barrier unable to complete — the
   class-barrier deadlock the checker's oracle looks for — while a
   respawned worker re-pops the token and drains the barrier. *)

open Psmr_platform
module Probe = Psmr_obs.Probe

module Make (P : Platform_intf.S) (C : Psmr_cos.Cos_intf.KEYED_COMMAND) =
struct
  module Latch = Latch.Make (P)
  module B = Barrier.Make (P)

  type cmd = C.t

  let name = "early"

  type tstate = Pending | Confirmed | Revoked | Taken

  type entry = {
    e_cmd : C.t;
    e_barrier : B.t option;  (* [None] = single-queue fast path *)
    e_spec : bool;  (* entered through [submit_optimistic] *)
    e_enq_at : float;  (* virtual enqueue time (0 while probes are off) *)
    mutable e_pos : int;  (* queue position; submit thread writes *)
    mutable e_tokens : token array;  (* live token per member queue *)
    mutable e_confirmed : bool;  (* submit-thread double-confirm guard *)
    mutable e_victim : bool;  (* transient mark inside one repair *)
    mutable e_commit_wanted : bool;
        (* the confirmation raced a running speculative execution; the
           worker commits at log-push time.  Protected by the queue lock. *)
    mutable e_runs : int;  (* executions so far; serialized by queue order *)
    e_done : bool P.Atomic.t;  (* committed or dropped; window released *)
    e_claim : int P.Atomic.t;
        (* speculative-log claim: 0 = no undo record logged, 1 = the
           worker logged one (set under the queue lock, after the push),
           3 = a confirmation claimed the logged record and committed
           without the lock.  The 1 -> 3 transition is the confirm fast
           path; a rollback resets undone entries to 0. *)
  }

  and token = { t_entry : entry; t_queue : queue; mutable t_state : tstate }

  and queue = {
    q_worker : int;
    q_m : P.Mutex.t;
    q_cv : P.Condition.t;
    mutable q_front : token list;  (* oldest first *)
    mutable q_back : token list;  (* newest first *)
    mutable q_pending : int;  (* pending tokens currently queued *)
    mutable q_closed : bool;
    (* Speculative-execution state, all protected by [q_m]. *)
    mutable q_busy : bool;  (* worker inside a speculative execution *)
    mutable q_gate : bool;  (* a rollback is quiescing this queue *)
    mutable q_log_front : (entry * (unit -> unit)) list;  (* oldest first *)
    mutable q_log_back : (entry * (unit -> unit)) list;  (* newest first *)
  }

  type spec = entry

  type t = {
    map : Class_map.t;
    queues : queue array;
    window : P.Semaphore.t;  (* in-flight bound, like the COS max_size *)
    repair : bool;
    execute : C.t -> unit;
    speculate : (C.t -> unit -> unit) option;
        (* execute through the undo capability; [None] = dispatch-only
           optimism (pending tokens wait for their confirmation) *)
    on_commit : (C.t -> unit) option;
    fault : id:int -> nth:int -> Psmr_fault.Fault.worker_action;
    joined : Latch.t;
    submitted : int P.Atomic.t;
    executed : int P.Atomic.t;
    crashed : int P.Atomic.t;
    dropped : int P.Atomic.t;
    spec_execs : int P.Atomic.t;  (* speculative executions (workers) *)
    redos : int P.Atomic.t;  (* re-executions after a rollback *)
    redo_depth : int P.Atomic.t;  (* max executions of a single command *)
    wmax : int;  (* the window bound, for chunked reservation *)
    (* Submit-thread state: the submit thread is the only writer, so these
       are plain mutables.  [spec_out] counts optimistic submissions not
       yet confirmed; [fifo_front]/[fifo_back] hold exactly those entries
       in ascending [e_pos] order.  [credit] is the number of window slots
       already acquired but not yet spent. *)
    mutable spec_out : int;
    mutable credit : int;
    mutable pos_ctr : int;
    mutable fifo_front : entry list;  (* oldest first *)
    mutable fifo_back : entry list;  (* newest first *)
    (* Submit-thread statistics; exact after shutdown, advisory before. *)
    mutable n_direct : int;
    mutable n_rendezvous : int;
    mutable n_repairs : int;
    mutable n_revoked : int;
    mutable n_undone : int;  (* executed commands rolled back by repairs *)
    mutable live_barriers : entry list;  (* for diagnostics; purged lazily *)
    mutable live_count : int;
  }

  let rec bump_max a v =
    let cur = P.Atomic.get a in
    if v > cur && not (P.Atomic.compare_and_set a cur v) then bump_max a v

  (* ---------------------------------------------------------------- *)
  (* Queue primitives.                                                 *)

  (* The queue's single consumer waits on [q_cv] in exactly two states:
     queue empty, or head [Pending] (woken by confirm/revoke/close
     broadcasts, not by appends).  So an append only needs to signal when
     it makes the queue non-empty. *)
  let q_append q tok =
    P.Mutex.lock q.q_m;
    let was_empty = q.q_front = [] && q.q_back = [] in
    q.q_back <- tok :: q.q_back;
    if tok.t_state = Pending then q.q_pending <- q.q_pending + 1;
    if was_empty then P.Condition.signal q.q_cv;
    P.Mutex.unlock q.q_m

  (* Crash requeue: the reservation goes back where it came from.  A
     speculative pop is normally restored to [Pending] — but if the
     entry's confirmation landed while the token was in flight (confirm
     saw [Taken], failed the claim CAS and parked [e_commit_wanted] for
     a worker that then died), reviving it [Pending] would park it ahead
     of already-[Confirmed] tokens, breaking the queue's order
     invariant.  [e_confirmed] is set before confirm touches [q_m], and
     we hold [q_m] here, so the read is stable: revive such tokens
     [Confirmed] and let the next consumer run them to commit.  The
     broadcast also wakes a rollback waiting out [q_busy]. *)
  let q_push_front q tok =
    P.Mutex.lock q.q_m;
    if tok.t_state = Taken then begin
      if tok.t_entry.e_confirmed then tok.t_state <- Confirmed
      else begin
        tok.t_state <- Pending;
        q.q_pending <- q.q_pending + 1
      end;
      q.q_busy <- false
    end;
    q.q_front <- tok :: q.q_front;
    P.Condition.broadcast q.q_cv;
    P.Mutex.unlock q.q_m

  (* Drop already-committed records off the log front (with the queue
     lock held).  The confirm fast path commits a logged entry without
     the lock and leaves its record behind; the worker reclaims those
     here at its next log push. *)
  let rec log_prune q =
    match q.q_log_front with
    | (en, _) :: rest when P.Atomic.get en.e_done ->
        q.q_log_front <- rest;
        log_prune q
    | [] when q.q_log_back <> [] ->
        q.q_log_front <- List.rev q.q_log_back;
        q.q_log_back <- [];
        log_prune q
    | _ -> ()

  let drop t e =
    if P.Atomic.compare_and_set e.e_done false true then begin
      ignore (P.Atomic.fetch_and_add t.dropped 1 : int);
      P.Semaphore.release t.window
    end

  (* Terminal success: exactly one of [commit]/[drop] fires per entry. *)
  let commit t e =
    if P.Atomic.compare_and_set e.e_done false true then begin
      ignore (P.Atomic.fetch_and_add t.executed 1 : int);
      (match t.on_commit with Some f -> f e.e_cmd | None -> ());
      P.Semaphore.release t.window
    end

  type fetched = Closed | Fetched of token | Speculative of token

  (* The worker's blocking fetch: skip revoked tokens, pop confirmed ones,
     pop pending single-queue heads for speculative execution when the
     hook is installed (and no rollback is gating the queue), otherwise
     wait while the head is pending (its confirmation or revocation will
     broadcast).  After close, a still-pending head is a speculation that
     will never be confirmed — dropped, releasing its window slot. *)
  let q_next t q =
    let spec_run =
      match t.speculate with Some _ -> true | None -> false
    in
    P.Mutex.lock q.q_m;
    let rec loop () =
      (match q.q_front with
      | [] when q.q_back <> [] ->
          q.q_front <- List.rev q.q_back;
          q.q_back <- []
      | _ -> ());
      match q.q_front with
      | [] ->
          if q.q_closed then Closed
          else (P.Condition.wait q.q_cv q.q_m; loop ())
      | tok :: rest -> (
          match tok.t_state with
          | Revoked | Taken ->
              q.q_front <- rest;
              loop ()
          | Confirmed ->
              q.q_front <- rest;
              Fetched tok
          | Pending ->
              if q.q_closed then begin
                q.q_front <- rest;
                q.q_pending <- q.q_pending - 1;
                drop t tok.t_entry;
                loop ()
              end
              else if
                spec_run
                && (match tok.t_entry.e_barrier with
                   | None -> true
                   | Some _ -> false)
                && not q.q_gate
              then begin
                q.q_front <- rest;
                q.q_pending <- q.q_pending - 1;
                tok.t_state <- Taken;
                q.q_busy <- true;
                Speculative tok
              end
              else (P.Condition.wait q.q_cv q.q_m; loop ()))
    in
    let r = loop () in
    P.Mutex.unlock q.q_m;
    r

  (* ---------------------------------------------------------------- *)
  (* Submit-side: planning, enqueueing, confirmation and repair.       *)

  let next_pos t =
    t.pos_ctr <- t.pos_ctr + 1;
    t.pos_ctr

  let make_entry t c ~spec ~state =
    let fp = C.footprint c in
    let plan =
      List.iter (fun _ -> P.work Hash) fp;
      Class_map.plan t.map fp
    in
    let member_ids =
      match plan with
      | Class_map.Direct { worker } -> [| worker |]
      | Class_map.Rendezvous { members; _ } -> members
    in
    let queues = Array.map (fun id -> t.queues.(id - 1)) member_ids in
    let barrier =
      match plan with
      | Class_map.Direct _ -> None
      | Class_map.Rendezvous { members; designated } ->
          P.work Alloc;
          Some (B.create ~size:(Array.length members) ~designated)
    in
    let e =
      {
        e_cmd = c;
        e_barrier = barrier;
        e_spec = spec;
        e_enq_at = Probe.now ();
        e_pos = next_pos t;
        e_tokens = [||];
        e_confirmed = false;
        e_victim = false;
        e_commit_wanted = false;
        e_runs = 0;
        e_done = P.Atomic.make false;
        e_claim = P.Atomic.make 0;
      }
    in
    e.e_tokens <-
      Array.map
        (fun q ->
          P.work Alloc;
          { t_entry = e; t_queue = q; t_state = state })
        queues;
    (match plan with
    | Class_map.Direct _ ->
        t.n_direct <- t.n_direct + 1;
        Probe.class_direct ()
    | Class_map.Rendezvous { members; _ } ->
        t.n_rendezvous <- t.n_rendezvous + 1;
        Probe.class_barrier ~tokens:(Array.length members);
        t.live_barriers <- e :: t.live_barriers;
        t.live_count <- t.live_count + 1;
        if t.live_count > 512 then begin
          t.live_barriers <-
            List.filter (fun e -> not (P.Atomic.get e.e_done)) t.live_barriers;
          t.live_count <- List.length t.live_barriers
        end);
    Probe.insert_done ~visits:(List.length fp);
    e

  let enqueue_tokens e = Array.iter (fun tok -> q_append tok.t_queue tok) e.e_tokens

  (* The outstanding-speculation FIFO: entries in ascending [e_pos] order
     (appends use a monotone counter; victims re-enter at the tail with a
     fresh position).  Submit-thread private, so no locks. *)
  let fifo_push t e = t.fifo_back <- e :: t.fifo_back

  let fifo_normalize t =
    if t.fifo_front = [] then begin
      t.fifo_front <- List.rev t.fifo_back;
      t.fifo_back <- []
    end

  let fifo_remove t e =
    fifo_normalize t;
    match t.fifo_front with
    | x :: rest when x == e -> t.fifo_front <- rest
    | _ ->
        t.fifo_front <- List.filter (fun en -> en != e) t.fifo_front;
        t.fifo_back <- List.filter (fun en -> en != e) t.fifo_back

  let shares_queue a b =
    Array.exists
      (fun ta -> Array.exists (fun tb -> ta.t_queue == tb.t_queue) b.e_tokens)
      a.e_tokens

  (* Mis-speculation detection at [confirm e]: the victims are the
     still-unconfirmed speculations positioned ahead of [e] in one of its
     queues — i.e. FIFO entries with a smaller [e_pos] sharing a queue.
     Fast path: [e] is the FIFO head (confirmations arrive in speculated
     order), so nothing can be ahead of it — one physical comparison, no
     locks, no scan. *)
  let victims_before t e =
    if not t.repair then []
    else begin
      fifo_normalize t;
      match t.fifo_front with
      | x :: _ when x == e -> []
      | _ ->
          let rec walk acc = function
            | en :: rest when en.e_pos < e.e_pos ->
                walk
                  (if en != e && shares_queue en e then en :: acc else acc)
                  rest
            | _ -> List.rev acc
          in
          walk [] (t.fifo_front @ List.rev t.fifo_back)
    end

  (* Victims of a conservative submission [e]: every outstanding
     speculation shares a smaller position (all were appended before), so
     only the queue-sharing test filters. *)
  let victims_all t e =
    if (not t.repair) || t.spec_out = 0 then []
    else
      List.filter
        (fun en -> shares_queue en e)
        (t.fifo_front @ List.rev t.fifo_back)

  (* Roll back the mis-speculated state and repair the queues: quiesce
     each member queue of [e], undo its log suffix from the earliest
     victim onward (newest first), re-insert non-victim collaterals at
     the front in original order — [e] itself as [Confirmed] (it is
     committing now), others as fresh speculations — then revoke every
     victim and re-append it at the tail. *)
  let rollback t e vs =
    t.n_repairs <- t.n_repairs + 1;
    List.iter (fun v -> v.e_victim <- true) vs;
    let undone = ref 0 in
    Array.iter
      (fun tok ->
        let q = tok.t_queue in
        P.Mutex.lock q.q_m;
        q.q_gate <- true;
        while q.q_busy do
          P.Condition.wait q.q_cv q.q_m
        done;
        let log = q.q_log_front @ List.rev q.q_log_back in
        let rec split acc = function
          | [] -> (List.rev acc, [])
          | (en, _) :: _ as suffix when en.e_victim -> (List.rev acc, suffix)
          | x :: rest -> split (x :: acc) rest
        in
        let keep, suffix = split [] log in
        if suffix <> [] then begin
          List.iter
            (fun (en, undo) ->
              P.work Visit;
              undo ();
              incr undone;
              (* The record is gone and the entry will re-execute (and
                 re-log) later; without the reset a confirmation could
                 claim the stale record and commit before the redo. *)
              P.Atomic.set en.e_claim 0;
              if not en.e_victim then begin
                (* Collateral: it read rolled-back state but its position
                   stands, so it re-executes in place against the
                   repaired prefix. *)
                let st = if en == e then Confirmed else Pending in
                P.work Alloc;
                let tok' = { t_entry = en; t_queue = q; t_state = st } in
                en.e_tokens <- [| tok' |];
                q.q_front <- tok' :: q.q_front;
                if st = Pending then q.q_pending <- q.q_pending + 1
              end)
            (List.rev suffix);
          q.q_log_front <- keep;
          q.q_log_back <- []
        end;
        (* The gate stays up until the victims below are revoked: dropping
           it here would let this queue's worker speculatively pop a
           still-pending victim token in the window before its revocation,
           executing a command the repair is about to re-append. *)
        P.Mutex.unlock q.q_m)
      e.e_tokens;
    t.n_undone <- t.n_undone + !undone;
    if !undone > 0 then Probe.spec_rollback ~undone:!undone;
    (* Revoke the victims' remaining queued tokens and re-append each
       victim at the tail as a fresh pending speculation, preserving their
       relative order (they confirm after [e], in FIFO order).  Victim
       tokens outside [e]'s gated queues belong to rendezvous entries,
       which are never speculatively popped, so flipping them without a
       gate is safe. *)
    List.iter
      (fun v ->
        Array.iter
          (fun tok ->
            let q = tok.t_queue in
            P.Mutex.lock q.q_m;
            (match tok.t_state with
            | Pending ->
                q.q_pending <- q.q_pending - 1;
                tok.t_state <- Revoked;
                P.Condition.broadcast q.q_cv
            | Taken -> tok.t_state <- Revoked
            | Confirmed | Revoked -> ());
            P.Mutex.unlock q.q_m)
          v.e_tokens;
        v.e_victim <- false;
        v.e_pos <- next_pos t;
        v.e_tokens <-
          Array.map
            (fun tok ->
              P.work Alloc;
              { t_entry = v; t_queue = tok.t_queue; t_state = Pending })
            v.e_tokens;
        Array.iter (fun tok -> q_append tok.t_queue tok) v.e_tokens;
        t.n_revoked <- t.n_revoked + 1)
      vs;
    Array.iter
      (fun tok ->
        let q = tok.t_queue in
        P.Mutex.lock q.q_m;
        q.q_gate <- false;
        P.Condition.broadcast q.q_cv;
        P.Mutex.unlock q.q_m)
      e.e_tokens;
    let keep_out en = not (List.memq en vs) in
    t.fifo_front <- List.filter keep_out t.fifo_front;
    t.fifo_back <- List.filter keep_out t.fifo_back;
    List.iter (fifo_push t) vs

  (* Window reservation.  Slots held by outstanding speculations can only
     be freed by a later [confirm] from this very thread, so a blocking
     n-ary acquire may request at most the slots that free without our
     help; everything else a worker will eventually execute and release.
     With no speculation outstanding that is the full chunk — the
     conservative fast path — and the chunk shrinks as speculation runs
     ahead. *)
  let window_chunk = 32

  let acquire_window t =
    if t.credit > 0 then t.credit <- t.credit - 1
    else begin
      let free = t.wmax - t.spec_out in
      if free >= 2 then begin
        let n = min window_chunk free in
        P.Semaphore.acquire ~n t.window;
        t.credit <- n - 1
      end
      else P.Semaphore.acquire t.window
    end

  let submit t c =
    acquire_window t;
    let e = make_entry t c ~spec:false ~state:Confirmed in
    enqueue_tokens e;
    (match victims_all t e with
    | [] -> ()
    | vs ->
        rollback t e vs;
        Probe.spec_repair ~revoked:(List.length vs));
    ignore (P.Atomic.fetch_and_add t.submitted 1 : int)

  (* True batched submission: one window reservation for the whole batch,
     one [submitted] bump, and one lock acquisition per member queue
     instead of one per token.  Only sound with no speculation
     outstanding — with speculations in flight each command's repair must
     observe the queues exactly as the sequential loop would — so that
     case falls back to per-command submits.  [spec_out] is
     submit-thread-private, so the test is stable for the whole batch.
     This is the conservative feed's (and the optimistic protocol's
     0%-mis) fast path.

     Slots are reserved before any entry is published, so a batch larger
     than the whole window could never get them all: it is published in
     window-sized slices instead, each of which fits once the previous
     ones have executed. *)
  let rec submit_batch t cs =
    let n = Array.length cs in
    if n > t.wmax then begin
      let off = ref 0 in
      while !off < n do
        let k = min t.wmax (n - !off) in
        submit_batch t (Array.sub cs !off k);
        off := !off + k
      done
    end
    else if n = 0 then ()
    else begin
      Probe.batch n;
      if t.spec_out > 0 then Array.iter (submit t) cs
      else begin
        (* Window slots for the whole batch: spend banked credit, then
           chunked n-ary acquires (a single acquire may not exceed the
           window bound). *)
        let rem = ref n in
        let banked = min t.credit !rem in
        t.credit <- t.credit - banked;
        rem := !rem - banked;
        while !rem > 0 do
          let k = min (min window_chunk t.wmax) !rem in
          P.Semaphore.acquire ~n:k t.window;
          rem := !rem - k
        done;
        (* Entries in delivery order, then their tokens bucketed per
           queue and appended under one lock round per queue.  Buckets
           accumulate newest-first — the same orientation as [q_back],
           so the whole bucket prepends in one pass. *)
        let buckets = Array.make (Array.length t.queues) [] in
        Array.iter
          (fun c ->
            let e = make_entry t c ~spec:false ~state:Confirmed in
            Array.iter
              (fun tok ->
                let w = tok.t_queue.q_worker - 1 (* ids are 1-based *) in
                buckets.(w) <- tok :: buckets.(w))
              e.e_tokens)
          cs;
        Array.iteri
          (fun w toks ->
            if toks <> [] then begin
              let q = t.queues.(w) in
              P.Mutex.lock q.q_m;
              let was_empty = q.q_front = [] && q.q_back = [] in
              q.q_back <- toks @ q.q_back;
              if was_empty then P.Condition.signal q.q_cv;
              P.Mutex.unlock q.q_m
            end)
          buckets;
        ignore (P.Atomic.fetch_and_add t.submitted n : int)
      end
    end

  let submit_optimistic t c =
    acquire_window t;
    let e = make_entry t c ~spec:true ~state:Pending in
    enqueue_tokens e;
    t.spec_out <- t.spec_out + 1;
    fifo_push t e;
    e

  (* Commit an already-speculated single-queue entry at its clean
     confirmation: pop it off the queue's undo log (it is the oldest
     uncommitted entry, hence the front) and count it executed.  If its
     execution is still running (popped but not yet logged), hand the
     commit duty to the worker. *)
  (* Commit duty for a confirmed single-queue entry, decided entirely
     under its queue lock — the worker's speculative pop (Pending ->
     Taken) races the confirmation, so reading the token state outside
     the lock could leave a just-popped speculation with no one to commit
     it.  Under the lock the entry is in exactly one of four places:
     still queued pending (flip it, the worker runs it committed),
     already executed (pop it off the undo log and commit here),
     mid-execution (hand commit duty to the worker via
     [e_commit_wanted]), or already re-planted as a confirmed token by a
     rollback (nothing to do — the worker commits it). *)
  let confirm_direct t e =
    (* Fast path: the speculative execution already logged its undo
       record (claim 1) — the steady-state case, confirmation trailing
       execution by about a pipeline block.  One CAS claims the record
       and commits without touching the queue lock; the orphaned log
       record is reclaimed by the worker's next push ([log_prune]) and
       skipped, via [e_done], at [close].  Everything else falls back to
       the locked protocol below. *)
    if P.Atomic.compare_and_set e.e_claim 1 3 then commit t e
    else begin
      let tok = e.e_tokens.(0) in
      let q = tok.t_queue in
      P.Mutex.lock q.q_m;
      let commit_now =
        match tok.t_state with
        | Pending ->
            tok.t_state <- Confirmed;
            q.q_pending <- q.q_pending - 1;
            P.Condition.broadcast q.q_cv;
            false
        | Taken ->
            if P.Atomic.compare_and_set e.e_claim 1 3 then begin
              (* Logged between the unlocked attempt and taking the lock;
                 holding the lock anyway, pull the record out eagerly.
                 The filter (rather than a front pop) also covers the
                 [repair = false] broken variant, where older
                 mis-speculations linger in the log below this entry. *)
              let keep (en, _) = en != e in
              q.q_log_front <- List.filter keep q.q_log_front;
              q.q_log_back <- List.filter keep q.q_log_back;
              true
            end
            else begin
              (* Mid-execution: hand the commit duty to the worker. *)
              e.e_commit_wanted <- true;
              false
            end
        | Confirmed | Revoked -> false
      in
      P.Mutex.unlock q.q_m;
      if commit_now then commit t e
    end

  let confirm_rendezvous e =
    (* Cross-class tokens never speculate, so a plain locked flip per
       member queue suffices; already-confirmed tokens (planted by a
       rollback) are left alone. *)
    Array.iter
      (fun tok ->
        let q = tok.t_queue in
        P.Mutex.lock q.q_m;
        if tok.t_state = Pending then begin
          tok.t_state <- Confirmed;
          q.q_pending <- q.q_pending - 1;
          P.Condition.broadcast q.q_cv
        end;
        P.Mutex.unlock q.q_m)
      e.e_tokens

  let confirm t e =
    if not e.e_spec then
      invalid_arg "Dispatch.confirm: not an optimistic submission";
    if e.e_confirmed then invalid_arg "Dispatch.confirm: already confirmed";
    e.e_confirmed <- true;
    let vs = victims_before t e in
    fifo_remove t e;
    t.spec_out <- t.spec_out - 1;
    (match vs with
    | [] -> Probe.spec_confirm ()
    | vs ->
        rollback t e vs;
        Probe.spec_repair ~revoked:(List.length vs));
    if Array.length e.e_tokens = 1 then confirm_direct t e
    else confirm_rendezvous e;
    ignore (P.Atomic.fetch_and_add t.submitted 1 : int)

  (* ---------------------------------------------------------------- *)
  (* Workers.                                                          *)

  let run_entry t e =
    Probe.dispatch_latency (Probe.now () -. e.e_enq_at);
    if e.e_runs > 0 then begin
      ignore (P.Atomic.fetch_and_add t.redos 1 : int);
      bump_max t.redo_depth (e.e_runs + 1);
      Probe.spec_redo ~depth:(e.e_runs + 1)
    end;
    e.e_runs <- e.e_runs + 1;
    let t0 = Probe.now () in
    t.execute e.e_cmd;
    Probe.exec_latency (Probe.now () -. t0);
    commit t e

  (* Speculative execution of a popped pending token: run the command
     through the undo hook, then log the undo under the queue lock.  If
     the confirmation raced us ([e_commit_wanted]), the speculation is
     already known clean — commit instead of logging. *)
  let run_spec t q tok =
    let e = tok.t_entry in
    Probe.dispatch_latency (Probe.now () -. e.e_enq_at);
    if e.e_runs > 0 then begin
      ignore (P.Atomic.fetch_and_add t.redos 1 : int);
      bump_max t.redo_depth (e.e_runs + 1);
      Probe.spec_redo ~depth:(e.e_runs + 1)
    end;
    e.e_runs <- e.e_runs + 1;
    let speculate =
      match t.speculate with Some f -> f | None -> assert false
    in
    let t0 = Probe.now () in
    let undo = speculate e.e_cmd in
    Probe.exec_latency (Probe.now () -. t0);
    ignore (P.Atomic.fetch_and_add t.spec_execs 1 : int);
    Probe.spec_exec ();
    P.Mutex.lock q.q_m;
    let committing = e.e_commit_wanted in
    if committing then e.e_commit_wanted <- false
    else begin
      log_prune q;
      q.q_log_back <- (e, undo) :: q.q_log_back;
      (* Published after the record is in place, so a confirmation that
         wins the 1 -> 3 claim always finds a complete log entry. *)
      P.Atomic.set e.e_claim 1
    end;
    q.q_busy <- false;
    P.Condition.broadcast q.q_cv;
    P.Mutex.unlock q.q_m;
    if committing then commit t e

  (* [i] identifies the simulated core, stable across respawns; [nth]
     counts this core's token fetches, which is what logical fault points
     (the checker's crash coordinates) address. *)
  let rec worker_loop t i nth () =
    let q = t.queues.(i - 1) in
    match q_next t q with
    | Closed -> Latch.count_down t.joined
    | Speculative tok ->
        under_fault t i (nth + 1) q tok (fun () -> run_spec t q tok)
    | Fetched tok ->
        under_fault t i (nth + 1) q tok (fun () ->
            match tok.t_entry.e_barrier with
            | None -> run_entry t tok.t_entry
            | Some b -> (
                match B.arrive b ~worker:i with
                | `Execute ->
                    run_entry t tok.t_entry;
                    B.complete b
                | `Done -> ()))

  (* Run [tok], this core's [nth] fetch, under the fault plan's verdict:
     a crash returns the token to the front of its queue and the worker
     leaves the pool (until its respawn, if scheduled); a stall sleeps
     before [run], a slowdown after it. *)
  and under_fault t i nth q tok run =
    match t.fault ~id:i ~nth with
    | Psmr_fault.Fault.Crash { respawn_after } -> (
        P.work Fault;
        q_push_front q tok;
        Probe.requeue ();
        ignore (P.Atomic.fetch_and_add t.crashed 1 : int);
        match respawn_after with
        | None -> Latch.count_down t.joined
        | Some d -> P.after d (worker_loop t i nth))
    | (Run | Stall _ | Slow _) as action ->
        (match action with
        | Stall d ->
            P.work Fault;
            P.sleep d
        | Run | Slow _ | Crash _ -> ());
        run ();
        (match action with
        | Slow d ->
            P.work Fault;
            P.sleep d
        | Run | Stall _ | Crash _ -> ());
        worker_loop t i nth ()

  (* ---------------------------------------------------------------- *)
  (* Life cycle.                                                       *)

  let start ?max_size ?classes ?(repair = true) ?speculate ?on_commit
      ?fault ~workers ~execute () =
    if workers <= 0 then invalid_arg "Dispatch.start: workers must be positive";
    let max_size =
      match max_size with
      | None -> Psmr_cos.Cos_intf.default_max_size
      | Some m ->
          if m <= 0 then invalid_arg "Dispatch.start: max_size must be positive";
          m
    in
    let fault =
      match fault with
      | Some f -> f
      | None -> fun ~id ~nth:_ -> Psmr_fault.Fault.worker ~id
    in
    let t =
      {
        map = Class_map.create ?classes ~workers ();
        queues =
          Array.init workers (fun i ->
              {
                q_worker = i + 1;
                q_m = P.Mutex.create ();
                q_cv = P.Condition.create ();
                q_front = [];
                q_back = [];
                q_pending = 0;
                q_closed = false;
                q_busy = false;
                q_gate = false;
                q_log_front = [];
                q_log_back = [];
              });
        window = P.Semaphore.create max_size;
        repair;
        execute;
        speculate;
        on_commit;
        fault;
        joined = Latch.create workers;
        submitted = P.Atomic.make 0;
        executed = P.Atomic.make 0;
        crashed = P.Atomic.make 0;
        dropped = P.Atomic.make 0;
        spec_execs = P.Atomic.make 0;
        redos = P.Atomic.make 0;
        redo_depth = P.Atomic.make 0;
        wmax = max_size;
        spec_out = 0;
        credit = 0;
        pos_ctr = 0;
        fifo_front = [];
        fifo_back = [];
        n_direct = 0;
        n_rendezvous = 0;
        n_repairs = 0;
        n_revoked = 0;
        n_undone = 0;
        live_barriers = [];
        live_count = 0;
      }
    in
    for i = 1 to workers do
      P.spawn ~name:(Printf.sprintf "worker-%d" i) (worker_loop t i 0)
    done;
    t

  let submitted t = P.Atomic.get t.submitted
  let executed t = P.Atomic.get t.executed
  let in_flight t = submitted t - executed t
  let crashed_workers t = P.Atomic.get t.crashed
  let dropped t = P.Atomic.get t.dropped
  let classes t = Class_map.classes t.map
  let direct_count t = t.n_direct
  let rendezvous_count t = t.n_rendezvous
  let repair_count t = t.n_repairs
  let revoked_count t = t.n_revoked
  let spec_exec_count t = P.Atomic.get t.spec_execs
  let rollback_count t = t.n_undone
  let redo_count t = P.Atomic.get t.redos
  let redo_depth_max t = P.Atomic.get t.redo_depth

  let drain ?(poll = 1e-4) t =
    while executed t < submitted t do
      P.sleep poll
    done

  (* Close every worker queue.  Unconfirmed speculations that already
     executed are rolled back — close discards unconfirmed speculation,
     and with execution-time optimism discarding means undoing — then
     counted dropped, like the still-queued pending tokens the workers
     drop on their way out. *)
  let close t =
    Array.iter
      (fun q ->
        P.Mutex.lock q.q_m;
        q.q_closed <- true;
        while q.q_busy do
          P.Condition.wait q.q_cv q.q_m
        done;
        let log = q.q_log_front @ List.rev q.q_log_back in
        List.iter
          (fun (en, undo) ->
            (* Records claimed by the confirm fast path stay in the log
               until a later push prunes them; their entries committed,
               so neither the undo nor the drop applies. *)
            if not (P.Atomic.get en.e_done) then begin
              undo ();
              drop t en
            end)
          (List.rev log);
        q.q_log_front <- [];
        q.q_log_back <- [];
        P.Condition.broadcast q.q_cv;
        P.Mutex.unlock q.q_m)
      t.queues

  let shutdown ?poll t =
    drain ?poll t;
    close t;
    Latch.wait t.joined

  (* ---------------------------------------------------------------- *)
  (* Diagnostics: ghost reads for the checker and the tests.  Like the
     COS [invariant], these take no locks and are exact only between
     scheduled operations (checker) or at quiescence (tests). *)

  let stalled_barriers t =
    List.rev
      (List.filter_map
         (fun e ->
           match e.e_barrier with
           | Some b
             when (not (B.completed b))
                  && (not (P.Atomic.get e.e_done))
                  && B.arrived b > 0
                  && B.arrived b < B.size b ->
               Some
                 (Printf.sprintf
                    "class-barrier stuck at %d/%d arrivals (designated w%d)"
                    (B.arrived b) (B.size b) (B.designated b))
           | _ -> None)
         t.live_barriers)

  let invariant ?(strict = false) t =
    let errs = ref [] in
    let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
    Array.iter
      (fun q ->
        let toks = q.q_front @ List.rev q.q_back in
        let pending =
          List.length (List.filter (fun tok -> tok.t_state = Pending) toks)
        in
        if pending <> q.q_pending then
          err "queue w%d: pending counter %d but %d pending tokens" q.q_worker
            q.q_pending pending;
        let seen_pending = ref false in
        List.iter
          (fun tok ->
            match tok.t_state with
            | Pending -> seen_pending := true
            | Confirmed ->
                if !seen_pending then
                  err "queue w%d: confirmed token behind a pending one"
                    q.q_worker
            | Revoked | Taken -> ())
          toks;
        (* Revoked tokens are dead weight: their entry's [e_pos] was
           reassigned at re-append and no longer describes this physical
           slot, so only live tokens must sit in position order. *)
        let rec sorted = function
          | a :: (b :: _ as rest) ->
              if a.t_entry.e_pos > b.t_entry.e_pos then
                err "queue w%d: positions out of order (%d before %d)"
                  q.q_worker a.t_entry.e_pos b.t_entry.e_pos;
              sorted rest
          | [] | [ _ ] -> ()
        in
        sorted (List.filter (fun tok -> tok.t_state <> Revoked) toks);
        if strict && toks <> [] then
          err "queue w%d: %d tokens left at quiescence" q.q_worker
            (List.length toks);
        if strict && (q.q_log_front <> [] || q.q_log_back <> []) then
          err "queue w%d: %d uncommitted speculations left at quiescence"
            q.q_worker
            (List.length q.q_log_front + List.length q.q_log_back))
      t.queues;
    if strict then begin
      let sub = submitted t and ex = executed t in
      if sub <> ex then err "submitted %d <> executed %d at quiescence" sub ex;
      List.iter (fun msg -> err "%s at quiescence" msg) (stalled_barriers t)
    end;
    List.rev !errs
end
