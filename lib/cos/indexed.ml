(** Key-indexed COS — the lock-free algorithm with an O(|footprint|)
    insert.

    The concurrent side is [Lockfree]'s, shared through {!Lf_graph}: the
    same node states ([Ins -> Wtg -> Rdy -> Exe -> Rmd]), the same
    nonblocking [get]/[remove] over atomics, the same two-semaphore
    blocking layer.  What changes is the single-threaded insert path.
    Where the scan-based insert walks the whole delivery list evaluating
    the conflict relation against every live node — O(n·c) per insert,
    which is what saturates the insert thread in the paper's Fig. 2 — the
    indexed insert keeps a private hash index

    {v  key -> { last writer; readers since that writer }  v}

    over the commands' declared footprints ({!Cos_intf.KEYED_COMMAND}) and
    finds the dependency edges by key lookup:

    - a {e writer} of [k] depends on the last live writer of [k] and on
      every live reader since; it then becomes the entry's writer and
      clears the reader list;
    - a {e reader} of [k] depends on the last live writer of [k] only and
      appends itself to the entry's readers (no scan — O(1), so read-mostly
      workloads pay nothing per older reader).

    Dependencies further back are covered transitively (the previous writer
    already depends on the writer before it, and on the readers before it),
    which preserves the COS specification: a command is released only when
    every older conflicting command has left the structure.

    Index entries go stale as commands are removed (removal is concurrent
    and never touches the index).  Staleness is benign — a dependency edge
    to a removed node satisfies [test_ready] immediately, and dead readers
    are filtered when a writer scans them — but unbounded reader lists and
    an unboundedly long physical list would creep back to O(n).  Both are
    reclaimed by a {e sweep} amortized into insert: after every
    [max_size/2] removals the insert thread walks the list once, physically
    unlinking removed nodes with the same helped removal as [Lockfree]'s
    insert ({!Lf_graph.Make.help_walk}), and prunes dead index entries.
    Each insert therefore pays O(|footprint|) amortized, independent of
    graph population.

    [insert_batch] additionally amortizes the blocking layer: one
    multi-token [space] acquisition and one [ready] release cover a whole
    delivered batch (chunked to [max_size] to keep the semaphore
    satisfiable). *)

open Psmr_platform
module Probe = Psmr_obs.Probe

module Make (P : Platform_intf.S) (C : Cos_intf.KEYED_COMMAND) = struct
  include Lf_graph.Make (P) (C)

  (* Insert-thread-private index entry for one key. *)
  type entry = {
    mutable writer : node option;  (* last writer of the key, if any *)
    mutable readers : node list;  (* readers since that writer *)
  }

  type keyed = {
    max_size : int;
    (* Everything below is touched only by the (single) insert thread. *)
    index : (int, entry) Hashtbl.t;
    mutable tail : node option;  (* last physically linked node *)
    (* Removals since the last sweep; workers increment it in [remove],
       the insert thread reads it and subtracts what it saw. *)
    removed : int P.Atomic.t;
    sweep_every : int;
  }

  type t = keyed graph

  let name = "indexed"

  let create =
    create ~who:"Indexed" ~ext:(fun max_size ->
        {
          max_size;
          index = Hashtbl.create 64;
          tail = None;
          removed = P.Atomic.make 0;
          sweep_every = max 16 (max_size / 2);
        })

  let live n = P.Atomic.get n.st <> Rmd

  (* Amortized reclamation: one full walk unlinking removed nodes, then one
     pass over the index dropping dead writers/readers and empty entries.
     Runs on the insert thread, so plain reasoning applies to the topology
     and the hashtable. *)
  let sweep t visits =
    let x = t.ext in
    let seen = P.Atomic.get x.removed in
    x.tail <- help_walk t visits ignore;
    let dead_keys = ref [] in
    Hashtbl.iter
      (fun key e ->
        P.work Hash;
        (match e.writer with
        | Some w when not (live w) -> e.writer <- None
        | Some _ | None -> ());
        e.readers <- List.filter live e.readers;
        if e.writer = None && e.readers = [] then dead_keys := key :: !dead_keys)
      x.index;
    List.iter (Hashtbl.remove x.index) !dead_keys;
    ignore (P.Atomic.fetch_and_add x.removed (-seen) : int)

  (* The indexed insert.  Returns the number of ready promotions (0 or 1)
     for the blocking layer to signal, as [Lockfree.lf_insert] does. *)
  let keyed_insert t c ~delivered_at =
    let x = t.ext in
    let visits = ref 0 in
    if P.Atomic.get x.removed >= x.sweep_every then sweep t visits;
    let nn = fresh_node c ~delivered_at in
    let deps = ref [] in
    let depend_on older =
      (* [older] may turn [Rmd] between this test and the edge store; that
         is harmless — [test_ready] accepts removed dependencies, and the
         final promotion check below runs after every edge is in place. *)
      if older != nn && live older && not (List.memq older !deps) then begin
        P.Atomic.set older.dep_me (nn :: P.Atomic.get older.dep_me);
        deps := older :: !deps
      end
    in
    List.iter
      (fun (key, is_write) ->
        P.work Hash;
        let e =
          match Hashtbl.find_opt x.index key with
          | Some e -> e
          | None ->
              let e = { writer = None; readers = [] } in
              Hashtbl.add x.index key e;
              e
        in
        (match e.writer with
        | Some w -> depend_on w
        | None -> ());
        if is_write then begin
          List.iter
            (fun r ->
              P.work Visit;
              incr visits;
              depend_on r)
            e.readers;
          e.writer <- Some nn;
          e.readers <- []
        end
        else e.readers <- nn :: e.readers)
      (C.footprint c);
    (* The real dependency list replaces the self-sentinel. *)
    P.Atomic.set nn.dep_on !deps;
    append t x.tail nn;
    x.tail <- Some nn;
    open_node nn ~visits:!visits

  let insert t c = insert_with keyed_insert t c

  (* One semaphore round per chunk instead of per command; chunks are capped
     at [max_size] so the multi-token acquisition stays satisfiable. *)
  let insert_batch t cs =
    let delivered_at = Probe.now () in
    let len = Array.length cs in
    let rec chunks off =
      if off < len then begin
        let n = min t.ext.max_size (len - off) in
        P.Semaphore.acquire ~n t.space;
        if not (P.Atomic.get t.closed) then begin
          let promoted = ref 0 in
          for i = off to off + n - 1 do
            promoted := !promoted + keyed_insert t cs.(i) ~delivered_at
          done;
          if !promoted > 0 then P.Semaphore.release ~n:!promoted t.ready
        end;
        chunks (off + n)
      end
    in
    chunks 0

  (* [Lf_graph.remove] plus the removed-since-sweep count, bumped between
     the size decrement and the semaphore releases. *)
  let remove t n =
    let promoted, visits = lf_remove n in
    ignore (P.Atomic.fetch_and_add t.size (-1) : int);
    ignore (P.Atomic.fetch_and_add t.ext.removed 1 : int);
    if promoted > 0 then P.Semaphore.release ~n:promoted t.ready;
    P.Semaphore.release t.space;
    Probe.remove_done ~visits

  (* The shared list checks plus index closure.  The index is
     insert-thread-private, but on the check platform a decision point can
     fall mid-insert: a node may already sit in the index while still [Ins]
     and not yet linked, so linkage checks skip [Ins] nodes. *)
  let invariant ?strict t =
    invariant ?strict t ~extra:(fun ~strict ~err nodes ->
        if P.Atomic.get t.ext.removed < 0 then
          err "negative removed-since-sweep count";
        if strict && List.length nodes <= 4096 then begin
          (* Index closure: every live, fully inserted node the index can
             hand out as a dependency must still be physically linked. *)
          let check_indexed what n =
            match P.Atomic.get n.st with
            | Ins | Rmd -> ()
            | Wtg | Rdy | Exe ->
                if not (List.memq n nodes) then
                  err ("index " ^ what ^ " points to a live but unlinked node")
          in
          Hashtbl.iter
            (fun _key e ->
              Option.iter (check_indexed "writer") e.writer;
              List.iter (check_indexed "reader") e.readers)
            t.ext.index
        end)
end
