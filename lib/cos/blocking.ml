(** The blocking layer shared by every semaphore-based COS — the paper's
    §6 split of a scalable COS into a blocking layer over a graph layer.

    Two counting semaphores carry the whole protocol: [space] bounds the
    graph (one token per free slot) and [ready] counts commands that are
    free to execute and not yet reserved.  The graph layer underneath
    ({!Fine}'s lock-coupled list, {!Striped}'s segments, {!Lf_graph}'s
    nonblocking list, and the checker's planted-bug variants) only links,
    finds and unlinks nodes, and reports how many commands each insert or
    remove made ready; this module turns those counts into [ready] tokens.
    [Coarse] is a monitor with condition variables (Algorithm 2) and does
    not use it.

    Each operation takes the graph's step as a function, so a COS is its
    graph plus one line per operation:

    - [insert]: take [delivered_at], acquire a [space] slot, skip when
      closed, run the graph insert, release the [ready] tokens it returns;
    - [get]: acquire a [ready] token, then scan with the graph's [take]
      until it reserves a command — a [None] means the command behind our
      token was freed behind the scan position, so rescan — or the
      structure is closed and empty;
    - [remove]: after the graph's walk, decrement [size], release the
      freed [ready] tokens and the [space] slot;
    - [requeue]: after the graph demotes the node, return the dead worker's
      [ready] token. *)

open Psmr_platform
module Probe = Psmr_obs.Probe

module Make (P : Platform_intf.S) = struct
  type 'g t = {
    space : P.Semaphore.t;
    ready : P.Semaphore.t;
    size : int P.Atomic.t;  (* commands inserted and not yet removed *)
    closed : bool P.Atomic.t;
    close_tokens : int;
    who : string;  (* the COS's module name, for argument errors *)
    graph : 'g;
  }

  (* [graph max_size] runs before the semaphores are made and the function
     it returns after them, so a graph fixes where its platform objects
     fall in the creation order: the model checker names objects by that
     order, and replay traces print those names. *)
  let create ~who ~graph ?(max_size = Cos_intf.default_max_size)
      ?(worker_bound = 1024) () =
    if max_size <= 0 then invalid_arg (who ^ ".create: max_size must be positive");
    if worker_bound < 0 then
      invalid_arg (who ^ ".create: worker_bound must be non-negative");
    let graph = graph max_size in
    let closed = P.Atomic.make false in
    let size = P.Atomic.make 0 in
    let ready = P.Semaphore.create 0 in
    let space = P.Semaphore.create max_size in
    {
      space;
      ready;
      size;
      closed;
      (* [close] floods both semaphores so that everything blocked — up to
         [worker_bound] getters on [ready], plus the inserter waiting on up
         to [max_size] [space] tokens at once — wakes and observes
         [closed].  A fixed 1024 used to deadlock close for
         [max_size > 1024]. *)
      close_tokens = max_size + worker_bound;
      who;
      graph = graph ();
    }

  (* [graph_insert t c ~delivered_at] links [c] into the graph and returns
     the number of commands it made ready (0 or 1). *)
  let insert graph_insert t c =
    let delivered_at = Probe.now () in
    P.Semaphore.acquire t.space;
    if not (P.Atomic.get t.closed) then begin
      let freed = graph_insert t c ~delivered_at in
      if freed > 0 then P.Semaphore.release ~n:freed t.ready
    end

  let insert_batch graph_insert t cs = Array.iter (insert graph_insert t) cs

  (* [take t visits] is one scan for the oldest free command; it reserves
     and returns it, adding every node it visits to [visits]. *)
  let get take t =
    P.Semaphore.acquire t.ready;
    let visits = ref 0 in
    let rec attempt () =
      match take t visits with
      | Some _ as reserved ->
          Probe.get_done ~visits:!visits;
          reserved
      | None ->
          if P.Atomic.get t.closed && P.Atomic.get t.size = 0 then begin
            Probe.get_done ~visits:!visits;
            None
          end
          else begin
            (* Our token's command was freed behind the scan position and
               taken by a faster worker; its token is still in flight for
               us.  Rescan. *)
            Probe.rescan ();
            P.yield ();
            attempt ()
          end
    in
    attempt ()

  (* [graph_remove t h] takes [h] out of the graph and returns the number
     of commands that became ready and the nodes visited. *)
  let remove graph_remove t h =
    let freed, visits = graph_remove t h in
    ignore (P.Atomic.fetch_and_add t.size (-1) : int);
    if freed > 0 then P.Semaphore.release ~n:freed t.ready;
    P.Semaphore.release t.space;
    Probe.remove_done ~visits

  (* [demote t h] returns the reserved [h] to the free state (or raises
     [Invalid_argument]); one [ready] token then replaces the one the dead
     worker's [get] consumed. *)
  let requeue demote t h =
    demote t h;
    Probe.requeue ();
    P.Semaphore.release t.ready

  let close t =
    if not (P.Atomic.exchange t.closed true) then begin
      Probe.close_tokens (2 * t.close_tokens);
      P.Semaphore.release ~n:t.close_tokens t.ready;
      P.Semaphore.release ~n:t.close_tokens t.space
    end

  let pending t = P.Atomic.get t.size
end
