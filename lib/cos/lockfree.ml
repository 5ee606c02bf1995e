(** Lock-free COS — the paper's Algorithms 5–7: the shared nonblocking
    graph and semaphore blocking layer of {!Lf_graph} plus the paper's
    {e scan} insert.

    [lf_insert] (Algorithm 7, called sequentially by the scheduler) walks
    the whole delivery list, helping to physically unlink nodes already
    marked [Rmd] and evaluating the conflict relation against every live
    node to collect the new node's dependency edges — O(n·c) per insert —
    then appends the node with one atomic pointer store. *)

open Psmr_platform

module Make (P : Platform_intf.S) (C : Cos_intf.COMMAND) = struct
  include Lf_graph.Make (P) (C)

  type t = unit graph

  let name = "lock-free"
  let create = create ~who:"Lockfree" ~ext:ignore

  (* Algorithm 7, lfInsert.  Returns the number of ready promotions (0 or 1)
     for the blocking layer to signal. *)
  let lf_insert t c ~delivered_at =
    let nn = fresh_node c ~delivered_at in
    let visits = ref 0 in
    let last_live =
      help_walk t visits (fun n' ->
          P.work Conflict_check;
          if C.conflict n'.cmd c then begin
            P.Atomic.set n'.dep_me (nn :: P.Atomic.get n'.dep_me);
            P.Atomic.set nn.dep_on (n' :: P.Atomic.get nn.dep_on)
          end)
    in
    append t last_live nn;
    (* Drop the self-sentinel now that every edge is in place. *)
    P.Atomic.set nn.dep_on
      (List.filter (fun d -> d != nn) (P.Atomic.get nn.dep_on));
    open_node nn ~visits:!visits

  let insert t c = insert_with lf_insert t c
  let insert_batch t cs = Array.iter (insert t) cs
  let invariant ?strict t = invariant ?strict t
end
