(** Key-indexed COS: the lock-free graph of {!Lf_graph} and the blocking
    layer of {!Blocking} (shared with {!Lockfree}) under a different
    insert — the
    O(n·c) scan is replaced by a private key → last-writer/readers hash
    index over the commands' declared footprints, so dependency edges are
    found in O(|footprint|) amortized, independent of graph population.
    Dead index entries and removed nodes are reclaimed by a sweep amortized
    into insert; [insert_batch] pays one semaphore round per delivered
    batch. *)

open Psmr_platform

module Make (P : Platform_intf.S) (C : Cos_intf.KEYED_COMMAND) :
  Cos_intf.S with type cmd = C.t
