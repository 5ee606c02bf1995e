(** Value-level dispatch over the COS implementations, used by the benchmark
    harness, the CLI and the replica layer to select an algorithm at
    runtime. *)

open Psmr_platform

type impl =
  | Coarse  (** Algorithm 2: one monitor for the whole graph *)
  | Fine  (** Algorithms 3-4: hand-over-hand per-node locks *)
  | Lockfree  (** Algorithms 5-7: nonblocking graph + semaphore layer *)
  | Striped of int  (** granular locks: segment capacity per lock *)
  | Indexed  (** lock-free graph with key-indexed O(|footprint|) insert *)

val paper : impl list
(** The paper's three algorithms, in presentation order — what the
    reproduced figures compare. *)

val all : impl list
(** Every dispatchable implementation: {!paper} plus the striped extension
    (default capacity) and the key-indexed extension. *)

val to_string : impl -> string

val of_string : string -> impl option
(** Accepts "coarse[-grained]", "fine[-grained]", "lockfree"/"lock-free",
    "striped", "striped-<k>" and "indexed", in any letter case.
    Round-trips with {!to_string}. *)

val instantiate :
  impl ->
  (module Platform_intf.S) ->
  (module Cos_intf.KEYED_COMMAND with type t = 'c) ->
  (module Cos_intf.S with type cmd = 'c)
(** The named implementation for the given platform and keyed command
    type.  Only {!Indexed} reads the key footprints; the others decide
    conflicts through [conflict]. *)
