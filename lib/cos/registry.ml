(** Value-level dispatch over the COS implementations, for the benchmark
    harness and the command line. *)

open Psmr_platform

type impl =
  | Coarse
  | Fine
  | Lockfree
  | Striped of int  (** segment capacity (nodes per lock) *)
  | Indexed

let paper = [ Coarse; Fine; Lockfree ]
(** The paper's three algorithms (without the two extensions). *)

let all = [ Coarse; Fine; Lockfree; Striped 16; Indexed ]
(** Every implementation the registry can dispatch to: the paper's three,
    the granular-locking extension (at its default capacity) and the
    key-indexed extension. *)

let to_string = function
  | Coarse -> "coarse-grained"
  | Fine -> "fine-grained"
  | Lockfree -> "lock-free"
  | Striped k -> Printf.sprintf "striped-%d" k
  | Indexed -> "indexed"

let of_string s =
  match String.lowercase_ascii s with
  | "coarse" | "coarse-grained" -> Some Coarse
  | "fine" | "fine-grained" -> Some Fine
  | "lockfree" | "lock-free" -> Some Lockfree
  | "striped" -> Some (Striped 16)
  | "indexed" -> Some Indexed
  | s when String.length s > 8 && String.sub s 0 8 = "striped-" -> (
      match int_of_string_opt (String.sub s 8 (String.length s - 8)) with
      | Some k when k > 0 -> Some (Striped k)
      | Some _ | None -> None)
  | _ -> None

let instantiate (type c) impl (module P : Platform_intf.S)
    (module C : Cos_intf.KEYED_COMMAND with type t = c) :
    (module Cos_intf.S with type cmd = c) =
  match impl with
  | Coarse -> (module Coarse.Make (P) (C))
  | Fine -> (module Fine.Make (P) (C))
  | Lockfree -> (module Lockfree.Make (P) (C))
  | Striped k ->
      let module Size = struct
        let segment_capacity = k
      end in
      (module Striped.Make_sized (Size) (P) (C))
  | Indexed -> (module Indexed.Make (P) (C))
