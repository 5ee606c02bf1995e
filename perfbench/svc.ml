(** The benchmark's own commands and services.

    Every command the deployment orders is wrapped as [{ id; op; cost }]:
    a benchmark-wide command id (so each execution at each replica can be
    accounted for) and the simulated CPU charge of executing it.  The
    wrapped service charges that cost to the replica's simulated CPU bank,
    applies the operation to the real service state, and reports each
    execution to the benchmark through [on_exec] — the per-replica
    exactly-once log and the execution spans are built from those reports,
    from outside the library. *)

module Cpu = Psmr_sim.Sim_sync.Cpu

(** An operation family: the state it runs on and what one op costs. *)
module type OPS = sig
  type state
  type op
  type resp

  val create : unit -> state
  val apply : state -> op -> resp

  val skipped : resp
  (** The reply a replica sends for an execution it skipped (planted
      defect only). *)

  val snapshot : state -> string
  val restore : state -> string -> unit
  val footprint : op -> (int * bool) list

  val cost : op -> float
  (** Simulated CPU seconds one execution takes. *)

  val pp_op : Format.formatter -> op -> unit
  val pp_resp : Format.formatter -> resp -> unit
end

(** The paper's readers-writers linked list (§7.2), light cost: membership
    in O(1) wall time, the scan charged in virtual time. *)
module List_ops = struct
  type state = Psmr_harness.Costed_list.t
  type op = Psmr_app.Linked_list.command
  type resp = bool

  let cost_class = Psmr_workload.Workload.Light

  let create () =
    Psmr_harness.Costed_list.create
      ~initial_size:(Psmr_workload.Workload.list_size cost_class)
      ~charge:(fun ~is_write:_ -> ())

  let apply = Psmr_harness.Costed_list.execute
  let skipped = false
  let snapshot = Psmr_harness.Costed_list.snapshot
  let restore = Psmr_harness.Costed_list.restore
  let footprint = Psmr_harness.Costed_list.footprint

  let cost op =
    Psmr_harness.Model.exec_cost cost_class
      ~is_write:(Psmr_app.Linked_list.is_write op)

  let pp_op = Psmr_app.Linked_list.pp_command
  let pp_resp = Format.pp_print_bool
end

(** The key-value store with per-key conflicts.  A point op costs what a
    light list op costs and a scan pays per slot, as in the repo's
    open-loop harness. *)
module Kv_ops = struct
  type state = Psmr_app.Kv_store.t
  type op = Psmr_app.Kv_store.command
  type resp = Psmr_app.Kv_store.response

  let records = Psmr_traffic.Scenario.default_records
  let create () = Psmr_app.Kv_store.create ~capacity:records
  let apply = Psmr_app.Kv_store.execute
  let skipped = Psmr_app.Kv_store.Stored
  let snapshot = Psmr_app.Kv_store.snapshot
  let restore = Psmr_app.Kv_store.restore
  let footprint = Psmr_app.Kv_store.footprint

  let point ~is_write =
    Psmr_harness.Model.exec_cost Psmr_workload.Workload.Light ~is_write

  let cost = function
    | Psmr_app.Kv_store.Scan (_, len) ->
        float_of_int len *. point ~is_write:false
    | op -> point ~is_write:(Psmr_app.Kv_store.is_write op)

  let pp_op = Psmr_app.Kv_store.pp_command
  let pp_resp = Psmr_app.Kv_store.pp_response
end

module Make (O : OPS) = struct
  type command = { id : int; op : O.op; cost : float }
  type response = O.resp

  type hooks = {
    now : unit -> float;
    on_exec :
      replica:int -> command -> start:float -> stop:float -> O.resp -> unit;
    skip : replica:int -> id:int -> bool;
        (** planted defect: the replica replies without executing *)
  }

  type t = { st : O.state; replica : int; cpu : Cpu.t; hooks : hooks }

  let command id op = { id; op; cost = O.cost op }

  let create ~cores ~hooks replica =
    { st = O.create (); replica; cpu = Cpu.create ~cores; hooks }

  let execute t c =
    let start = t.hooks.now () in
    Cpu.use t.cpu c.cost;
    if t.hooks.skip ~replica:t.replica ~id:c.id then O.skipped
    else begin
      let r = O.apply t.st c.op in
      t.hooks.on_exec ~replica:t.replica c ~start ~stop:(t.hooks.now ()) r;
      r
    end

  let snapshot t = O.snapshot t.st
  let restore t s = O.restore t.st s
  let footprint c = O.footprint c.op
  let conflict = Psmr_app.Service_intf.conflict_of_footprint footprint
  let pp_command ppf c = Format.fprintf ppf "#%d:%a" c.id O.pp_op c.op
  let pp_response = O.pp_resp
end
