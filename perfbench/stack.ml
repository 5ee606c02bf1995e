(** One load level through the full replicated deployment.

    [Psmr_replica.Replica.Make] over [Psmr_sim.Sim_platform]: simulated
    clients (DES coroutines) → [Psmr_net] → [Abcast] or [Partition] +
    [Pmerge] → COS scheduler → the benchmark's wrapped service → reply.
    Everything here uses public functions of the library only.

    Phases: set-up ({!prepare}: engine, deployment, generated inputs),
    warmup, the measurement window, and a drain grace that ends at the
    horizon.  After the horizon the engine keeps running until every
    request has completed and every live replica has executed the same
    commands, so the correctness check compares quiescent replicas.  The
    engine is advanced in fixed virtual-time chunks; between chunks, with
    no simulated process running, the benchmark samples queue depths. *)

module Engine = Psmr_sim.Engine
module Model = Psmr_harness.Model
module Replica = Psmr_replica.Replica

type load =
  | Closed of { clients : int }  (** each client waits for its reply *)
  | Open of { kops : float }
      (** Poisson arrivals of requests, offered commands/s in thousands *)

type config = {
  mode : Replica.mode;
  replicas : int;
  cmds : int;  (** commands per client request *)
  pool : int;  (** open loop: client endpoints, one call outstanding each *)
  warmup : float;
  window : float;
  grace : float;
  crash_at : float option;  (** virtual time of [crash_replica 0] *)
  plant_skip : bool;  (** the last replica skips one execution *)
}

(** The replica whose executor, queues and merge the per-layer metrics
    read: a follower at the start, alive in every workload. *)
let measured = 1

(* Sampling between engine chunks reads mailbox lengths, which take the
   mailbox mutex.  No process runs between chunks, so the read is
   consistent without it; this wrapper makes the mutex a no-op while the
   benchmark samples, and a plain pass-through otherwise (zero virtual
   cost either way). *)
let sampling = ref false

module Quiet (P : Psmr_platform.Platform_intf.S) : Psmr_platform.Platform_intf.S =
struct
  include P

  module Mutex = struct
    type t = P.Mutex.t

    let create = P.Mutex.create
    let lock m = if not !sampling then P.Mutex.lock m
    let unlock m = if not !sampling then P.Mutex.unlock m
  end

  module Condition = P.Condition
end

let chunk = 0.5e-3
let drain_limit = 3.0
let closed_prefill_kops = 400.0

type sample = {
  s_driver : int;  (** requests queued in the driver for an endpoint *)
  s_leader : int;  (** leader's network input backlog *)
  s_sched : int;  (** measured replica: delivered − executed *)
  s_merge : int;  (** measured replica: delivered-but-unmerged entries *)
}

(** Per-request record.  [due] is when the request was due (closed loop:
    when the client sent it), [start] when an endpoint sent it, [finish]
    when the client had every reply ([nan] while outstanding). *)
type request = {
  rid : int;
  ids : int array;  (** its commands' ids *)
  due : float;
  mutable start : float;
  mutable finish : float;
  mutable endpoint : int;
}

type exec_span = { e_start : float; e_stop : float; e_replica : int }

type result = {
  requests : request array;  (** every request issued, in issue order *)
  window_start : float;
  window_end : float;
  horizon : float;
  samples : sample array;  (** one per chunk inside the window *)
  chunk_wall : float array;  (** wall seconds per chunk inside the window *)
  chunk_events : int array;
  wall_s : float;  (** wall seconds to simulate up to the horizon *)
  events : int;  (** engine events up to the horizon *)
  minor_words : float;
  retries : int;
  views : int;
  peer_msgs : int;  (** replica↔replica messages up to the horizon *)
  client_msgs : int;  (** client↔replica messages up to the horizon *)
  executed : int;  (** executions at the measured replica by the horizon *)
  crosses : int;
  holes : int;
  first_exec : (int, exec_span) Hashtbl.t;
      (** command id → its earliest-finishing execution *)
  exec_ms : float array;  (** measured replica, executions started in window *)
  busy_s : float;  (** CPU seconds charged at the measured replica in window *)
  registry : Psmr_obs.Metrics.t option;
  net_spans : (float * int * int) array;  (** traced: send time, src, dst *)
  exec_spans : (int * exec_span) array;  (** traced: every execution, by id *)
  check : (unit, string) Stdlib.result;
}

module Make (O : Svc.OPS) = struct
  module S = Svc.Make (O)

  type prepared = { go : unit -> result }

  let prepare ~(cfg : config) ~load
      ~(make_gen : unit -> Psmr_util.Rng.t -> O.op) ~seed ~traced () =
    let gen = make_gen () in
    let engine = Engine.create () in
    let (module SP) = Psmr_sim.Sim_platform.make engine Model.sim_costs in
    let module P = Quiet (SP) in
    let module SMR = Replica.Make (P) (S) in
    let n = cfg.replicas in
    let window_start = cfg.warmup in
    let window_end = cfg.warmup +. cfg.window in
    let horizon = window_end +. cfg.grace in
    let now () = Engine.now engine in
    (* Per-replica exactly-once log: executions and responses per id. *)
    let counts = Array.init n (fun _ -> Hashtbl.create 4096) in
    let resps = Array.init n (fun _ -> Hashtbl.create 4096) in
    let first_exec = Hashtbl.create 4096 in
    let exec_ms = Psmr_util.Vec.create () in
    let exec_spans = Psmr_util.Vec.create () in
    let busy = ref 0.0 in
    let skip_id = ref (-1) in
    let on_exec ~replica (c : S.command) ~start ~stop r =
      let k = Option.value (Hashtbl.find_opt counts.(replica) c.id) ~default:0 in
      Hashtbl.replace counts.(replica) c.id (k + 1);
      if k = 0 then Hashtbl.replace resps.(replica) c.id r;
      let span = { e_start = start; e_stop = stop; e_replica = replica } in
      if not (Hashtbl.mem first_exec c.id) then Hashtbl.replace first_exec c.id span;
      if traced then Psmr_util.Vec.push exec_spans (c.id, span);
      if replica = measured && start >= window_start && start < window_end
      then begin
        Psmr_util.Vec.push exec_ms ((stop -. start) *. 1e3);
        busy := !busy +. c.cost
      end
    in
    (* The planted defect skips the first command the last replica
       executes inside the window. *)
    let skip ~replica ~id =
      cfg.plant_skip && replica = n - 1
      && begin
           if !skip_id < 0 && now () >= window_start then skip_id := id;
           !skip_id = id
         end
    in
    let hooks = { S.now; on_exec; skip } in
    let services = Array.make n None in
    let make_service i =
      let s = S.create ~cores:Model.cores ~hooks i in
      services.(i) <- Some s;
      s
    in
    let peer = ref 0 and client_msgs = ref 0 in
    let net_spans = Psmr_util.Vec.create () in
    let latency ~src ~dst =
      if src <> dst then begin
        if src < n && dst < n then incr peer else incr client_msgs;
        if traced then Psmr_util.Vec.push net_spans (now (), src, dst)
      end;
      Model.lan_latency
    in
    let clients = match load with Closed { clients } -> clients | Open _ -> cfg.pool in
    let d =
      SMR.Deployment.create
        {
          (SMR.Deployment.default_config ~make_service ()) with
          replicas = n;
          clients;
          mode = cfg.mode;
          abcast = Model.smr_abcast;
          tick_interval = Model.smr_tick_interval;
          client_timeout = Model.smr_client_timeout;
          latency;
        }
    in
    let handles = Array.init clients (fun i -> SMR.Deployment.client d i) in
    let requests = Psmr_util.Vec.create () in
    let replies = Psmr_util.Vec.create () in
    let new_request ~due cmds =
      let rid = Psmr_util.Vec.length requests in
      let ids = Array.map (fun (c : S.command) -> c.id) cmds in
      let r = { rid; ids; due; start = nan; finish = nan; endpoint = -1 } in
      Psmr_util.Vec.push requests r;
      Psmr_util.Vec.push replies [||];
      r
    in
    let next_id = ref 0 in
    let make_cmds rng =
      Array.init cfg.cmds (fun _ ->
          let id = !next_id in
          incr next_id;
          S.command id (gen rng))
    in
    let serve i (r : request) cmds =
      r.start <- now ();
      r.endpoint <- i;
      match SMR.call_batch handles.(i) cmds with
      | None -> ()
      | Some rs ->
          r.finish <- now ();
          Psmr_util.Vec.set replies r.rid rs
    in
    let master = Psmr_util.Rng.create ~seed in
    let driver_queue = Queue.create () in
    let idle = Queue.create () in
    let pending = ref 0 in
    (match load with
    | Closed { clients } ->
        (* Each client draws from its own stream.  Set-up generates every
           client's requests for up to [closed_prefill_kops] over warmup
           and window, above what the closed loop reaches; a client that
           runs out draws on from the same stream during the run. *)
        let rngs = Array.init clients (fun _ -> Psmr_util.Rng.split master) in
        let prefill =
          int_of_float
            (Float.ceil
               (closed_prefill_kops *. 1e3 *. window_end
               /. float_of_int (clients * cfg.cmds)))
        in
        let streams =
          Array.map
            (fun rng ->
              let q = Queue.create () in
              for _ = 1 to prefill do
                Queue.push (make_cmds rng) q
              done;
              q)
            rngs
        in
        let next_cmds ci =
          match Queue.take_opt streams.(ci) with
          | Some cmds -> cmds
          | None -> make_cmds rngs.(ci)
        in
        Engine.spawn engine (fun () ->
            SMR.Deployment.start d;
            for ci = 0 to clients - 1 do
              SP.spawn (fun () ->
                  let rec loop () =
                    if now () < window_end then begin
                      let cmds = next_cmds ci in
                      let r = new_request ~due:(now ()) cmds in
                      incr pending;
                      serve ci r cmds;
                      decr pending;
                      loop ()
                    end
                  in
                  loop ())
            done)
    | Open { kops } ->
        (* The whole arrival schedule and every command are generated
           here, before the run: the deployment receives only them.
           Arrivals are Poisson with the count fixed per phase (uniform
           order statistics), so warmup and window each carry exactly
           their offered load and the window's count does not vary with
           the seed. *)
        let rate = kops *. 1e3 /. float_of_int cfg.cmds in
        let times_rng = Psmr_util.Rng.split master in
        let phase lo hi =
          let count = int_of_float (Float.round (rate *. (hi -. lo))) in
          Array.init count (fun _ -> lo +. Psmr_util.Rng.float times_rng (hi -. lo))
        in
        let times = Array.append (phase 0.0 window_start) (phase window_start window_end) in
        Array.sort Float.compare times;
        let cmd_rng = Psmr_util.Rng.split master in
        let arrivals = Array.map (fun t -> (t, make_cmds cmd_rng)) times in
        let run_one i (r, cmds) =
          serve i r cmds;
          decr pending
        in
        let endpoint i () =
          let rec loop () =
            match Queue.take_opt driver_queue with
            | Some job ->
                run_one i job;
                loop ()
            | None ->
                let job = ref None in
                Engine.suspend (fun resume ->
                    Queue.push (fun j -> job := Some j; resume ()) idle);
                run_one i (Option.get !job);
                loop ()
          in
          loop ()
        in
        Engine.spawn engine (fun () ->
            SMR.Deployment.start d;
            for i = 0 to clients - 1 do
              SP.spawn (endpoint i)
            done;
            SP.spawn (fun () ->
                Array.iter
                  (fun (t, cmds) ->
                    Engine.delay (t -. now ());
                    let job = (new_request ~due:t cmds, cmds) in
                    incr pending;
                    match Queue.take_opt idle with
                    | Some give -> give job
                    | None -> Queue.push job driver_queue)
                  arrivals)));
    Option.iter
      (fun at ->
        Engine.spawn engine ~delay:at (fun () -> SMR.Deployment.crash_replica d 0))
      cfg.crash_at;
    let crashed i = match cfg.crash_at with Some at -> i = 0 && now () >= at | None -> false in
    let leader () =
      match cfg.mode with
      | Partitioned _ -> SMR.Deployment.replica_partition_leader d measured ~part:0
      | _ -> SMR.Deployment.replica_view d measured mod n
    in
    let sample () =
      sampling := true;
      let s =
        {
          s_driver = Queue.length driver_queue;
          s_leader = SMR.Net.backlog (SMR.Deployment.network d) (leader ());
          s_sched =
            SMR.Deployment.replica_delivered d measured
            - SMR.Deployment.replica_executed d measured;
          s_merge = SMR.Deployment.replica_merge_pending d measured;
        }
      in
      sampling := false;
      s
    in
    let go () =
      let registry =
        if traced then
          Some
            (Psmr_obs.Metrics.make ~now
               ~track:(fun () -> Engine.running_tag engine)
               ~trace:(Psmr_obs.Trace.create ~limit:200_000 ())
               ())
        else None
      in
      Option.iter Psmr_obs.Metrics.enable registry;
      let samples = Psmr_util.Vec.create () in
      let chunk_wall = Psmr_util.Vec.create () in
      let chunk_events = Psmr_util.Vec.create () in
      let minor0 = Gc.minor_words () in
      let wall0 = Unix.gettimeofday () in
      let steps = int_of_float (Float.ceil (horizon /. chunk)) in
      for k = 1 to steps do
        let t = Float.min horizon (float_of_int k *. chunk) in
        let w = Unix.gettimeofday () and e = Engine.events_executed engine in
        Engine.run ~until:t engine;
        if t > window_start && t <= window_end then begin
          Psmr_util.Vec.push chunk_wall (Unix.gettimeofday () -. w);
          Psmr_util.Vec.push chunk_events (Engine.events_executed engine - e);
          Psmr_util.Vec.push samples (sample ())
        end
      done;
      let wall_s = Unix.gettimeofday () -. wall0 in
      let minor_words = Gc.minor_words () -. minor0 in
      Psmr_obs.Metrics.disable ();
      let events = Engine.events_executed engine in
      let peer_msgs = !peer and client_msgs_h = !client_msgs in
      let executed = SMR.Deployment.replica_executed d measured in
      let crosses = SMR.Deployment.replica_crosses d measured in
      let holes = SMR.Deployment.replica_holes d measured in
      let live = List.filter (fun i -> not (crashed i)) (List.init n Fun.id) in
      let views =
        List.fold_left (fun a i -> max a (SMR.Deployment.replica_view d i)) 0 live
      in
      (* Drain: run on until quiescent, so every live replica is compared
         after it executed everything ordered. *)
      let quiescent () =
        !pending = 0
        && List.for_all
             (fun i -> Hashtbl.length counts.(i) = Hashtbl.length counts.(measured))
             live
      in
      let limit = horizon +. drain_limit in
      let rec drain t =
        if not (quiescent ()) && t < limit then begin
          let t = t +. 10.0 *. chunk in
          Engine.run ~until:t engine;
          drain t
        end
      in
      drain horizon;
      let requests = Psmr_util.Vec.to_array requests in
      let replies = Psmr_util.Vec.to_array replies in
      let check () =
        let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
        if !pending > 0 then
          fail "%d requests still outstanding %.1f s after the horizon" !pending
            drain_limit
        else
          let live_a = Array.of_list live in
          let bad = ref None in
          let note msg = if !bad = None then bad := Some msg in
          (* Every acknowledged command executed exactly once at each live
             replica, with the response the client received. *)
          Array.iteri
            (fun k (r : request) ->
              if not (Float.is_nan r.finish) then
                Array.iteri
                  (fun j id ->
                    Array.iter
                      (fun i ->
                        match Hashtbl.find_opt counts.(i) id with
                        | Some 1 ->
                            if Hashtbl.find resps.(i) id <> replies.(k).(j) then
                              note
                                (Printf.sprintf
                                   "the client's response to command %d differs from replica %d's"
                                   id i)
                        | Some c ->
                            note
                              (Printf.sprintf
                                 "command %d executed %d times at replica %d" id c i)
                        | None ->
                            note
                              (Printf.sprintf
                                 "acknowledged command %d never executed at replica %d"
                                 id i))
                      live_a)
                  r.ids)
            requests;
          Array.iter
            (fun i ->
              Hashtbl.iter
                (fun id c ->
                  if c <> 1 then
                    note
                      (Printf.sprintf "command %d executed %d times at replica %d"
                         id c i))
                counts.(i))
            live_a;
          (* Live replicas end in the same service state. *)
          let snap i = S.snapshot (Option.get services.(i)) in
          Array.iter
            (fun i ->
              if snap i <> snap measured then
                note
                  (Printf.sprintf "replica %d state differs from replica %d" i
                     measured))
            live_a;
          match !bad with
          | Some m -> Error m
          | None -> Ok ()
      in
      {
        requests;
        window_start;
        window_end;
        horizon;
        samples = Psmr_util.Vec.to_array samples;
        chunk_wall = Psmr_util.Vec.to_array chunk_wall;
        chunk_events = Psmr_util.Vec.to_array chunk_events;
        wall_s;
        events;
        minor_words;
        retries = Array.fold_left (fun a h -> a + SMR.client_retries h) 0 handles;
        views;
        peer_msgs;
        client_msgs = client_msgs_h;
        executed;
        crosses;
        holes;
        first_exec;
        exec_ms = Psmr_util.Vec.to_array exec_ms;
        busy_s = !busy;
        registry;
        net_spans = Psmr_util.Vec.to_array net_spans;
        exec_spans = Psmr_util.Vec.to_array exec_spans;
        check = check ();
      }
    in
    { go }
end
