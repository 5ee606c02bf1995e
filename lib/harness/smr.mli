(** Replicated (parallel-SMR) experiments under the simulator — the paper's
    §7.4 setup (Figures 4-6): three simulated 64-way replicas on a 1 Gbps
    LAN, closed-loop clients with command batching, the full
    broadcast/replica/COS stack. *)

type result = {
  kops : float;  (** commands executed per second at replica 0, thousands *)
  mean_latency_ms : float;  (** client-side request latency, mean *)
  p99_latency_ms : float;
  completed_calls : int;
  views : int;  (** view changes observed (0 in healthy runs) *)
  faults_injected : int;  (** fault decisions that fired during the run *)
}

val default_duration : float
val default_warmup : float
val default_cmds_per_request : int

val run :
  mode:Psmr_replica.Replica.mode ->
  spec:Psmr_workload.Workload.spec ->
  clients:int ->
  ?cmds_per_request:int ->
  ?duration:float ->
  ?warmup:float ->
  ?seed:int64 ->
  ?faults:Psmr_fault.Schedule.t ->
  unit ->
  result
(** [faults] (default empty) arms a deterministic fault schedule for the
    deployment: message loss/duplication/delay in the simulated network and
    worker crashes/stalls/slowdowns inside the replicas' parallel
    executors.  Empty schedule: bit-identical to a run without fault
    support.

    Raises [Failure] when no client call completes inside the measurement
    window: a stalled deployment has no latency to report. *)
