(** Ablation experiments beyond the paper's figures — see each function and
    DESIGN.md's experiment index (A1-A6). *)

val granularity :
  ?workers:int ->
  ?widths:int list ->
  ?write_pct:float ->
  ?duration:float ->
  ?warmup:float ->
  unit ->
  Psmr_util.Table.series list
(** A1 — the lock-granularity spectrum (§7.3.2): striped-COS throughput per
    stripe width, one series per cost class. *)

val graph_size :
  ?workers:int ->
  ?write_pct:float ->
  ?sizes:int list ->
  ?duration:float ->
  ?warmup:float ->
  unit ->
  Psmr_util.Table.series list
(** A2 — sweep of the dependency-graph bound (the paper fixes 150). *)

val realistic_conflicts :
  ?workers:int ->
  ?write_pcts:float list ->
  ?duration:float ->
  ?warmup:float ->
  unit ->
  Psmr_util.Table.series list
(** A3 — the 0.3–2% conflict band the paper cites as realistic (§7.4.2). *)

val indexed_vs_scan :
  ?write_pct:float ->
  ?worker_counts:int list ->
  ?batch:int ->
  ?duration:float ->
  ?warmup:float ->
  unit ->
  Psmr_util.Table.series list
(** A6 — key-indexed insert vs the lock-free scan baseline in the Fig. 2
    standalone setup (light cost, 0% writes by default): throughput per
    worker count for the scan insert, the indexed insert, and the indexed
    insert fed through the batched delivery path. *)

val insert_cost_vs_population :
  ?impls:Psmr_cos.Registry.impl list ->
  ?populations:int list ->
  ?measured:int ->
  ?write_pct:float ->
  ?seed:int64 ->
  unit ->
  Psmr_util.Table.series list
(** A6 companion micro-measure: per-insert virtual-time cost (ns) as a
    function of graph population with no workers attached, so every
    inserted command stays live.  Scan-based inserts grow linearly with
    the population; the indexed insert stays flat. *)

val early_vs_late :
  ?workers:int ->
  ?write_pcts:float list ->
  ?duration:float ->
  ?warmup:float ->
  unit ->
  Psmr_util.Table.series list
(** A4 — early scheduling (the one-class dispatcher: the readers/writers
    discipline) vs the lock-free and coarse COS. *)

val failover_timeline :
  ?crash_at:float ->
  ?until:float ->
  ?bucket:float ->
  ?clients:int ->
  ?mode:Psmr_replica.Replica.mode ->
  unit ->
  (float * float) list * int
(** A5 — per-bucket throughput (kops/s) of a replicated deployment across a
    leader crash, and the number of views the survivors installed. *)
