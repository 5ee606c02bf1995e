(** Fault schedules: parsed form of the [--faults] spec (docs/FAULTS.md).

    Pure data; arming one into decisions is {!Plan}'s job.  Spec syntax,
    comma-separated:

    {v
      seed=N                   fault RNG seed (default 1)
      net-loss=P               drop each message with probability P%
      net-dup=P                duplicate each message with probability P%
      net-delay=P:D            delay each message by D extra seconds, P%
      worker-crash=W@T[+R]     worker W dies at virtual time T (respawn
                               after R seconds when given)
      worker-stall=W@T:D       worker W pauses D seconds, once, after T
      worker-slow=W@T:X        worker W pays X extra seconds per command
                               from T on
      replica-crash=R@T[+D]    replica R crashes at T (recovers from its
                               checkpoint after D seconds when given)
    v} *)

type worker_fault =
  | Crash of { respawn_after : float option }
  | Stall of float  (** one-shot pause, seconds *)
  | Slow of float  (** extra seconds per command, permanent from [at] *)

type worker_event = { worker : int; at : float; fault : worker_fault }

type replica_event = {
  replica : int;
  at : float;
  recover_after : float option;
}

type net = {
  loss_pct : float;
  dup_pct : float;
  delay_pct : float;
  delay : float;
}

type t = {
  seed : int64;
  net : net;
  workers : worker_event list;  (** sorted by [at], stable *)
  replicas : replica_event list;  (** sorted by [at], stable *)
}

val empty : t
(** No faults, seed 1. *)

val no_net : net

val is_empty : t -> bool
(** No fault can ever fire from this schedule (the seed is ignored). *)

val has_net_faults : t -> bool

val parse : string -> (t, string) result
(** Parse a spec string.  The empty string parses to {!empty}. *)

val parse_exn : string -> t
(** @raise Invalid_argument on a malformed spec. *)

val replica_crash_clause : t -> string option
(** The first [replica-crash] clause, rendered as in {!to_string}; [None]
    when the schedule crashes no replica.  Only the recovery harness
    injects replica crashes, so every other entry point rejects a schedule
    that has one. *)

val to_string : t -> string
(** Canonical, re-parseable form: [parse (to_string t)] re-reads [t] (up to
    float formatting). *)
