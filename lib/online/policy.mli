(** The policy of the online engine: one immutable value, no closures.

    Every arrival recomputes β over the currently-active applications
    and remaps their unstarted tasks — that part is not optional, it is
    the point of the engine — and so does every fault event (a failed
    task, an outage, a recovery must remap the affected work). The
    policy decides what {e else} triggers a recomputation, how failed
    tasks retry, and whether running tasks are malleable.

    [config] carries the allocation procedure and mapper options, as in
    the offline {!Mcs_sched.Pipeline}.

    [faults] governs recovery under fault injection (it is inert when
    the engine runs without a fault scenario). A task killed by a
    processor outage is always requeued — mandatory, not a retry. A
    {e transient} failure consumes one retry: after [max_retries]
    transient failures the next attempt is carried through (bounded
    retry — the run always terminates; an operator would eventually
    blacklist the task or succeed). Each retry waits a backoff
    ({!backoff}) before the task may start again, and [shrink_on_retry]
    halves the task's allocation per failure (floor 1) — reusing the
    packing idea: a smaller allocation restarts earlier on a degraded
    platform.

    A policy is plain data: it prints, compares by value, and is
    shared as-is by engine snapshots. The engine holds exactly one and
    can swap it mid-run ({!Engine.set_policy}). *)

type rescheduling =
  | Arrivals
      (** arrivals (and fault events) only: β is static between
          arrivals. With every arrival at time 0 the engine coincides
          with the offline pipeline (see {!Engine.run}). *)
  | Departures
      (** also when an application completes: its β share is
          redistributed among the survivors and their unstarted tasks
          are remapped onto the freed processors (backfilling) *)
  | Task_finishes
      (** also after every task completion — much more aggressive
          (O(tasks) reschedules per run). A departure is the finish of
          the exit task, so this level includes [Departures]. *)

type backoff =
  | Exponential  (** retry [k] waits [backoff_base·2^(k-1)] *)
  | Linear  (** retry [k] waits [backoff_base·k] *)

type fault_policy = {
  max_retries : int;       (** transient failures tolerated per task *)
  backoff_base : float;    (** seconds *)
  backoff : backoff;
  shrink_on_retry : bool;  (** halve the allocation per failure *)
}

val default_faults : fault_policy
(** 3 retries, exponential backoff over a 5 s base, no shrinking. *)

type t = {
  name : string;
      (** reporting name: the last preset applied, ["default"] from
          {!make}. The engine counts [policy.<name>.reschedules] and
          [policy.<name>.remapped] under it. *)
  strategy : Mcs_sched.Strategy.t;
  config : Mcs_sched.Pipeline.config;
  rescheduling : rescheduling;
  alloc_cache : bool;
      (** serve allocations from the per-application trajectory cache
          ({!Mcs_sched.Allocation.allocate_cached}). Bit-identical to
          the scratch path by construction; the switch exists so the
          differential tests can run both and compare. On by default. *)
  faults : fault_policy;
  malleability : Mcs_sched.Malleability.t option;
      (** when [Some m], running tasks become {e malleable}: the engine
          may preempt them at [m]'s legal resize points and continue
          them at the width [m]'s thresholds pick, charging the
          redistribution cost and re-pricing the remaining work (see
          {!Engine}). [None] (the default) is the paper's moldable
          model and is bit-identical to the pre-malleability engine. *)
}

val make :
  ?config:Mcs_sched.Pipeline.config ->
  ?faults:fault_policy ->
  ?alloc_cache:bool ->
  ?rescheduling:rescheduling ->
  ?malleability:Mcs_sched.Malleability.t ->
  Mcs_sched.Strategy.t -> t
(** Policy named ["default"]. [alloc_cache] defaults to [true],
    [rescheduling] to [Departures], [malleability] to [None] (moldable
    tasks); a model is validated with
    {!Mcs_sched.Malleability.validate}.
    @raise Invalid_argument on a negative [max_retries], an ill-formed
    [backoff_base] or an ill-formed malleability model. *)

val presets : string list
(** Names accepted by {!preset} — what the CLIs advertise for
    [--policy]. *)

val preset : string -> t -> t
(** [preset name p] overrides one field of [p] and names the result
    [name]: ["default"] changes nothing, ["static"] / ["dynamic"] /
    ["eager"] set [rescheduling] to [Arrivals] / [Departures] /
    [Task_finishes], ["linear-backoff"] sets a [Linear] backoff and
    ["shrink-retry"] sets [shrink_on_retry]. Presets compose:
    [preset "shrink-retry" (preset "static" p)] has both settings.
    @raise Invalid_argument on an unknown name. *)

val backoff : t -> failures:int -> float
(** Seconds a task waits before retry number [failures] (≥ 1). *)

val retry_width : failures:int -> procs:int -> int
(** The [shrink_on_retry] law: a task with [failures] transient
    failures runs on [procs / 2^failures] processors (floor 1); the
    identity at zero failures. *)
