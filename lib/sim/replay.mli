(** Discrete-event replay of concurrent schedules.

    The mapper ({!Mcs_sched.List_mapper}) produces schedules from static
    redistribution estimates. The replay executes those scheduling
    *decisions* — processor sets and per-processor task order — inside
    the fluid network model, so transfer durations emerge from actual
    link contention, as a SimGrid simulation would:

    - a task starts once every predecessor dependency is satisfied and
      it reaches the head of the FIFO of each of its processors;
    - a dependency is satisfied at the predecessor's finish when no data
      moves (zero bytes, or same processors on the same cluster), and at
      the completion of a network flow otherwise;
    - flows start one latency after the producer finishes and progress
      at the max-min fair rate of their route.

    Computation durations reuse the schedule's Amdahl times; only
    communication timing is re-evaluated.

    Each flow activation or completion re-predicts the finish of every
    active flow. Predictions are not queued: each active flow has one
    pending prediction, and the earliest one fires unless an earlier
    queued event (task finish, flow activation, release) comes first.
    A fired prediction completes its flow, since the flow's rate has
    not changed since it was made. Cost is proportional to the events
    and predictions made, not to a queue of superseded ones. *)

type result = {
  makespans : float array;       (** per application: exit-node finish *)
  global_makespan : float;
  finish_times : float array array;  (** per application, per node *)
  start_times : float array array;   (** per application, per node *)
  flows_created : int;
  events_processed : int;
      (** queued events plus flow-completion predictions made — the
          number of pops of a replay that queued every prediction *)
}

val run :
  ?release:float array ->
  Mcs_platform.Platform.t -> Mcs_sched.Schedule.t list -> result
(** Simulate the concurrent execution of the given schedules. [release]
    gives per-application submission times: no task of application [i]
    runs before [release.(i)] (default: all 0, as in the paper).
    @raise Invalid_argument on an empty list or an ill-formed
    [release]. *)
