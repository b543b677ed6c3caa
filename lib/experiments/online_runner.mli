(** Execution of one scenario through the online engine under several
    (fault level, policy) pairs, with the dedicated-platform baselines
    computed once and shared — the evaluation of the fault (X8) and
    malleability (X9) experiments. *)

type t = {
  unfairness : float;
      (** {!Mcs_metrics.Metrics.unfairness_of_makespans} of the response
          times against the dedicated baselines *)
  response_makespan : float;  (** the largest response time *)
  stats : Mcs_online.Engine.stats;
}

val evaluate :
  fault_seed:int ->
  release:float array ->
  Mcs_platform.Platform.t ->
  Mcs_ptg.Ptg.t list ->
  (Mcs_fault.Fault.config option * Mcs_online.Policy.t) list ->
  t list
(** Run the online engine once per (fault level, policy) pair on the
    applications submitted at [release], faults drawn by
    {!Mcs_fault.Fault.generate} from [fault_seed]. Makespans are the
    engine's own virtual response times: the fluid replay knows nothing
    of outages. The M_own baselines are the estimated dedicated
    makespans, computed once. Every reschedule generation and the final
    audit (FAULT and MAL rules included) run under the invariant
    analyzer, which raises on a violation. *)
