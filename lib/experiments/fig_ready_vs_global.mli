(** Figure 1 and the mapping-procedure ablation: ordering the ready
    tasks only, versus the aggregated global ordering of [15] (mapped
    first-come-first-served, no backfilling).

    Two outputs:
    - the paper's two-PTG illustration, replayed on a toy two-processor
      platform, showing that the global ordering postpones the small
      application until the big one's first task completes while the
      ready ordering starts it immediately;
    - an aggregate comparison of both orderings over random-PTG
      scenarios (unfairness and relative makespan), quantifying the
      benefit claimed in Section 5. *)

val illustration : unit -> Mcs_util.Table.t
(** The two-PTG example: per-application start and makespan under both
    orderings. *)

val aggregate : ?runs:int -> ?counts:int list -> unit -> Mcs_util.Table.t
(** Mean unfairness and mean relative makespan of the three orderings
    (ready tasks, global FCFS, conservative backfilling) under the ES
    strategy, per PTG count. *)

val tables : ?runs:int -> unit -> Mcs_util.Table.t list
