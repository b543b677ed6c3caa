(** The random-scenario sweep shared by every figure harness.

    The paper's protocol: for each number of concurrent PTGs (2–10), 25
    random application combinations are drawn and run on each of the
    four Grid'5000 subsets — 100 runs per point; reported values are
    averages over those runs. Scenarios are seeded deterministically
    from (seed, count, platform, run), so every figure is reproducible
    run-to-run and independent of evaluation order.

    {!run} is that loop, written once: an experiment supplies its
    variants and how one scenario evaluates them, and gets back one
    summary per (count, variant). *)

val runs_from_env : unit -> int
(** Number of combinations per (count, platform) point: the value of
    the [MCS_RUNS] environment variable, or 25 (the paper's setting)
    when it is unset.
    @raise Invalid_argument when [MCS_RUNS] is set to anything but a
    positive integer. *)

val scenarios :
  family:Workload.family ->
  count:int ->
  runs:int ->
  seed:int ->
  (Mcs_platform.Platform.t * Mcs_ptg.Ptg.t list) list
(** All (platform, applications) scenarios for one point: [runs]
    combinations × the four Grid'5000 subsets. *)

type scenario = {
  count : int;  (** applications in the scenario *)
  index : int;  (** position among the point's scenarios *)
  platform : Mcs_platform.Platform.t;
  ptgs : Mcs_ptg.Ptg.t list;
}

type 'm summary = {
  relative_makespan : float;
      (** mean over scenarios of the variant's makespan divided by the
          best makespan of any variant on the same scenario *)
  mean : ('m -> float) -> float;
      (** mean of a per-run metric over the scenarios, folded in
          scenario order *)
}

val run :
  ?runs:int ->
  ?family:Workload.family ->
  counts:int list ->
  seed:int ->
  variants:'v list ->
  makespan:('m -> float) ->
  (scenario -> 'v list -> 'm list) ->
  (int * 'v * 'm summary) list
(** [run ~counts ~seed ~variants ~makespan evaluate] evaluates every
    variant on every scenario of every count ([Parmap] over the
    scenarios of one count) and returns one summary per (count,
    variant), counts outermost, variants in the given order. [evaluate
    scenario variants] returns one per-run measurement per variant, in
    order; [makespan] reads the global makespan normalised into
    [relative_makespan]. Defaults: [runs] from {!runs_from_env}, random
    PTGs with mixed cost scenarios.
    @raise Invalid_argument if [evaluate] returns a list of another
    length than [variants]. *)

val poisson_release : seed:int -> mean:float -> scenario -> float array
(** The Poisson submission stream of a scenario (X5, X7, X8): release
    times with mean inter-arrival [mean], drawn from a stream seeded by
    [seed], the application count and the scenario's PTG count. *)

val fault_seed : seed:int -> scenario -> int
(** The seed of a scenario's fault process (X8, X9), derived from its
    index. *)

val grid :
  title:string ->
  corner:string ->
  rows:(string * 'r) list ->
  cols:(string * 'c) list ->
  ('r -> 'c -> string option) ->
  Mcs_util.Table.t
(** The table of a sweep: one labelled row per [rows] entry, one
    labelled column per [cols] entry under the [corner] heading, and the
    cell of each (row, column) pair, ["-"] where there is none. *)
