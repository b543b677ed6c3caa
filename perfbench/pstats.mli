(** Statistics of the repository benchmark: order statistics with an
    explicit tail-sample rule, the unattributed share of a
    {!Mcs_obs.Obs} span list, and fingerprints that compare a timed
    run's outputs with a verification run's. Pure functions, tested on synthetic data. *)

val median : float array -> float
(** Median of the finite values (mean of the two middle ones for an even
    count); [nan] when there is none. *)

val nearest_rank : float array -> p:float -> float
(** Nearest-rank [p]-quantile ([p] in [\[0, 1\]]) of the finite values:
    the [⌈p·n⌉]-th smallest; [nan] when there is none. *)

type tail = {
  p : float;  (** percentile actually reported, in [\[0, 1\]] *)
  value : float;
  samples : int;  (** finite samples it was taken over *)
  beyond : int;  (** samples strictly above its rank *)
}

val tail_percentile : p:float -> float array -> tail option
(** The [p]-quantile (nearest rank) when at least 10 samples lie beyond
    its rank; otherwise the highest percentile that keeps 10 samples
    beyond it. [None] when no rank does (fewer than 11 finite
    samples). A tail percentile read off
    fewer samples would be one or two outliers, not a tail. *)

val unattributed_frac : Mcs_obs.Obs.span list -> float
(** Share of root-span (depth 0) time that no named phase covers: the
    summed [self_s] of the roots and of the spans that only loop around
    named phases ([online.run], [serve.run], [serve.step],
    [runner.evaluate]), over the roots' summed duration. [0.] without
    root time. *)

type fingerprint
(** The exact bit patterns of a run's per-item outputs (responses,
    completions or makespans), in item order. *)

val fingerprint : float array -> fingerprint

val digest : fingerprint -> string
(** Hex MD5 of the bit patterns — a one-line identity for reports. *)

val mismatches : reference:fingerprint -> fingerprint -> int
(** Items whose bits differ from the reference, counting every item
    present on one side only. [0] iff the fingerprints are identical. *)
