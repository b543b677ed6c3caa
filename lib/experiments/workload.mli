(** Workload sampling for the evaluation scenarios (Section 7).

    Three application families are used: randomly generated PTGs of 10,
    20 or 50 tasks with shape parameters drawn from the paper's grid,
    FFT PTGs of 4, 8 or 16 points, and Strassen PTGs (fixed 25-task
    shape). A scenario is a set of 2–10 concurrent applications of one
    family, submitted together on one platform. *)

type family =
  | Random_ptgs of Mcs_taskmodel.Task.complexity_class
  | Random_mixed_scenarios
      (** each application draws its cost scenario among the four *)
  | Fft_ptgs
  | Strassen_ptgs

val family_name : family -> string

val draw : Mcs_prng.Prng.t -> family -> count:int -> Mcs_ptg.Ptg.t list
(** [draw rng family ~count] samples [count] applications, ids
    [0 .. count-1]. *)

val poisson_releases :
  Mcs_prng.Prng.t -> mean:float -> count:int -> float array
(** [poisson_releases rng ~mean ~count] draws the release times of a
    Poisson submission stream: entry 0 is 0 and entry [i] is the sum of
    [i] exponential inter-arrival draws of mean [mean], taken from
    [rng] in order ([count - 1] draws in all). *)

val paper_counts : int list
(** [[2; 4; 6; 8; 10]] concurrent applications. *)
