(** Design-choice ablations called out in DESIGN.md.

    - {b Packing} (Section 5): the allocation-packing mechanism shrinks
      a delayed task's allocation when that strictly improves its start
      without degrading its finish. Compared on/off.
    - {b SCRAP vs SCRAP-MAX} (Section 4): the paper keeps SCRAP-MAX
      because SCRAP's globally-checked constraint can leave a few large
      allocations that postpone ready tasks. Compared under ES. *)

val config_table :
  title:string ->
  seed:int ->
  configs:(string * Mcs_sched.Pipeline.config) list ->
  columns:(string * (Runner.run_metrics Sweep.summary -> float)) list ->
  ?runs:int ->
  ?counts:int list ->
  unit ->
  Mcs_util.Table.t
(** The ES strategy under each labelled pipeline configuration on
    random-PTG scenarios: one row per PTG count and, for each named
    column, one cell per configuration (headed "column label"). *)

val packing_table : ?runs:int -> ?counts:int list -> unit -> Mcs_util.Table.t
(** Mean unfairness and mean global makespan with and without packing
    (ES strategy, random PTGs). *)

val procedure_table : ?runs:int -> ?counts:int list -> unit -> Mcs_util.Table.t
(** Same comparison between the SCRAP and SCRAP-MAX allocation
    procedures. *)
