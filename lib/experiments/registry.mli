(** The index of the paper's tables and figures and of the repository's
    extra experiments (DESIGN.md section 5): every id with its aliases,
    its title and how to run it. The experiment CLI and the bench
    harness both dispatch through it. *)

type entry = {
  id : string;  (** [table1], [fig1]..[fig5], [x1]..[x9] *)
  aliases : string list;  (** e.g. [f3], [online] for [x7] *)
  title : string;
  run : runs:int -> Mcs_util.Table.t list;
      (** the experiment's tables at [runs] combinations per point *)
}

val all : entry list
(** In presentation order: Table 1, Figures 1–5, X1–X9. *)

val find : string -> entry option
(** The entry whose id or alias is the given name, case-insensitively. *)
