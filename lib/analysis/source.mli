(** Analysis units: the typed trees the repo already builds.

    The preferred input is the [.cmt] dune wrote during [dune build
    @check] — untyped back to a parsetree with locations and attributes
    intact, so the linter analyzes exactly what the compiler
    type-checked. Sources outside the build (seeded-violation fixtures)
    are parsed directly. *)

type t = {
  path : string;  (** the .ml path the unit was requested as *)
  modname : string;  (** capitalized basename, used to qualify locks *)
  structure : Parsetree.structure;
  from_cmt : bool;  (** true when recovered from a [.cmt] *)
}

val parse_string : filename:string -> string -> (t, string) result
(** Parse an implementation from a string (tests, fixtures). *)

val load : ?build_dir:string -> ?prefer_cmt:bool -> string -> (t, string) result
(** Load one unit: the [.cmt] when present (default
    [build_dir = "_build/default"]), else the source text. *)

val scan : ?exclude:string list -> string list -> string list
(** Expand files and directories into a sorted list of [.ml] paths,
    pruning path substrings in [exclude] (default: build trees and the
    seeded [fixtures]). *)
