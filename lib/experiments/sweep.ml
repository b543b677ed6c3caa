module Prng = Mcs_prng.Prng

let runs_from_env () =
  match Sys.getenv_opt "MCS_RUNS" with
  | None -> 25
  | Some s -> (
    match int_of_string_opt s with
    | Some n when n > 0 -> n
    | Some _ | None ->
      invalid_arg
        (Printf.sprintf "MCS_RUNS must be a positive integer, got %S" s))

let scenario_seed ~seed ~count ~platform_idx ~run =
  (((seed * 1_000_003) + (count * 10_007) + (platform_idx * 101) + run)
  * 2_654_435_761)
  land max_int

let scenarios ~family ~count ~runs ~seed =
  let platforms = Array.of_list (Mcs_platform.Grid5000.all ()) in
  List.concat_map
    (fun run ->
      List.init (Array.length platforms) (fun platform_idx ->
          let rng =
            Prng.create
              ~seed:(scenario_seed ~seed ~count ~platform_idx ~run)
          in
          let ptgs = Workload.draw rng family ~count in
          (platforms.(platform_idx), ptgs)))
    (List.init runs (fun r -> r))

type scenario = {
  count : int;
  index : int;
  platform : Mcs_platform.Platform.t;
  ptgs : Mcs_ptg.Ptg.t list;
}

type 'm summary = {
  relative_makespan : float;
  mean : ('m -> float) -> float;
}

let mean_over f runs =
  Mcs_util.Floatx.mean (Array.of_list (List.map f runs))

let run ?runs ?(family = Workload.Random_mixed_scenarios) ~counts ~seed
    ~variants ~makespan evaluate =
  let runs = match runs with Some r -> r | None -> runs_from_env () in
  let n = List.length variants in
  List.concat_map
    (fun count ->
      (* Per scenario: every variant's measurement, each paired with its
         makespan relative to the scenario's best. *)
      let per_scenario =
        Mcs_util.Parmap.map
          (fun (index, (platform, ptgs)) ->
            let ms = evaluate { count; index; platform; ptgs } variants in
            if List.length ms <> n then
              invalid_arg "Sweep.run: one measurement per variant expected";
            let best =
              List.fold_left
                (fun acc m -> Float.min acc (makespan m))
                Float.infinity ms
            in
            Array.of_list
              (List.map
                 (fun m ->
                   (m, Mcs_metrics.Metrics.relative_makespan (makespan m) ~best))
                 ms))
          (List.mapi
             (fun index s -> (index, s))
             (scenarios ~family ~count ~runs ~seed))
      in
      List.mapi
        (fun vi variant ->
          let mine = List.map (fun ms -> ms.(vi)) per_scenario in
          ( count,
            variant,
            {
              relative_makespan = mean_over snd mine;
              mean = (fun f -> mean_over (fun (m, _) -> f m) mine);
            } ))
        variants)
    counts

(* The PTG count equals [s.count]: the formula counts it twice, and
   keeping it that way keeps every published arrival stream. *)
let poisson_release ~seed ~mean s =
  let rng = Prng.create ~seed:(seed + (s.count * 31) + List.length s.ptgs) in
  Workload.poisson_releases rng ~mean ~count:s.count

let fault_seed ~seed s = seed + (257 * s.index) + 1

let grid ~title ~corner ~rows ~cols cell =
  let t = Mcs_util.Table.create ~title ~header:(corner :: List.map fst cols) in
  List.iter
    (fun (label, r) ->
      Mcs_util.Table.add_row t
        (label
        :: List.map
             (fun (_, c) -> Option.value (cell r c) ~default:"-")
             cols))
    rows;
  t
