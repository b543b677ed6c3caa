module Schedule = Mcs_sched.Schedule
module Mheft = Mcs_sched.Mheft
module Pipeline = Mcs_sched.Pipeline
module Table = Mcs_util.Table

type stats = {
  algorithm : string;
  mean_relative_makespan : float;
  mean_efficiency : float;
}

let algorithms =
  [
    ("HEFT", fun platform ptg -> Mheft.schedule_heft platform ptg);
    ("M-HEFT", fun platform ptg -> Mheft.schedule platform ptg);
    ( "M-HEFT eff>=0.5",
      fun platform ptg ->
        Mheft.schedule
          ~options:{ Mheft.default_options with min_efficiency = 0.5 }
          platform ptg );
    ( "SCRAP-MAX beta=1 (HCPA)",
      fun platform ptg -> Pipeline.schedule_alone platform ptg );
  ]

let efficiency platform _ptg sched =
  match Schedule.parallel_efficiency ~platform sched with
  | 0. -> 1. (* degenerate empty schedule: count as perfectly efficient *)
  | e -> e

let compute ?runs ?(seed = 77) () =
  List.map
    (fun (_, (algorithm, _), s) ->
      {
        algorithm;
        mean_relative_makespan = s.Sweep.relative_makespan;
        mean_efficiency = s.Sweep.mean snd;
      })
    (Sweep.run ?runs ~counts:[ 1 ] ~seed ~variants:algorithms
       ~makespan:fst
       (fun sc ->
         let platform = sc.Sweep.platform and ptg = List.hd sc.Sweep.ptgs in
         List.map (fun (_, algo) ->
             let sched = algo platform ptg in
             (sched.Schedule.makespan, efficiency platform ptg sched))))

let table ?runs () =
  let stats = compute ?runs () in
  let t =
    Table.create
      ~title:
        "Single-PTG comparison — makespan vs parallel efficiency (random \
         PTGs, 4 platforms)"
      ~header:[ "algorithm"; "relative makespan"; "parallel efficiency" ]
  in
  List.iter
    (fun s ->
      Table.add_row t
        [
          s.algorithm;
          Printf.sprintf "%.2f" s.mean_relative_makespan;
          Printf.sprintf "%.0f%%" (100. *. s.mean_efficiency);
        ])
    stats;
  t
