module Strategy = Mcs_sched.Strategy
module Malleability = Mcs_sched.Malleability
module Engine = Mcs_online.Engine
module Policy = Mcs_online.Policy
module Fault = Mcs_fault.Fault

type point = {
  mode : string;
  level : string;
  unfairness : float;
  relative_makespan : float;
  resizes : float;
  win_rate : float;
}

let model =
  {
    Malleability.default with
    Malleability.quantum = 30.;
    redist_cost = 0.05;
    shrink_active_above = 6;
    grow_active_below = 2;
  }

let modes = [ ("moldable", None); ("malleable", Some model) ]

let levels =
  [
    ("none", None);
    ( "moderate",
      Some
        {
          Fault.default with
          Fault.mttf = 1500.;
          mttr = 120.;
          task_fail_p = 0.05;
        } );
  ]

let strategy = Strategy.Weighted (Strategy.Work, 0.7)

(* Bursts of three simultaneous submissions separated by long quiet
   gaps: each burst spikes the active set (running tasks shrink to make
   room) and each gap drains it (the survivors' running tasks grow onto
   the idle processors) — the access pattern malleability exists for. *)
let burst_release count = Array.init count (fun i -> float_of_int (i / 3) *. 150.)

(* Every (level, mode) run of one scenario, each paired with 1 when its
   makespan strictly beats the other mode's at the same fault level. *)
let evaluate ~seed sc variants =
  let runs =
    Online_runner.evaluate ~fault_seed:(Sweep.fault_seed ~seed sc)
      ~release:(burst_release sc.Sweep.count) sc.Sweep.platform sc.Sweep.ptgs
      (List.map
         (fun (_, config, _, malleability) ->
           (config, Policy.make ?malleability strategy))
         variants)
  in
  let results = List.combine variants runs in
  List.map
    (fun ((level, _, mode, _), r) ->
      let rival =
        List.fold_left
          (fun acc ((l, _, m, _), (o : Online_runner.t)) ->
            if l = level && m <> mode then Float.min acc o.response_makespan
            else acc)
          Float.infinity results
      in
      (r, if r.Online_runner.response_makespan < rival then 1. else 0.))
    results

let compute ?runs ?(count = 6) ?(seed = 911) () =
  List.map
    (fun (_, (level, _, mode, _), s) ->
      {
        mode;
        level;
        unfairness = s.Sweep.mean (fun (r, _) -> r.Online_runner.unfairness);
        relative_makespan = s.Sweep.relative_makespan;
        resizes =
          s.Sweep.mean (fun (r, _) ->
              float_of_int r.Online_runner.stats.Engine.resizes);
        win_rate = s.Sweep.mean snd;
      })
    (Sweep.run ?runs ~counts:[ count ] ~seed
       ~variants:
         (List.concat_map
            (fun (level, config) ->
              List.map
                (fun (mode, malleability) -> (level, config, mode, malleability))
                modes)
            levels)
       ~makespan:(fun (r, _) -> r.Online_runner.response_makespan)
       (evaluate ~seed))

let table ?runs () =
  let points = compute ?runs () in
  Sweep.grid
    ~title:
      "Malleable vs moldable execution (X9) — unfairness / relative \
       response time (mean resizes, makespan win rate) under burst \
       submissions"
    ~corner:"mode"
    ~rows:(List.map (fun (mode, _) -> (mode, mode)) modes)
    ~cols:(List.map (fun (level, _) -> (level, level)) levels)
    (fun mode level ->
      Option.map
        (fun p ->
          Printf.sprintf "%.2f / %.2f (%.1f rsz, %.0f%% win)" p.unfairness
            p.relative_makespan p.resizes (100. *. p.win_rate))
        (List.find_opt (fun p -> p.mode = mode && p.level = level) points))
