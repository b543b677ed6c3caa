module Strategy = Mcs_sched.Strategy
module Engine = Mcs_online.Engine
module Policy = Mcs_online.Policy
module Fault = Mcs_fault.Fault

type point = {
  strategy : Strategy.t;
  level : string;
  unfairness : float;
  relative_makespan : float;
  kills : float;
  retries : float;
}

let levels =
  [
    ("none", None);
    ( "mild",
      Some
        {
          Fault.default with
          Fault.mttf = 3000.;
          mttr = 120.;
          task_fail_p = 0.02;
        } );
    ( "moderate",
      Some
        {
          Fault.default with
          Fault.mttf = 1500.;
          mttr = 120.;
          task_fail_p = 0.05;
        } );
    ( "severe",
      Some
        {
          Fault.default with
          Fault.mttf = 750.;
          mttr = 120.;
          task_fail_p = 0.1;
        } );
  ]

let strategies = Strategy.paper_eight

let compute ?runs ?(count = 6) ?(seed = 523) ?(mean_interarrival = 30.) () =
  let mean s f = s.Sweep.mean (fun (r : Online_runner.t) -> f r.stats) in
  List.map
    (fun (_, (level, _, strategy), s) ->
      {
        strategy;
        level;
        unfairness = s.Sweep.mean (fun r -> r.Online_runner.unfairness);
        relative_makespan = s.Sweep.relative_makespan;
        kills = mean s (fun st -> float_of_int st.Engine.kills);
        retries = mean s (fun st -> float_of_int st.Engine.task_failures);
      })
    (Sweep.run ?runs ~counts:[ count ] ~seed
       ~variants:
         (List.concat_map
            (fun (level, config) ->
              List.map (fun strategy -> (level, config, strategy)) strategies)
            levels)
       ~makespan:(fun r -> r.Online_runner.response_makespan)
       (fun sc variants ->
         Online_runner.evaluate ~fault_seed:(Sweep.fault_seed ~seed sc)
           ~release:(Sweep.poisson_release ~seed ~mean:mean_interarrival sc)
           sc.Sweep.platform sc.Sweep.ptgs
           (List.map
              (fun (_, config, strategy) -> (config, Policy.make strategy))
              variants)))

let table ?runs () =
  let points = compute ?runs () in
  Sweep.grid
    ~title:
      "Fault injection (X8) — unfairness / relative response time per \
       failure level, all eight β strategies (dynamic online engine)"
    ~corner:"strategy"
    ~rows:(List.map (fun s -> (Strategy.name s, s)) strategies)
    ~cols:(List.map (fun (level, _) -> (level, level)) levels)
    (fun strategy level ->
      Option.map
        (fun p -> Printf.sprintf "%.2f / %.2f" p.unfairness p.relative_makespan)
        (List.find_opt
           (fun p -> p.strategy = strategy && p.level = level)
           points))
