module Strategy = Mcs_sched.Strategy

type point = {
  strategy : Strategy.t;
  count : int;
  unfairness : float;
  relative_makespan : float;
}

let strategies =
  [
    Strategy.Selfish;
    Strategy.Equal_share;
    Strategy.Weighted (Strategy.Width, 0.5);
    Strategy.Weighted (Strategy.Work, 0.7);
  ]

let compute ?runs ?(counts = Workload.paper_counts) ?(seed = 411)
    ?(mean_interarrival = 30.) () =
  List.map
    (fun (count, strategy, s) ->
      {
        strategy;
        count;
        unfairness = s.Sweep.mean (fun r -> r.Runner.unfairness);
        relative_makespan = s.Sweep.relative_makespan;
      })
    (Sweep.run ?runs ~counts ~seed ~variants:strategies
       ~makespan:(fun r -> r.Runner.global_makespan)
       (fun sc ->
         Runner.evaluate
           ~release:(Sweep.poisson_release ~seed ~mean:mean_interarrival sc)
           sc.Sweep.platform sc.Sweep.ptgs))

let table ?runs () =
  let points = compute ?runs () in
  let counts = List.sort_uniq compare (List.map (fun p -> p.count) points) in
  Sweep.grid
    ~title:
      "Staggered submissions (Poisson arrivals, mean 30 s) — unfairness / \
       relative response time"
    ~corner:"strategy"
    ~rows:(List.map (fun s -> (Strategy.name s, s)) strategies)
    ~cols:(List.map (fun c -> (string_of_int c ^ " PTGs", c)) counts)
    (fun strategy count ->
      Option.map
        (fun p -> Printf.sprintf "%.2f / %.2f" p.unfairness p.relative_makespan)
        (List.find_opt
           (fun p -> p.strategy = strategy && p.count = count)
           points))
