module Strategy = Mcs_sched.Strategy
module Table = Mcs_util.Table

type point = {
  mu : float;
  count : int;
  unfairness : float;
  avg_makespan : float;
}

let paper_mus = [ 0.; 0.3; 0.5; 0.7; 0.8; 0.9; 1. ]

let compute ?runs ?(counts = Workload.paper_counts) ?(mus = paper_mus)
    ?(seed = 2008) ?(metric = Strategy.Work)
    ?(family = Workload.Random_mixed_scenarios) () =
  List.map
    (fun (count, mu, s) ->
      {
        mu;
        count;
        unfairness = s.Sweep.mean (fun r -> r.Runner.unfairness);
        avg_makespan = s.Sweep.mean (fun r -> r.Runner.avg_makespan);
      })
    (Sweep.run ?runs ~family ~counts ~seed ~variants:mus
       ~makespan:(fun r -> r.Runner.global_makespan)
       (fun sc mus ->
         Runner.evaluate sc.Sweep.platform sc.Sweep.ptgs
           (List.map (fun mu -> Strategy.Weighted (metric, mu)) mus)))

let tables ~metric points =
  let mus = List.sort_uniq compare (List.map (fun p -> p.mu) points) in
  let counts = List.sort_uniq compare (List.map (fun p -> p.count) points) in
  let series get title =
    Sweep.grid
      ~title:
        (Printf.sprintf "%s vs mu — WPS-%s, random PTGs" title
           (match metric with
           | Strategy.Cp -> "cp"
           | Strategy.Width -> "width"
           | Strategy.Work -> "work"))
      ~corner:"#PTGs"
      ~rows:(List.map (fun c -> (Printf.sprintf "%d PTGs" c, c)) counts)
      ~cols:(List.map (fun mu -> (Printf.sprintf "mu=%.1f" mu, mu)) mus)
      (fun count mu ->
        Option.map
          (fun p -> Table.fmt_float (get p))
          (List.find_opt (fun p -> p.mu = mu && p.count = count) points))
  in
  [
    series (fun p -> p.unfairness) "Unfairness";
    series (fun p -> p.avg_makespan) "Average makespan (s)";
  ]

let figure2 ?runs () =
  let metric = Strategy.Work in
  tables ~metric (compute ?runs ~metric ())
