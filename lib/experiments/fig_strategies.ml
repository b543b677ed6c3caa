module Strategy = Mcs_sched.Strategy
module Table = Mcs_util.Table

type point = {
  count : int;
  strategy : Strategy.t;
  unfairness : float;
  relative_makespan : float;
  avg_makespan : float;
}

let compute ?runs ?(counts = Workload.paper_counts) ?(seed = 2008) ~family
    ~strategies () =
  List.map
    (fun (count, strategy, s) ->
      {
        count;
        strategy;
        unfairness = s.Sweep.mean (fun r -> r.Runner.unfairness);
        relative_makespan = s.Sweep.relative_makespan;
        avg_makespan = s.Sweep.mean (fun r -> r.Runner.avg_makespan);
      })
    (Sweep.run ?runs ~family ~counts ~seed ~variants:strategies
       ~makespan:(fun r -> r.Runner.global_makespan)
       (fun sc -> Runner.evaluate sc.Sweep.platform sc.Sweep.ptgs))

let tables ~family points =
  let counts =
    List.sort_uniq compare (List.map (fun p -> p.count) points)
  in
  let strategies =
    List.fold_left
      (fun acc p ->
        if List.exists (fun s -> s = p.strategy) acc then acc
        else acc @ [ p.strategy ])
      [] points
  in
  let series metric title =
    Sweep.grid
      ~title:(Printf.sprintf "%s — %s" title (Workload.family_name family))
      ~corner:"strategy"
      ~rows:(List.map (fun s -> (Strategy.name s, s)) strategies)
      ~cols:(List.map (fun c -> (string_of_int c ^ " PTGs", c)) counts)
      (fun strategy count ->
        Option.map
          (fun p -> Table.fmt_float (metric p))
          (List.find_opt
             (fun p -> p.count = count && p.strategy = strategy)
             points))
  in
  [
    series (fun p -> p.unfairness) "Unfairness";
    series (fun p -> p.relative_makespan) "Average relative makespan";
  ]

let figure3 ?runs () =
  let family = Workload.Random_mixed_scenarios in
  let points =
    compute ?runs ~family ~strategies:Strategy.paper_eight ()
  in
  tables ~family points

let figure4 ?runs () =
  let family = Workload.Fft_ptgs in
  (* Section 7 tunes µ to 0.3 for WPS-width on FFT graphs. *)
  let strategies =
    List.map
      (fun s ->
        match s with
        | Strategy.Weighted (Strategy.Width, _) ->
          Strategy.Weighted (Strategy.Width, 0.3)
        | s -> s)
      Strategy.paper_eight
  in
  let points = compute ?runs ~family ~strategies () in
  tables ~family points

let figure5 ?runs () =
  let family = Workload.Strassen_ptgs in
  let points =
    compute ?runs ~family ~strategies:Strategy.paper_six ()
  in
  tables ~family points
