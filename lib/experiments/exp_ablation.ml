module Strategy = Mcs_sched.Strategy
module Pipeline = Mcs_sched.Pipeline
module List_mapper = Mcs_sched.List_mapper
module Allocation = Mcs_sched.Allocation
module Table = Mcs_util.Table

let config_table ~title ~seed ~configs ~columns ?runs
    ?(counts = Workload.paper_counts) () =
  let results =
    Sweep.run ?runs ~counts ~seed ~variants:configs
      ~makespan:(fun r -> r.Runner.global_makespan)
      (fun sc ->
        List.map (fun (_, config) ->
            match
              Runner.evaluate ~config sc.Sweep.platform sc.Sweep.ptgs
                [ Strategy.Equal_share ]
            with
            | [ r ] -> r
            | _ -> assert false))
  in
  Sweep.grid ~title ~corner:"#PTGs"
    ~rows:(List.map (fun c -> (string_of_int c, c)) counts)
    ~cols:
      (List.concat_map
         (fun (name, metric) ->
           List.map
             (fun (label, _) -> (name ^ " " ^ label, (label, metric)))
             configs)
         columns)
    (fun count (label, metric) ->
      List.find_map
        (fun (c, (l, _), s) ->
          if c = count && l = label then Some (Table.fmt_float (metric s))
          else None)
        results)

let columns =
  [
    ("unfairness", fun s -> s.Sweep.mean (fun r -> r.Runner.unfairness));
    ("makespan (s)", fun s -> s.Sweep.mean (fun r -> r.Runner.global_makespan));
  ]

let packing_table ?runs ?counts () =
  config_table
    ~title:"Ablation — allocation packing on/off (ES strategy, random PTGs)"
    ~seed:106
    ~configs:
      [
        ("packing", Pipeline.default_config);
        ( "no packing",
          {
            Pipeline.default_config with
            mapper = { List_mapper.default_options with packing = false };
          } );
      ]
    ~columns ?runs ?counts ()

let procedure_table ?runs ?counts () =
  config_table
    ~title:
      "Ablation — SCRAP vs SCRAP-MAX allocation (ES strategy, random PTGs)"
    ~seed:107
    ~configs:
      [
        ("SCRAP-MAX", Pipeline.default_config);
        ("SCRAP", { Pipeline.default_config with procedure = Allocation.Scrap });
      ]
    ~columns ?runs ?counts ()
