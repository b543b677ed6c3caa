module Engine = Mcs_online.Engine
module Fault = Mcs_fault.Fault

type t = {
  unfairness : float;
  response_makespan : float;
  stats : Engine.stats;
}

let evaluate ~fault_seed ~release platform ptgs runs =
  let own =
    Array.of_list
      (List.map
         (fun ptg ->
           Runner.makespan_alone ~timing:Runner.Estimated platform ptg)
         ptgs)
  in
  let apps = List.mapi (fun i ptg -> (ptg, release.(i))) ptgs in
  List.map
    (fun (config, policy) ->
      let faults =
        Option.map
          (fun config -> Fault.generate ~seed:fault_seed platform config)
          config
      in
      let r =
        Engine.run ~check:Mcs_check.Check.fail_on_error ?faults ~policy
          platform apps
      in
      {
        unfairness =
          Mcs_metrics.Metrics.unfairness_of_makespans ~own
            ~multi:r.Engine.responses;
        response_makespan = Mcs_util.Floatx.maximum r.Engine.responses;
        stats = r.Engine.stats;
      })
    runs
