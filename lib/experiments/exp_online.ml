module Strategy = Mcs_sched.Strategy
module Pipeline = Mcs_sched.Pipeline
module Metrics = Mcs_metrics.Metrics
module Engine = Mcs_online.Engine
module Policy = Mcs_online.Policy

type mode = Offline | Online

let mode_name = function Offline -> "offline" | Online -> "online"

type point = {
  strategy : Strategy.t;
  mode : mode;
  count : int;
  unfairness : float;
  relative_makespan : float;
}

let strategies =
  [
    Strategy.Equal_share;
    Strategy.Proportional Strategy.Work;
    Strategy.Weighted (Strategy.Work, 0.7);
  ]

let modes = [ Offline; Online ]

(* One (strategy, mode) run: unfairness and the largest response time,
   both from the fluid replay of the produced schedules. Both modes run
   under the invariant analyzer: a broken schedule aborts the
   experiment instead of skewing it. *)
let evaluate ~seed ~mean_interarrival sc variants =
  let platform = sc.Sweep.platform and ptgs = sc.Sweep.ptgs in
  (* Same arrival stream as Exp_arrivals, so the offline columns are
     directly comparable across the two tables. *)
  let release = Sweep.poisson_release ~seed ~mean:mean_interarrival sc in
  let own =
    Array.of_list
      (List.map (fun ptg -> Runner.makespan_alone platform ptg) ptgs)
  in
  List.map
    (fun (strategy, mode) ->
      let schedules =
        match mode with
        | Offline ->
          Pipeline.schedule_concurrent ~release
            ~check:(Mcs_check.Check.pipeline_hook ~release ~strategy platform)
            ~strategy platform ptgs
        | Online ->
          let apps = List.mapi (fun i ptg -> (ptg, release.(i))) ptgs in
          (Engine.run ~check:Mcs_check.Check.fail_on_error
             ~policy:(Policy.make strategy) platform apps)
            .Engine.schedules
      in
      let sim = Mcs_sim.Replay.run ~release platform schedules in
      let responses =
        Array.mapi (fun i c -> c -. release.(i)) sim.Mcs_sim.Replay.makespans
      in
      let slowdowns =
        Array.mapi
          (fun i m -> Metrics.slowdown ~own:own.(i) ~multi:m)
          responses
      in
      (Metrics.unfairness slowdowns, Mcs_util.Floatx.maximum responses))
    variants

let compute ?runs ?(counts = Workload.paper_counts) ?(seed = 411)
    ?(mean_interarrival = 30.) () =
  List.map
    (fun (count, (strategy, mode), s) ->
      {
        strategy;
        mode;
        count;
        unfairness = s.Sweep.mean fst;
        relative_makespan = s.Sweep.relative_makespan;
      })
    (Sweep.run ?runs ~counts ~seed
       ~variants:
         (List.concat_map
            (fun strategy -> List.map (fun mode -> (strategy, mode)) modes)
            strategies)
       ~makespan:snd
       (evaluate ~seed ~mean_interarrival))

let table ?runs () =
  let points = compute ?runs () in
  let counts = List.sort_uniq compare (List.map (fun p -> p.count) points) in
  Sweep.grid
    ~title:
      "Online dynamic β (event-driven engine) vs offline approximation — \
       unfairness / relative response time"
    ~corner:"strategy / mode"
    ~rows:
      (List.concat_map
         (fun strategy ->
           List.map
             (fun mode ->
               (Strategy.name strategy ^ " " ^ mode_name mode, (strategy, mode)))
             modes)
         strategies)
    ~cols:(List.map (fun c -> (string_of_int c ^ " PTGs", c)) counts)
    (fun (strategy, mode) count ->
      Option.map
        (fun p -> Printf.sprintf "%.2f / %.2f" p.unfairness p.relative_makespan)
        (List.find_opt
           (fun p -> p.strategy = strategy && p.mode = mode && p.count = count)
           points))
