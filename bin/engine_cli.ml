(* Command-line flags shared by the scheduling CLIs, declared once: the
   scenario (site, strategy, family, count, seed), the Poisson arrival
   stream, and the engine's policy with its fault and malleability
   settings. Each CLI passes its own defaults. A bad value is refused
   with its message and exit code 2. *)

open Cmdliner
module Strategy = Mcs_sched.Strategy
module Malleability = Mcs_sched.Malleability
module Workload = Mcs_experiments.Workload
module Policy = Mcs_online.Policy
module Fault = Mcs_fault.Fault

let die msg =
  prerr_endline msg;
  exit 2

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  Printf.eprintf "wrote %s\n" path

let parse_strategy = function
  | "S" -> Strategy.Selfish
  | "ES" -> Strategy.Equal_share
  | "PS-cp" -> Strategy.Proportional Strategy.Cp
  | "PS-width" -> Strategy.Proportional Strategy.Width
  | "PS-work" -> Strategy.Proportional Strategy.Work
  | "WPS-cp" -> Strategy.Weighted (Strategy.Cp, Strategy.paper_mu Strategy.Cp)
  | "WPS-width" ->
    Strategy.Weighted (Strategy.Width, Strategy.paper_mu Strategy.Width)
  | "WPS-work" ->
    Strategy.Weighted (Strategy.Work, Strategy.paper_mu Strategy.Work)
  | s -> die ("unknown strategy " ^ s)

let parse_family = function
  | "random" -> Workload.Random_mixed_scenarios
  | "fft" -> Workload.Fft_ptgs
  | "strassen" -> Workload.Strassen_ptgs
  | s -> die ("unknown family " ^ s)

(* ---------- scenario ---------- *)

type scenario = {
  site : string;
  platform : Mcs_platform.Platform.t;
  strategy : Strategy.t;
  family : Workload.family;
  count : int;
  seed : int;
}

let scenario ~site ~strategy ~count ~count_doc =
  let make site strategy family count seed =
    if count < 1 then die "--count must be at least 1";
    let platform =
      match Mcs_platform.Grid5000.by_name site with
      | Some p -> p
      | None ->
        die ("unknown site: " ^ site ^ " (lille|nancy|rennes|sophia|grid)")
    in
    let strategy = parse_strategy strategy in
    let family = parse_family family in
    { site; platform; strategy; family; count; seed }
  in
  Term.(
    const make
    $ Arg.(value & opt string site
           & info [ "site" ]
               ~doc:"lille, nancy, rennes, sophia, or grid (all four federated)")
    $ Arg.(value & opt string strategy
           & info [ "strategy" ]
               ~doc:
                 "S, ES, PS-cp, PS-width, PS-work, WPS-cp, WPS-width, WPS-work")
    $ Arg.(value & opt string "random"
           & info [ "family" ] ~doc:"random, fft or strassen")
    $ Arg.(value & opt int count & info [ "count" ] ~doc:count_doc)
    $ Arg.(value & opt int 0 & info [ "seed" ] ~doc:"PRNG seed"))

(* The scenario's applications, drawn from --seed. *)
let draw sc =
  Workload.draw (Mcs_prng.Prng.create ~seed:sc.seed) sc.family ~count:sc.count

(* The applications paired with Poisson release times, drawn from the
   same stream after them. *)
let draw_stream sc ~mean =
  let rng = Mcs_prng.Prng.create ~seed:sc.seed in
  let ptgs = Workload.draw rng sc.family ~count:sc.count in
  List.combine ptgs
    (Array.to_list (Workload.poisson_releases rng ~mean ~count:sc.count))

let mean_interarrival default =
  Arg.(value & opt float default
       & info [ "mean-interarrival" ]
           ~doc:"mean of the Poisson inter-arrival times, virtual seconds")

(* ---------- outputs ---------- *)

let check ~doc = Arg.(value & flag & info [ "check" ] ~doc)

let csv =
  Arg.(value & opt (some string) None
       & info [ "csv" ] ~doc:"export the schedules as CSV to this path")

let json =
  Arg.(value & opt (some string) None
       & info [ "json" ] ~doc:"export the schedules as JSON to this path")

(* ---------- policy, faults, malleability ---------- *)

type engine = {
  rescheduling : Policy.rescheduling;  (** the CLI's default *)
  retry : Policy.fault_policy;  (** --max-retries, --backoff *)
  malleability : Malleability.t option;  (** --malleable and its model *)
  presets : string list;  (** --policy, in command-line order *)
  faults : Fault.config option;  (** --faults and its process *)
}

(* The CLI's default policy with the retry and malleability flags, before
   any --policy preset. *)
let base e strategy =
  try
    Policy.make ~faults:e.retry ?malleability:e.malleability
      ~rescheduling:e.rescheduling strategy
  with Invalid_argument m -> die m

let preset name p =
  try Policy.preset name p with Invalid_argument m -> die m

(* [base] with every --policy preset applied, left to right. *)
let policy e strategy =
  List.fold_left (fun p name -> preset name p) (base e strategy) e.presets

let engine ~rescheduling =
  let make presets faults mttf mttr task_fail_p granularity horizon
      max_retries backoff malleable quantum redist_cost min_width shrink_above
      grow_below =
    let granularity =
      match granularity with
      | "proc" -> Fault.Proc
      | "cluster" -> Fault.Cluster
      | g -> die ("unknown fault granularity: " ^ g ^ " (proc|cluster)")
    in
    let faults =
      if not faults then None
      else begin
        let config = { Fault.mttf; mttr; task_fail_p; granularity; horizon } in
        (try Fault.validate config with Invalid_argument m -> die m);
        Some config
      end
    in
    let malleability =
      if not malleable then None
      else
        Some
          {
            Malleability.default with
            Malleability.quantum;
            redist_cost;
            min_width;
            shrink_active_above = shrink_above;
            grow_active_below = grow_below;
          }
    in
    let retry =
      { Policy.default_faults with Policy.max_retries; backoff_base = backoff }
    in
    let e = { rescheduling; retry; malleability; presets; faults } in
    (* Refuse an ill-formed setting before the command runs. *)
    ignore (policy e Strategy.Selfish);
    e
  in
  Term.(
    const make
    $ Arg.(value & opt_all string []
           & info [ "policy" ] ~docv:"NAME"
               ~doc:
                 (Printf.sprintf
                    "policy preset, repeatable; presets apply left to right \
                     over the default: %s"
                    (String.concat ", " Policy.presets)))
    $ Arg.(value & flag
           & info [ "faults" ]
               ~doc:
                 "inject a seeded fault process: processor outages drawn \
                  from --mttf/--mttr and transient task failures from \
                  --task-fail-p (drawn from --seed; serving shard k draws \
                  from seed+k)")
    $ Arg.(value & opt float Fault.default.mttf
           & info [ "mttf" ]
               ~doc:
                 "mean time to failure per unit, seconds ('inf' disables \
                  outages)")
    $ Arg.(value & opt float Fault.default.mttr
           & info [ "mttr" ] ~doc:"mean time to repair, seconds")
    $ Arg.(value & opt float Fault.default.task_fail_p
           & info [ "task-fail-p" ]
               ~doc:"per-attempt transient task failure probability in [0,1]")
    $ Arg.(value & opt string "proc"
           & info [ "fault-granularity" ]
               ~doc:"failure unit: proc (independent processors) or cluster")
    $ Arg.(value & opt float Fault.default.horizon
           & info [ "fault-horizon" ]
               ~doc:"no outage begins after this time, seconds")
    $ Arg.(value & opt int Policy.default_faults.max_retries
           & info [ "max-retries" ]
               ~doc:
                 "transient failures tolerated per task before the next \
                  attempt is carried through")
    $ Arg.(value & opt float Policy.default_faults.backoff_base
           & info [ "backoff" ]
               ~doc:
                 "retry backoff base, seconds (retry k waits base*2^(k-1); \
                  base*k under --policy linear-backoff)")
    $ Arg.(value & flag
           & info [ "malleable" ]
               ~doc:
                 "let the engine grow/shrink running tasks at resize points \
                  (without this flag tasks are moldable: widths are fixed at \
                  start, bit-identical to the pre-malleability engine)")
    $ Arg.(value & opt float Malleability.default.quantum
           & info [ "resize-quantum" ]
               ~doc:
                 "grid spacing of legal resize points, seconds (a running \
                  segment may only be preempted at start + k*quantum)")
    $ Arg.(value & opt float Malleability.default.redist_cost
           & info [ "redist-cost" ]
               ~doc:"redistribution overhead per moved processor, seconds")
    $ Arg.(value & opt int Malleability.default.min_width
           & info [ "min-width" ]
               ~doc:"no resized segment runs on fewer processors")
    $ Arg.(value & opt int Malleability.default.shrink_active_above
           & info [ "shrink-above" ]
               ~doc:"shrink running tasks while more applications are active")
    $ Arg.(value & opt int Malleability.default.grow_active_below
           & info [ "grow-below" ]
               ~doc:"grow running tasks while fewer applications are active"))
