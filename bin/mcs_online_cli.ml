(* Online scheduling CLI: draw a scenario with Poisson arrivals, run the
   event-driven engine, and stream one JSON log line per event (JSONL)
   to stdout for observability tooling, followed by a summary line.
   Optional CSV/JSON trace export includes the release times. *)

open Cmdliner
module Strategy = Mcs_sched.Strategy
module Schedule = Mcs_sched.Schedule
module Engine = Mcs_online.Engine
module Policy = Mcs_online.Policy
module Log = Mcs_online.Log
module Fault = Mcs_fault.Fault

let run (sc : Engine_cli.scenario) mean_interarrival (e : Engine_cli.engine)
    checkpoint swap_at swap_to what_if what_if_at csv json gantt check profile
    profile_format =
  Obs_cli.scoped ~profile ~format:profile_format @@ fun () ->
  let platform = sc.platform and strategy = sc.strategy in
  let apps = Engine_cli.draw_stream sc ~mean:mean_interarrival in
  let release = Array.of_list (List.map snd apps) in
  let fault_scenario =
    try
      Option.map (fun config -> Fault.generate ~seed:sc.seed platform config)
        e.faults
    with Invalid_argument m -> Engine_cli.die m
  in
  let policy = Engine_cli.policy e strategy in
  (* --swap-to and --what-if name one preset over the CLI's default
     policy, as a --policy would. *)
  let preset name = Engine_cli.preset name (Engine_cli.base e strategy) in
  let log e = print_endline (Log.to_json e) in
  (* With --check, every reschedule generation is audited by the
     invariant analyzer; violations are reported and fail the run. *)
  let violations = ref 0 in
  let checker diags =
    List.iter
      (fun d -> prerr_endline (Mcs_check.Diagnostic.to_string d))
      (Mcs_check.Diagnostic.sort diags);
    violations :=
      !violations + List.length (Mcs_check.Diagnostic.errors diags)
  in
  let check_sink = if check then Some checker else None in
  (* The session runs through an ordered list of mid-run interventions,
     each applied once its virtual time is reached: a checkpoint (the
     session is snapshotted, dropped, and the run continues on the
     restored copy — output identical to an uninterrupted run, which CI
     diffs), a policy swap ([set_policy] with an immediate remap), and
     a what-if speculation (adopt the candidate policy only if the
     cloned trial improves the makespan). *)
  let actions =
    List.sort (fun (a, _) (b, _) -> Float.compare a b)
      ((match checkpoint with Some t -> [ (t, `Checkpoint) ] | None -> [])
      @ (match swap_at with Some t -> [ (t, `Swap) ] | None -> [])
      @
      match what_if with Some n -> [ (what_if_at, `What_if n) ] | None -> [])
  in
  let r =
    match
      let session =
        ref
          (Engine.create ~log ?check:check_sink ?faults:fault_scenario ~policy
             platform apps)
      in
      List.iter
        (fun (time, action) ->
          Engine.advance ~upto:time !session;
          match action with
          | `Checkpoint ->
            let snap = Engine.snapshot !session in
            session := Engine.restore ~log ?check:check_sink snap;
            Printf.eprintf "checkpoint/restore at t=%g\n" time
          | `Swap ->
            Engine.set_policy ~reschedule:true !session (preset swap_to);
            Printf.eprintf "policy swap to %s at t=%g\n" swap_to time
          | `What_if name ->
            let sp = Engine.what_if !session (preset name) in
            Printf.eprintf
              "what-if %s at t=%g: baseline=%.17g candidate=%.17g %s\n" name
              time sp.Engine.baseline_makespan sp.Engine.candidate_makespan
              (if sp.Engine.adopted then "adopted" else "kept incumbent"))
        actions;
      Engine.advance !session;
      Engine.result !session
    with
    | r -> r
    | exception Invalid_argument m -> Engine_cli.die m
  in
  if !violations > 0 then begin
    Printf.eprintf "invariant check: %d errors\n" !violations;
    exit 1
  end;
  (match Schedule.validate ~platform r.Engine.schedules with
  | Ok () -> ()
  | Error v ->
    prerr_endline ("internal error, invalid schedule: " ^ v.Schedule.message);
    exit 1);
  let join fmt a =
    String.concat "," (Array.to_list (Array.map fmt a))
  in
  (* The fault fields appear only under a non-empty fault process, so a
     zero-rate faulted run stays byte-identical to an un-faulted one. *)
  let fault_suffix =
    match fault_scenario with
    | Some s when not (Fault.is_empty s) ->
      Printf.sprintf
        ",\"outages\":%d,\"kills\":%d,\"task_failures\":%d,\
         \"fault_events\":%d"
        (List.length s.Fault.outages)
        r.Engine.stats.Engine.kills r.Engine.stats.Engine.task_failures
        r.Engine.stats.Engine.fault_events
    | Some _ | None -> ""
  in
  (* Likewise the resize counter appears only when a resize actually
     executed: an inert malleable run (e.g. a quantum past every
     finish) stays byte-identical to a moldable one (CI diffs it). *)
  let resize_suffix =
    if r.Engine.stats.Engine.resizes > 0 then
      Printf.sprintf ",\"resizes\":%d" r.Engine.stats.Engine.resizes
    else ""
  in
  Printf.printf
    "{\"event\":\"summary\",\"strategy\":\"%s\",\"site\":\"%s\",\
     \"apps\":%d,\"releases\":[%s],\"betas\":[%s],\"responses\":[%s],\
     \"events_processed\":%d,\"events_pushed\":%d,\"reschedules\":%d,\
     \"remapped_tasks\":%d%s%s}\n"
    (Strategy.name strategy) sc.site sc.count
    (join (Printf.sprintf "%.17g") release)
    (join (Printf.sprintf "%.17g") r.Engine.betas)
    (join (Printf.sprintf "%.17g") r.Engine.responses)
    r.Engine.stats.Engine.events_processed
    r.Engine.stats.Engine.events_pushed r.Engine.stats.Engine.reschedules
    r.Engine.stats.Engine.remapped_tasks fault_suffix resize_suffix;
  if gantt then
    prerr_string (Schedule.gantt ~platform r.Engine.schedules);
  (match csv with
  | Some path ->
    Engine_cli.write_file path
      (Mcs_sched.Trace.to_csv ~release r.Engine.schedules)
  | None -> ());
  match json with
  | Some path ->
    Engine_cli.write_file path
      (Mcs_sched.Trace.to_json ~release r.Engine.schedules)
  | None -> ()

let checkpoint =
  Arg.(value & opt (some float) None
       & info [ "checkpoint" ]
           ~doc:
             "snapshot the engine at this virtual time and continue on the \
              restored copy — the output is bit-identical to an \
              uninterrupted run (CI diffs it)")

let swap_at =
  Arg.(value & opt (some float) None
       & info [ "swap-at" ]
           ~doc:
             "swap the active policy to --swap-to at this virtual time \
              (with an immediate remap, logged as 'policy_swap')")

let swap_to =
  Arg.(value & opt string "eager"
       & info [ "swap-to" ] ~doc:"policy preset --swap-at switches to")

let what_if =
  Arg.(value & opt (some string) None
       & info [ "what-if" ]
           ~doc:
             "speculatively try this policy preset at --what-if-at on a \
              cloned session and adopt it only if it improves the makespan")

let what_if_at =
  Arg.(value & opt float 0.
       & info [ "what-if-at" ] ~doc:"virtual time of the --what-if trial")

let gantt =
  Arg.(value & flag
       & info [ "gantt" ] ~doc:"print a text Gantt chart to stderr")

let check =
  Engine_cli.check
    ~doc:
      "audit every reschedule with the invariant analyzer (plus the \
       FAULT001-003 execution-log audit under --faults and the MAL001-003 \
       resize audit under --malleable) and exit non-zero on any violated \
       rule"

let cmd =
  let doc =
    "run the event-driven online scheduler and stream JSON event logs"
  in
  Cmd.v
    (Cmd.info "mcs_online" ~doc)
    Term.(
      const run
      $ Engine_cli.scenario ~site:"rennes" ~strategy:"WPS-work" ~count:4
          ~count_doc:"submitted applications"
      $ Engine_cli.mean_interarrival 30.
      $ Engine_cli.engine ~rescheduling:Policy.Departures
      $ checkpoint $ swap_at $ swap_to $ what_if $ what_if_at $ Engine_cli.csv
      $ Engine_cli.json $ gantt $ check $ Obs_cli.profile
      $ Obs_cli.profile_format)

let () = exit (Cmd.eval cmd)
