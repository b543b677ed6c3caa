(* Experiment CLI: regenerate any table/figure of the paper (and the
   repo's extra experiments) by id or alias. The ids are those of
   Mcs_experiments.Registry; see DESIGN.md section 5 for the index. *)

open Cmdliner
module E = Mcs_experiments

let die msg =
  prerr_endline msg;
  exit 2

let run_experiment id runs profile profile_format =
  let entry =
    match E.Registry.find id with
    | Some e -> e
    | None ->
      die
        ("unknown experiment " ^ String.lowercase_ascii id ^ " ("
        ^ String.concat " " (List.map (fun e -> e.E.Registry.id) E.Registry.all)
        ^ ")")
  in
  let runs =
    match runs with
    | Some n when n >= 1 -> n
    | Some n -> die (Printf.sprintf "--runs must be at least 1, got %d" n)
    | None -> (
      try E.Sweep.runs_from_env () with Invalid_argument m -> die m)
  in
  Obs_cli.scoped ~profile ~format:profile_format @@ fun () ->
  List.iter Mcs_util.Table.print (entry.E.Registry.run ~runs)

let id =
  Arg.(value & pos 0 string "table1"
       & info [] ~docv:"EXPERIMENT"
           ~doc:
             ("one of: "
             ^ String.concat ", "
                 (List.map
                    (fun e ->
                      match e.E.Registry.aliases with
                      | [] -> e.E.Registry.id
                      | aliases ->
                        Printf.sprintf "%s (%s)" e.E.Registry.id
                          (String.concat ", " aliases))
                    E.Registry.all)))

let runs =
  Arg.(value & opt (some int) None
       & info [ "runs" ] ~docv:"N"
           ~doc:"combinations per (count, platform) point, at least 1 \
                 (default: the MCS_RUNS environment variable, or the \
                 paper's 25)")

let cmd =
  let doc = "regenerate the paper's tables and figures" in
  Cmd.v
    (Cmd.info "mcs_experiments" ~doc)
    Term.(
      const run_experiment $ id $ runs $ Obs_cli.profile
      $ Obs_cli.profile_format)

let () = exit (Cmd.eval cmd)
