(* End-to-end checks of the scheduling CLIs: the online engine's event
   log stays byte-identical to committed golden files (one of them per
   policy preset, recorded with the dedicated switches the presets
   replaced), and bad inputs are refused with exit code 2 instead of
   escaping as uncaught exceptions or livelocking. *)

module Malleability = Mcs_sched.Malleability
module Fault = Mcs_fault.Fault
module Floatx = Mcs_util.Floatx

(* Paths relative to the test binary, which dune builds next to its
   fixtures and beside the bin/ directory it depends on. *)
let here = Filename.dirname Sys.executable_name
let online_cli = Filename.concat here "../bin/mcs_online_cli.exe"
let serve_cli = Filename.concat here "../bin/mcs_serve_cli.exe"
let sched_cli = Filename.concat here "../bin/mcs_sched_cli.exe"
let experiments_cli = Filename.concat here "../bin/mcs_experiments_cli.exe"

(* Run [exe] with [args], and [env] bindings added to the environment;
   returns its exit code and its stdout. *)
let run_cli ?(env = []) exe args =
  let out = Filename.temp_file "mcs_cli" ".out" in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process_env exe
      (Array.of_list (exe :: args))
      (Array.append (Array.of_list env) (Unix.environment ()))
      Unix.stdin fd null
  in
  Unix.close fd;
  Unix.close null;
  let code =
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> -1
  in
  let text = In_channel.with_open_bin out In_channel.input_all in
  Sys.remove out;
  (code, text)

let fixture name =
  In_channel.with_open_bin
    (Filename.concat here ("fixtures/" ^ name))
    In_channel.input_all

let check_golden name (code, log) =
  Alcotest.(check int) (name ^ ": exit 0") 0 code;
  Alcotest.(check bool)
    (name ^ ": log byte-identical to the golden file")
    true
    (String.equal log (fixture name))

let test_online_golden_log () =
  check_golden "online_golden.jsonl"
    (run_cli online_cli
       [
         "--count"; "8"; "--seed"; "11"; "--faults"; "--mttf"; "2000";
         "--mttr"; "120"; "--task-fail-p"; "0.05"; "--malleable";
         "--resize-quantum"; "10"; "--check";
       ])

(* The online_preset_* and serve_preset_* fixtures were recorded with
   the switches --static, --reschedule-on-finish, --shrink-on-retry and
   (serve) --dynamic, which the --policy presets replace. *)
let test_presets_match_removed_switches () =
  let online = [ "--count"; "6"; "--seed"; "5" ] in
  let faulted =
    online
    @ [
        "--faults"; "--mttf"; "600"; "--mttr"; "60"; "--task-fail-p"; "0.1";
        "--fault-horizon"; "200";
      ]
  in
  check_golden "online_preset_static.jsonl"
    (run_cli online_cli (online @ [ "--policy"; "static" ]));
  check_golden "online_preset_eager.jsonl"
    (run_cli online_cli (online @ [ "--policy"; "eager" ]));
  check_golden "online_preset_shrink.jsonl"
    (run_cli online_cli (faulted @ [ "--policy"; "shrink-retry" ]));
  check_golden "online_preset_static_shrink.jsonl"
    (run_cli online_cli
       (faulted @ [ "--policy"; "static"; "--policy"; "shrink-retry" ]));
  (* The serve summary carries wall time: compare the merged log only. *)
  let log = Filename.temp_file "mcs_serve" ".jsonl" in
  let code, _ =
    run_cli serve_cli
      [
        "--count"; "60"; "--shards"; "2"; "--inline"; "--policy"; "dynamic";
        "--log"; log;
      ]
  in
  let merged = In_channel.with_open_bin log In_channel.input_all in
  Sys.remove log;
  check_golden "serve_preset_dynamic.jsonl" (code, merged)

let check_refused ?env name exe args =
  let code, _ = run_cli ?env exe args in
  Alcotest.(check int) (name ^ ": exit 2") 2 code

let test_count_zero_refused () =
  check_refused "online --count 0" online_cli [ "--count"; "0" ];
  check_refused "online --count -1" online_cli [ "--count=-1" ];
  check_refused "serve --count 0" serve_cli [ "--inline"; "--count"; "0" ];
  check_refused "sched --count 0" sched_cli [ "--count"; "0" ];
  check_refused "serve --rate=-5" serve_cli
    [ "--inline"; "--count"; "3"; "--rate=-5" ];
  check_refused "serve --rate nan" serve_cli
    [ "--inline"; "--count"; "3"; "--rate"; "nan" ]

let test_tiny_time_parameters_refused () =
  (* Used to livelock: resize points re-armed within the time tolerance
     of [now], so the same-instant drain never let time advance. *)
  check_refused "online --resize-quantum 1e-9" online_cli
    [ "--count"; "3"; "--malleable"; "--resize-quantum"; "1e-9" ];
  check_refused "online --mttf/--mttr 1e-9" online_cli
    [ "--count"; "3"; "--faults"; "--mttf"; "1e-9"; "--mttr"; "1e-9" ];
  check_refused "serve --resize-quantum 1e-9" serve_cli
    [ "--inline"; "--count"; "3"; "--malleable"; "--resize-quantum"; "1e-9" ];
  (* The documented floor itself is accepted (a short cluster-granularity
     horizon keeps the run to a handful of outages). *)
  let code, _ =
    run_cli online_cli
      [
        "--count"; "1"; "--faults"; "--mttf"; "1e-6"; "--mttr"; "1e-6";
        "--fault-horizon"; "1e-6"; "--fault-granularity"; "cluster";
      ]
  in
  Alcotest.(check int) "online --mttf/--mttr 1e-6 accepted" 0 code;
  let raises f = try f (); false with Invalid_argument _ -> true in
  let below = Floatx.time_floor /. 2. in
  let model q = { Malleability.default with Malleability.quantum = q } in
  Alcotest.(check bool) "quantum below the floor" true
    (raises (fun () -> Malleability.validate (model below)));
  Alcotest.(check bool) "quantum at the floor" false
    (raises (fun () -> Malleability.validate (model Floatx.time_floor)));
  Alcotest.(check bool) "quantum 1e-6" false
    (raises (fun () -> Malleability.validate (model 1e-6)));
  let config = { Fault.default with Fault.mttf = 100.; mttr = 10. } in
  Alcotest.(check bool) "mttf below the floor" true
    (raises (fun () -> Fault.validate { config with Fault.mttf = below }));
  Alcotest.(check bool) "mttr below the floor" true
    (raises (fun () -> Fault.validate { config with Fault.mttr = below }));
  Alcotest.(check bool) "mttf/mttr at the floor" false
    (raises (fun () ->
         Fault.validate
           {
             config with
             Fault.mttf = Floatx.time_floor;
             mttr = Floatx.time_floor;
           }));
  Alcotest.(check bool) "mttf/mttr 1e-6" false
    (raises (fun () ->
         Fault.validate { config with Fault.mttf = 1e-6; mttr = 1e-6 }))

(* A bad run count used to fall back silently to the 25-run paper
   sweep; it must be refused before any scenario runs. *)
let test_bad_run_counts_refused () =
  List.iter
    (fun v ->
      check_refused
        ~env:[ "MCS_RUNS=" ^ v ]
        ("MCS_RUNS=" ^ v ^ " fig5") experiments_cli [ "fig5" ])
    [ "abc"; "0"; "-3"; "" ];
  check_refused "--runs=-5" experiments_cli [ "fig5"; "--runs=-5" ];
  check_refused "--runs 0" experiments_cli [ "fig5"; "--runs"; "0" ];
  check_refused "unknown experiment" experiments_cli [ "fig9"; "--runs"; "1" ]

(* Only the refusal path is exercised: these configurations would
   materialise billions of outages if they were ever generated. *)
let test_unbounded_outage_count_refused () =
  let tiny = [ "--faults"; "--mttf"; "1e-6"; "--mttr"; "1e-6" ] in
  check_refused "online --mttf/--mttr 1e-6, default horizon" online_cli
    ([ "--count"; "1" ] @ tiny);
  check_refused "serve --mttf/--mttr 1e-6, default horizon" serve_cli
    ([ "--inline"; "--count"; "1" ] @ tiny);
  let platform = Mcs_platform.Grid5000.rennes () in
  let refused config =
    match Fault.generate ~seed:1 platform config with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  let tiny = { Fault.default with Fault.mttf = 1e-6; mttr = 1e-6 } in
  Alcotest.(check bool) "per-processor units" true (refused tiny);
  Alcotest.(check bool) "cluster units" true
    (refused { tiny with Fault.granularity = Fault.Cluster })

let suite =
  [
    ( "cli",
      [
        Alcotest.test_case "online golden log byte-identical" `Quick
          test_online_golden_log;
        Alcotest.test_case "--count 0 refused with exit 2" `Quick
          test_count_zero_refused;
        Alcotest.test_case "too-small time parameters refused" `Quick
          test_tiny_time_parameters_refused;
        Alcotest.test_case "policy presets match the removed switches"
          `Quick test_presets_match_removed_switches;
        Alcotest.test_case "bad run counts refused with exit 2" `Quick
          test_bad_run_counts_refused;
        Alcotest.test_case "unbounded outage count refused" `Quick
          test_unbounded_outage_count_refused;
      ] );
  ]
