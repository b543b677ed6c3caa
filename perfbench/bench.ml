(* The repository benchmark: named workloads, each run from its seed
   for a fixed wall-clock budget.

     bench --workload NAME|all --seed N --seconds S --trace 0|1

   [--trace 0] measures the end-to-end metrics with the recorder off;
   [--trace 1] measures the per-layer metrics: an untraced pass, then a
   traced pass with Mcs_obs.Obs enabled, exported as a Chrome trace.
   Either way every output is fingerprinted against a verification run
   of the same seed with the checker on. Human-readable lines go first;
   the last line of standard output is one JSON object. The metric
   names and units come from BENCHMARK.json, the single list of what a
   run must report. *)

module Obs = Mcs_obs.Obs
module Export = Mcs_obs.Export
module Jsonx = Mcs_util.Jsonx
module Prng = Mcs_prng.Prng
module Grid5000 = Mcs_platform.Grid5000
module Task = Mcs_taskmodel.Task
module Random_gen = Mcs_ptg.Random_gen
module Strategy = Mcs_sched.Strategy
module Pipeline = Mcs_sched.Pipeline
module Engine = Mcs_online.Engine
module Policy = Mcs_online.Policy
module Fault = Mcs_fault.Fault
module Service = Mcs_serve.Service
module Admission = Mcs_serve.Admission
module Runner = Mcs_experiments.Runner
module Replay = Mcs_sim.Replay

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let timed f =
  let t = now () in
  let r = f () in
  (r, now () -. t)

let sum = Array.fold_left ( +. ) 0.
let mean a = if Array.length a = 0 then Float.nan else sum a /. float_of_int (Array.length a)
let span name f = Obs.with_span ("bench." ^ name) f

(* ---------- Inputs ---------- *)

(* Applications are drawn from the paper's grid of random-PTG parameters
   (as Workload.draw does for random mixed scenarios: tasks 10/20/50,
   width, regularity, density, jump, cost class). A recipe stream with a
   fixed seed draws them, so every run of a workload schedules the same
   kinds of applications: a single 50-task graph can move a run's cost
   by 3x, which would otherwise swamp every timing. [--seed] draws what
   varies between runs: the order and times of arrivals, the fault
   process, and in paper-eval the graphs of the scenarios that hold no
   50-task application. *)
let recipe_seed = 2009

let draw_params rng =
  let class_ =
    Prng.choose rng
      [| Task.Class_stencil; Task.Class_sort; Task.Class_matmul; Task.Class_mixed |]
  in
  {
    Random_gen.tasks = Prng.choose rng [| 10; 20; 50 |];
    width = Prng.choose rng [| 0.2; 0.5; 0.8 |];
    regularity = Prng.choose rng [| 0.2; 0.8 |];
    density = Prng.choose rng [| 0.2; 0.8 |];
    jump = Prng.choose rng [| 1; 2; 4 |];
    class_;
  }

let recipe ~tag k = Prng.create ~seed:(Hashtbl.hash (tag, recipe_seed, k))
let seeded ~tag ~seed k = Prng.create ~seed:(Hashtbl.hash (tag, seed, k))

(* Instance [k]'s applications from the recipe, in an order drawn from
   the seed; ids follow the submission order. *)
let draw_stream ~tag ~seed k ~count =
  let r = recipe ~tag k in
  let pool =
    Array.init count (fun id -> Random_gen.generate ~id r (draw_params r))
  in
  Prng.shuffle (seeded ~tag ~seed k) pool;
  List.mapi (fun i ptg -> Mcs_ptg.Ptg.with_id ptg i) (Array.to_list pool)

(* Poisson arrivals, the first at 0. *)
let releases ~tag ~seed k ~count ~mean =
  let rng = seeded ~tag:(tag ^ "/arrivals") ~seed k in
  let clock = ref 0. in
  List.init count (fun i ->
      if i > 0 then clock := !clock +. Prng.exponential rng ~mean;
      !clock)

(* ---------- What one run of one instance yields ---------- *)

type outcome = {
  outputs : float array;  (** fingerprinted: responses or makespans *)
  responses : float array;  (** per application, virtual seconds *)
  apps : int;  (** applications scheduled (× strategies in paper-eval) *)
  attempts : int;
  failures : int;  (** rejections, incomplete apps, checker errors *)
  decisions : float array;  (** per-arrival decision latency, s *)
  waits : float array;  (** per-submission wall time in Service.submit, s *)
  close_s : float;
  stats : Engine.stats list;
  unfairness : float array;  (** per scenario × strategy *)
  rel_makespan : float array;
}

let outcome ~outputs ~responses ~apps ~attempts ~failures =
  {
    outputs;
    responses;
    apps;
    attempts;
    failures;
    decisions = [||];
    waits = [||];
    close_s = 0.;
    stats = [];
    unfairness = [||];
    rel_makespan = [||];
  }

let incomplete a = Array.fold_left (fun n x -> if Float.is_finite x then n else n + 1) 0 a

(* An instance sets itself up (input generation + service or session
   creation; timed as set-up) and returns the run to time. *)
type instance = check:bool -> unit -> unit -> outcome

(* ---------- serve-inline ---------- *)

(* The serving default (Least_work routing, static WPS-work) in inline
   mode with 4 shards and a 5 s beta-batching window. *)
let serve_instance ~tag ~count ~seed k : instance =
 fun ~check () ->
  let platform = Grid5000.grid () in
  let ptgs = draw_stream ~tag ~seed k ~count in
  let apps = List.combine ptgs (releases ~tag ~seed k ~count ~mean:1.) in
  let config =
    {
      Service.default_config with
      Service.shards = 4;
      mode = Service.Inline;
      admission = { Admission.default with batch_window = 5. };
      check;
    }
  in
  let service = span "Service.create" (fun () -> Service.create config platform) in
  fun () ->
    let waits =
      Array.of_list
        (List.map
           (fun (ptg, release) ->
             snd
               (timed (fun () ->
                    span "Service.submit" (fun () ->
                        ignore (Service.submit service ptg ~release)))))
           apps)
    in
    let report, close_s =
      timed (fun () -> span "Service.close" (fun () -> Service.close service))
    in
    let r = report.Service.responses in
    {
      (outcome ~outputs:r ~responses:r ~apps:count ~attempts:count
         ~failures:(incomplete r + report.Service.violations))
      with
      waits;
      close_s;
      stats =
        Array.to_list
          (Array.map
             (fun (s : Mcs_serve.Shard.report) -> s.engine.Engine.stats)
             report.Service.shards);
    }

(* ---------- engine-dynamic ---------- *)

let engine_policy =
  Policy.make
    ~malleability:{ Mcs_sched.Malleability.default with quantum = 10. }
    (Strategy.Weighted (Strategy.Work, 0.7))

let engine_instance ~count ~mean ~seed k : instance =
 fun ~check () ->
  let tag = "engine-dynamic" in
  let platform = Grid5000.rennes () in
  (* The arrival order comes from the recipe too: in a session this long
     it decides how many large applications overlap, which moved a run's
     cost by 25% and its memory peak by 20% from one seed to the next. *)
  let ptgs = draw_stream ~tag ~seed:recipe_seed k ~count in
  let apps = List.combine ptgs (releases ~tag ~seed k ~count ~mean) in
  let faults =
    Fault.generate ~seed:(Hashtbl.hash (tag ^ "/faults", seed, k)) platform
      { Fault.default with mttf = 2000.; mttr = 120.; task_fail_p = 0.05 }
  in
  let errors = ref 0 in
  let check =
    if check then
      Some
        (fun diags ->
          errors :=
            !errors
            + List.length
                (List.filter
                   (fun (d : Mcs_check.Diagnostic.t) ->
                     d.severity = Mcs_check.Diagnostic.Error)
                   diags))
    else None
  in
  let session =
    span "Engine.create" (fun () ->
        Engine.create ?check ~faults ~policy:engine_policy platform [])
  in
  let advance ?upto () = span "Engine.advance" (fun () -> Engine.advance ?upto session) in
  fun () ->
    let decisions =
      Array.of_list
        (List.map
           (fun (ptg, release) ->
             advance ~upto:release ();
             span "Engine.submit" (fun () ->
                 ignore (Engine.submit session ptg ~release ~at:release));
             snd (timed (fun () -> advance ~upto:(Float.succ release) ())))
           apps)
    in
    advance ();
    let r = span "Engine.result" (fun () -> Engine.result session) in
    {
      (outcome ~outputs:r.Engine.completions ~responses:r.Engine.responses
         ~apps:count ~attempts:count
         ~failures:(incomplete r.Engine.completions + !errors))
      with
      decisions;
      stats = [ r.Engine.stats ];
    }

(* ---------- paper-eval ---------- *)

(* Scenario [j] on subset [k]. Replay cost hinges on the graphs of
   50-task applications, so a scenario holding one keeps its recipe
   graphs; the others draw theirs from the seed. *)
let paper_scenarios ~seed k ~scenarios ~count =
  List.init scenarios (fun j ->
      let tag = "paper-eval" and j = (k * 1000) + j in
      let r = recipe ~tag j in
      let params = List.init count (fun _ -> draw_params r) in
      let rng =
        if List.exists (fun p -> p.Random_gen.tasks = 50) params then r
        else seeded ~tag ~seed j
      in
      List.mapi (fun id p -> Random_gen.generate ~id rng p) params)

let paper_instance ~scenarios ~count ~seed k : instance =
 fun ~check () ->
  let platform = List.nth (Grid5000.all ()) k in
  let sets = paper_scenarios ~seed k ~scenarios ~count in
  fun () ->
    let per_scenario =
      List.map
        (fun ptgs ->
          match
            span "Runner.evaluate" (fun () ->
                Runner.evaluate ~check platform ptgs Strategy.paper_eight)
          with
          | runs ->
            let best =
              List.fold_left
                (fun b (m : Runner.run_metrics) -> Float.min b m.global_makespan)
                Float.infinity runs
            in
            ( Array.concat (List.map (fun (m : Runner.run_metrics) -> m.makespans) runs),
              List.map (fun (m : Runner.run_metrics) -> m.unfairness) runs,
              List.map
                (fun (m : Runner.run_metrics) ->
                  Mcs_metrics.Metrics.relative_makespan m.global_makespan ~best)
                runs,
              0 )
          | exception Mcs_check.Check.Violation _ ->
            let n = List.length Strategy.paper_eight in
            (Array.make (n * count) Float.nan, [], [], n))
        sets
    in
    let outputs = Array.concat (List.map (fun (o, _, _, _) -> o) per_scenario) in
    let attempts = scenarios * List.length Strategy.paper_eight in
    {
      (outcome ~outputs ~responses:outputs ~apps:(attempts * count) ~attempts
         ~failures:(List.fold_left (fun n (_, _, _, f) -> n + f) 0 per_scenario))
      with
      unfairness = Array.of_list (List.concat_map (fun (_, u, _, _) -> u) per_scenario);
      rel_makespan = Array.of_list (List.concat_map (fun (_, _, r, _) -> r) per_scenario);
    }

(* The sim layer timed from outside: every schedule set of the paper
   protocol replayed by the benchmark's own Replay.run calls. Returns
   the makespans (which must match Runner.evaluate's), the replay time,
   flows and events. *)
let paper_replays ~scenarios ~count ~seed k =
  let platform = List.nth (Grid5000.all ()) k in
  let out = ref [] and replay_s = ref 0. and flows = ref 0 and events = ref 0 in
  List.iter
    (fun ptgs ->
      List.iter
        (fun strategy ->
          let schedules = Pipeline.schedule_concurrent ~strategy platform ptgs in
          let r, dt = timed (fun () -> Replay.run platform schedules) in
          replay_s := !replay_s +. dt;
          flows := !flows + r.Replay.flows_created;
          events := !events + r.Replay.events_processed;
          out := r.Replay.makespans :: !out)
        Strategy.paper_eight)
    (paper_scenarios ~seed k ~scenarios ~count);
  (Array.concat (List.rev !out), !replay_s, !flows, !events)

(* ---------- Workloads ---------- *)

type workload = {
  name : string;
  instances : seed:int -> instance list;
  traced : int;  (** leading instances a traced run records *)
  default_seed : int;
}

let serve_streams = 8
let serve_apps = 200
let engine_sessions = 5
let engine_arrivals = 40
let engine_gap = 40.
let paper_per_subset = 12
let paper_count = 2

let workloads =
  [
    {
      name = "serve-inline";
      default_seed = 1;
      traced = 1;
      instances =
        (fun ~seed ->
          List.init serve_streams
            (serve_instance ~tag:"serve-inline" ~count:serve_apps ~seed));
    };
    {
      name = "engine-dynamic";
      default_seed = 1;
      traced = 1;
      instances =
        (fun ~seed ->
          List.init engine_sessions
            (engine_instance ~count:engine_arrivals ~mean:engine_gap ~seed));
    };
    {
      name = "paper-eval";
      default_seed = 1;
      traced = 4;
      instances =
        (fun ~seed ->
          List.init 4
            (paper_instance ~scenarios:paper_per_subset ~count:paper_count ~seed));
    };
  ]

(* ---------- Measurement ---------- *)

(* Shared hosts drift in speed by tens of percent over seconds to
   minutes, so raw times of two runs are not comparable. Before every
   repetition, and after the last, the benchmark times a fixed kernel
   that uses only the standard library — no code of this repository —
   for about 10% of the previous repetition's time. Each repetition's
   times are reported in reference seconds: raw × [kernel_ref_s] / the
   mean kernel time of the calibrations just before and just after it,
   so a slow spell of the host inside one run is corrected where it
   happened. A change to the scheduler moves the raw times and leaves
   the kernel alone; the raw times are printed too. *)
let kernel_ref_s = 0.06

(* A random DAG of 40,000 nodes as adjacency lists (about 8 MB of small
   blocks, like a graph generator's), its longest path by dynamic
   programming, then a sort of the nodes by distance. *)
let kernel () =
  let t = now () in
  let n = 40_000 in
  let st = Random.State.make [| 2009 |] in
  let adj = Array.make n [] in
  for i = 1 to n - 1 do
    for _ = 1 to 3 do
      let j = Random.State.int st i in
      adj.(j) <- (i, Random.State.float st 1.) :: adj.(j)
    done
  done;
  let dist = Array.make n 0. in
  Array.iteri
    (fun i edges ->
      List.iter
        (fun (j, w) -> if dist.(i) +. w > dist.(j) then dist.(j) <- dist.(i) +. w)
        edges)
    adj;
  let order = Array.init n Fun.id in
  Array.sort (fun a b -> Float.compare dist.(a) dist.(b)) order;
  ignore (Sys.opaque_identity order);
  now () -. t

(* Kernel times of one calibration: at least one run, about [budget]
   seconds, from a collected heap. *)
let calibrate ~budget =
  Gc.full_major ();
  let stop = now () +. budget in
  let rec go acc =
    let acc = kernel () :: acc in
    if now () < stop then go acc else acc
  in
  Array.of_list (go [])

let median_sum lists =
  Array.fold_left (fun a l -> a +. Pstats.median (Array.of_list l)) 0. lists

let concat_map f a = Array.concat (Array.to_list (Array.map f a))

(* Peak resident size (VmHWM) since the last [reset_peak_rss], which
   sets it back to the current resident size. *)
let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | status ->
    List.find_map
      (fun line ->
        Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.))
      (String.split_on_char '\n' status)
    |> Option.value ~default:Float.nan
  | exception Sys_error _ -> Float.nan

let reset_peak_rss () =
  try Out_channel.with_open_text "/proc/self/clear_refs" (fun oc -> output_string oc "5")
  with Sys_error _ -> ()

type measured = {
  setups : float list array;  (** per instance, one per repetition; reference s *)
  walls : float list array;  (** reference s *)
  raw_setup : float;  (** Σ per-instance medians of the raw times, s *)
  raw_wall : float;
  first : outcome array;  (** first timed outcome of each instance *)
  decisions : float array;  (** per arrival, median over repetitions; reference s *)
  repeats : int;
  attempted : int;  (** over every repetition *)
  failed : int;  (** failures, plus outputs differing from the first run *)
  scale : float;  (** median over repetitions of reference s per raw s *)
  kernel_samples : int;
  rss_mb : float;  (** highest peak resident size of a timed repetition *)
}

(* Round-robin over the instances until [seconds] have elapsed, every
   instance at least once; each repetition starts from a collected heap,
   is set up afresh, and must repeat the instance's first outputs bit
   for bit. The kernel runs on a collected heap too, so its time holds
   no collection of the program's garbage, and the memory peak is reset
   after it, so the peak is the timed repetitions' own. *)
let measure ~seconds instances =
  let instances = Array.of_list instances in
  let n = Array.length instances in
  let first = Array.make n None in
  let repeats = ref 0 and attempted = ref 0 and failed = ref 0 in
  let reps = ref [] and cals = ref [] and kernel_samples = ref 0 in
  let last = ref 0.2 and rss_mb = ref 0. in
  let calibrate () =
    let samples = calibrate ~budget:(0.1 *. !last) in
    kernel_samples := !kernel_samples + Array.length samples;
    cals := mean samples :: !cals
  in
  let deadline = now () +. seconds in
  while !repeats < n || now () < deadline do
    let k = !repeats mod n in
    calibrate ();
    Gc.full_major ();
    reset_peak_rss ();
    let run, setup_s = timed (fun () -> instances.(k) ~check:false ()) in
    let (o : outcome), wall_s = timed run in
    rss_mb := Float.max !rss_mb (peak_rss_mb ());
    last := setup_s +. wall_s;
    reps := (k, setup_s, wall_s, o.decisions) :: !reps;
    attempted := !attempted + o.attempts;
    failed := !failed + o.failures;
    (match first.(k) with
    | None -> first.(k) <- Some o
    | Some f ->
      failed :=
        !failed
        + Pstats.mismatches ~reference:(Pstats.fingerprint f.outputs)
            (Pstats.fingerprint o.outputs));
    incr repeats
  done;
  calibrate ();
  (* Repetition [i] ran between calibrations [i] and [i + 1]. *)
  let cals = Array.of_list (List.rev !cals) in
  let scales =
    Array.init !repeats (fun i -> kernel_ref_s /. ((cals.(i) +. cals.(i + 1)) /. 2.))
  in
  let per_instance f =
    let a = Array.make n [] in
    List.iteri (fun i ((k, _, _, _) as r) -> a.(k) <- f scales.(i) r :: a.(k)) (List.rev !reps);
    a
  in
  let per_arrival runs =
    match runs with
    | [] -> [||]
    | r :: _ ->
      Array.init (Array.length r) (fun i ->
          Pstats.median (Array.of_list (List.map (fun a -> a.(i)) runs)))
  in
  {
    setups = per_instance (fun c (_, s, _, _) -> c *. s);
    walls = per_instance (fun c (_, _, w, _) -> c *. w);
    raw_setup = median_sum (per_instance (fun _ (_, s, _, _) -> s));
    raw_wall = median_sum (per_instance (fun _ (_, _, w, _) -> w));
    first = Array.map Option.get first;
    decisions =
      concat_map per_arrival (per_instance (fun c (_, _, _, d) -> Array.map (( *. ) c) d));
    repeats = !repeats;
    attempted = !attempted;
    failed = !failed;
    scale = Pstats.median scales;
    kernel_samples = !kernel_samples;
    rss_mb = !rss_mb;
  }

(* The verification run: every instance once with the checker on. Its
   outputs are the reference the timed outputs must match exactly;
   returns (attempted, failed) including the mismatching items. *)
let verify instances (outs : outcome array) =
  let checked = List.map (fun inst -> inst ~check:true () ()) instances in
  List.fold_left
    (fun (a, f, k) (c : outcome) ->
      let bad =
        Pstats.mismatches ~reference:(Pstats.fingerprint c.outputs)
          (Pstats.fingerprint outs.(k).outputs)
      in
      (a + c.attempts, f + c.failures + bad, k + 1))
    (0, 0, 0) checked
  |> fun (a, f, _) -> (a, f)

let total f a = Array.fold_left (fun n o -> n + f o) 0 a

(* ---------- Reporting ---------- *)

type metric = { name : string; unit : string }

let manifest () =
  let doc =
    match Jsonx.parse (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all) with
    | Ok d -> d
    | Error e -> failwith ("BENCHMARK.json: " ^ e)
  in
  let metrics key =
    List.map
      (fun m ->
        match (Jsonx.get_string "name" m, Jsonx.get_string "unit" m) with
        | Some name, Some unit -> { name; unit }
        | _ -> failwith ("BENCHMARK.json: malformed entry in " ^ key))
      (Option.value (Jsonx.get_list key doc) ~default:[])
  in
  let why =
    List.filter_map
      (fun w ->
        match (Jsonx.get_string "name" w, Jsonx.get_string "why" w) with
        | Some n, Some y -> Some (n, y)
        | _ -> None)
      (Option.value (Jsonx.get_list "workloads" doc) ~default:[])
  in
  (metrics "end_to_end", metrics "per_layer", why)

let fmt_value v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6g" v

let print_block title rows =
  Printf.printf "%s\n" title;
  List.iter
    (fun (name, v, unit) ->
      Printf.printf "  %-30s %14s %s\n" name
        (match v with Some v -> fmt_value v | None -> "n/a")
        unit)
    rows

let result_json ~correct ~attempted ~failed (wanted : metric list) values =
  let metric m =
    match List.assoc_opt m.name values with
    | Some v when Float.is_finite v ->
      (m.name, Jsonx.Obj [ ("value", Jsonx.Num v); ("unit", Jsonx.Str m.unit) ])
    | _ -> failwith ("metric not measured: " ^ m.name)
  in
  Jsonx.encode
    (Jsonx.Obj
       [
         ("correct", Jsonx.Bool correct);
         ("attempted", Jsonx.Num (float_of_int attempted));
         ("failed", Jsonx.Num (float_of_int failed));
         ("metrics", Jsonx.Obj (List.map metric wanted));
       ])

let tail_ms ~p a =
  Option.map (fun (t : Pstats.tail) -> (t, t.value *. 1e3)) (Pstats.tail_percentile ~p a)

let pct_label (t : Pstats.tail) =
  Printf.sprintf "p%g of %d, %d beyond" (Float.round (t.p *. 1000.) /. 10.) t.samples t.beyond

(* The end-to-end metrics of one untraced measurement. Workload-specific
   ones are [None] elsewhere and only printed. *)
let end_to_end (m : measured) ~attempted ~failed =
  let first = m.first in
  let wall = median_sum m.walls in
  let responses = concat_map (fun o -> o.responses) first in
  let dec50 = tail_ms ~p:0.5 m.decisions and dec95 = tail_ms ~p:0.95 m.decisions in
  let resp95 = Pstats.tail_percentile ~p:0.95 responses in
  let opt_mean a = if Array.length a = 0 then None else Some (mean a) in
  [
    ( "setup_s",
      Some (median_sum m.setups),
      "s",
      Printf.sprintf "raw %.4g s" m.raw_setup );
    ( "wall_s",
      Some wall,
      "s",
      Printf.sprintf "raw %.4g s, %d timed repetitions, host speed %.3f from %d kernel samples"
        m.raw_wall m.repeats m.scale m.kernel_samples );
    ("apps_per_s", Some (float_of_int (total (fun o -> o.apps) first) /. wall), "1/s", "");
    ("decision_p50_ms", Option.map snd dec50, "ms", "");
    ( "decision_p95_ms",
      Option.map snd dec95,
      "ms",
      match dec95 with Some (t, _) -> pct_label t | None -> "" );
    ("peak_rss_mb", Some m.rss_mb, "MB", "");
    ("resp_p50_vs", Some (Pstats.nearest_rank ~p:0.5 responses), "vs", "");
    ( "resp_p95_vs",
      Option.map (fun (t : Pstats.tail) -> t.value) resp95,
      "vs",
      match resp95 with Some t -> pct_label t | None -> "" );
    ("unfairness_mean", opt_mean (concat_map (fun o -> o.unfairness) first), "1", "");
    ("rel_makespan_mean", opt_mean (concat_map (fun o -> o.rel_makespan) first), "1", "");
    ("failed_frac", Some (float_of_int failed /. float_of_int attempted), "ratio", "");
  ]

(* ---------- Per-layer metrics of one traced pass ---------- *)

type pass = {
  outs : outcome array;
  wall_s : float;  (** Σ instance run times *)
  minor_words : float;
  major_collections : int;
}

let run_pass instances =
  let g0 = Gc.quick_stat () in
  let timed_runs =
    List.map (fun inst -> timed (inst ~check:false ())) instances
  in
  let g1 = Gc.quick_stat () in
  {
    outs = Array.of_list (List.map fst timed_runs);
    wall_s = List.fold_left (fun a (_, t) -> a +. t) 0. timed_runs;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
  }

type sim = { replay_s : float; flows : int; events : int }

(* Counts the engines report in [Engine.stats], with or without the
   recorder, from every shard and session of one pass. *)
let engine_counts (outs : outcome array) =
  let stat f =
    float_of_int
      (Array.fold_left (fun n o -> List.fold_left (fun n s -> n + f s) n o.stats) 0 outs)
  in
  [
    ("event_queue.pushed", stat (fun s -> s.Engine.events_pushed));
    ("event_queue.processed", stat (fun s -> s.Engine.events_processed));
    ("online.reschedule.calls", stat (fun s -> s.Engine.reschedules));
    ("online.remapped", stat (fun s -> s.Engine.remapped_tasks));
    ("alloc.cache.hits", stat (fun s -> s.Engine.alloc_hits));
    ("alloc.cache.rescales", stat (fun s -> s.Engine.alloc_rescales));
    ("alloc.cache.misses", stat (fun s -> s.Engine.alloc_misses));
    ("online.resizes", stat (fun s -> s.Engine.resizes));
    ("online.kills", stat (fun s -> s.Engine.kills));
    ("online.retries", stat (fun s -> s.Engine.task_failures));
  ]

let print_counters pairs =
  Printf.printf "counters: %s\n"
    (String.concat " " (List.map (fun (n, v) -> Printf.sprintf "%s=%s" n (fmt_value v)) pairs))

let per_layer ~(untraced : pass) ~(traced : pass) ~spans ~counters ~sim =
  let rows = Export.profile_rows () in
  let phase name = List.find_opt (fun (r : Export.row) -> r.phase = name) rows in
  let field f name = Option.fold ~none:0. ~some:f (phase name) in
  let calls = field (fun r -> float_of_int r.calls) in
  let total_s = field (fun r -> r.total_s) in
  let self_s = field (fun r -> r.self_s) in
  let words = field (fun r -> r.alloc_w) in
  let durs name =
    Array.of_list
      (List.filter_map
         (fun (s : Obs.span) -> if s.name = name then Some s.dur_s else None)
         spans)
  in
  let ms p a =
    match Pstats.tail_percentile ~p a with Some t -> t.value *. 1e3 | None -> 0.
  in
  let ctr name = float_of_int (Option.value (List.assoc_opt name counters) ~default:0) in
  let ratio a b = if b > 0. then a /. b else 0. in
  let outs = traced.outs in
  let counts = engine_counts outs in
  let count n = List.assoc n counts in
  let pushed = count "event_queue.pushed" and processed = count "event_queue.processed" in
  let remapped = count "online.remapped" and resizes = count "online.resizes" in
  let apps = float_of_int (Array.fold_left (fun n o -> n + o.apps) 0 outs) in
  let waits = concat_map (fun o -> o.waits) outs in
  let served = count "alloc.cache.hits" +. count "alloc.cache.rescales" in
  [
    ("event_queue.pushed", pushed);
    ("event_queue.processed", processed);
    ("event_queue.useful_ratio", ratio processed pushed);
    ("online.reschedule.calls", count "online.reschedule.calls");
    ("online.reschedule.self_s", self_s "online.reschedule");
    ("online.reschedule.p50_ms", ms 0.5 (durs "online.reschedule"));
    ("online.reschedule.p99_ms", ms 0.99 (durs "online.reschedule"));
    ("online.run.self_s", self_s "online.run");
    ("online.remapped", remapped);
    ("online.remap_per_app", ratio remapped apps);
    ("mapper.place.calls", calls "mapper.place");
    ("mapper.place.self_s", self_s "mapper.place");
    ("mapper.place.words_per_call", ratio (words "mapper.place") (calls "mapper.place"));
    ("mapper.placements", ctr "mapper.tasks_mapped");
    ("mapper.packing_attempts", ctr "mapper.packing_attempts");
    ("mapper.packing_wins", ctr "mapper.packing_wins");
    ("mapper.packing.win_ratio", ratio (ctr "mapper.packing_wins") (ctr "mapper.packing_attempts"));
    ("mapper.prepare.self_s", self_s "mapper.prepare");
    ("mapper.avail_reorders", ctr "mapper.avail_reorders");
    ("alloc.scrap.self_s", self_s "alloc.scrap");
    ("alloc.cache.self_s", self_s "alloc.cache");
    ("alloc.cache.hits", count "alloc.cache.hits");
    ("alloc.cache.rescales", count "alloc.cache.rescales");
    ("alloc.cache.misses", count "alloc.cache.misses");
    ("alloc.cache.served_ratio", ratio served (served +. count "alloc.cache.misses"));
    ("alloc.increments", ctr "alloc.increments");
    ("online.resize.calls", calls "online.resize");
    ("online.resizes", resizes);
    ("resize.useful_ratio", ratio resizes (calls "online.resize"));
    ("online.fault.self_s", self_s "online.fault");
    ("online.kills", count "online.kills");
    ("online.retries", count "online.retries");
    ("mapper.release", ctr "mapper.release");
    ("serve.submit_wait_s", sum waits);
    ("serve.submit_wait_p95_ms", ms 0.95 waits);
    ("serve.close_s", Array.fold_left (fun a o -> a +. o.close_s) 0. outs);
    ("serve.pickup.self_s", self_s "serve.pickup");
    ("serve.queue_peak", ctr "serve.queue_peak");
    ("serve.handoffs", ctr "serve.handoffs");
    ("sim.replay_s", sim.replay_s);
    ("sim.replay.self_s", self_s "sim.replay");
    ("sim.flows", float_of_int sim.flows);
    ("sim.events", float_of_int sim.events);
    ("check.analyze.self_s", self_s "check.analyze");
    ("runner.baselines.total_s", total_s "runner.baselines");
    ("gc.minor_words", untraced.minor_words);
    ("gc.major_collections", float_of_int untraced.major_collections);
    ("trace.overhead_frac", ratio (traced.wall_s -. untraced.wall_s) untraced.wall_s);
    ("trace.unattributed_frac", Pstats.unattributed_frac spans);
  ]

(* Deterministic counts printed beside the timings: they read the same
   on every run of one seed, so a later change can cite them exactly. *)
let counter_block =
  [
    "event_queue.pushed"; "event_queue.processed"; "online.reschedule.calls";
    "online.remapped"; "mapper.placements"; "mapper.packing_attempts";
    "mapper.packing_wins"; "alloc.cache.hits"; "alloc.cache.rescales";
    "alloc.cache.misses"; "alloc.increments"; "online.resize.calls";
    "online.resizes"; "online.kills"; "online.retries"; "sim.flows"; "sim.events";
  ]

(* ---------- Main ---------- *)

let print_host () =
  let env k = Option.value (Sys.getenv_opt k) ~default:"unknown" in
  Printf.printf "host: cores=%d ocaml=%s profile=%s commit=%s os=%s\n"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version (env "PERFBENCH_PROFILE") (env "PERFBENCH_COMMIT") Sys.os_type

(* Chrome traces of traced runs go here, under the repository root. *)
let trace_dir = "_perfbench_out"

let run_workload ~e2e ~layers ~why ~seed ~seconds ~trace (w : workload) =
  let seed = Option.value seed ~default:w.default_seed in
  Printf.printf "workload %s (seed %d): %s\n%!" w.name seed
    (Option.value (List.assoc_opt w.name why) ~default:"");
  let instances = w.instances ~seed in
  if not trace then begin
    let m = measure ~seconds instances in
    let va, vf = verify instances m.first in
    let attempted = m.attempted + va and failed = m.failed + vf in
    let rows = end_to_end m ~attempted ~failed in
    print_block "end-to-end (tracing off):"
      (List.map
         (fun (n, v, u, note) -> (n, v, if note = "" then u else u ^ "  (" ^ note ^ ")"))
         rows);
    print_counters (engine_counts m.first);
    let values = List.filter_map (fun (n, v, _, _) -> Option.map (fun v -> (n, v)) v) rows in
    let correct = failed = 0 in
    (correct, result_json ~correct ~attempted ~failed e2e values)
  end
  else begin
    let instances = List.filteri (fun k _ -> k < w.traced) instances in
    let untraced = run_pass instances in
    Obs.enable ();
    let traced = run_pass instances in
    Obs.disable ();
    let spans = Obs.spans () and counters = Obs.counter_values () in
    (try Sys.mkdir trace_dir 0o755 with Sys_error _ -> ());
    let path = Filename.concat trace_dir (w.name ^ ".trace.json") in
    Export.write Export.Chrome path;
    Printf.printf "chrome trace: %s (%d spans)\n" path (List.length spans);
    let sim, sim_bad =
      if w.name <> "paper-eval" then ({ replay_s = 0.; flows = 0; events = 0 }, 0)
      else
        List.fold_left
          (fun (acc, bad) k ->
            let makespans, replay_s, flows, events =
              paper_replays ~scenarios:paper_per_subset ~count:paper_count ~seed k
            in
            ( {
                replay_s = acc.replay_s +. replay_s;
                flows = acc.flows + flows;
                events = acc.events + events;
              },
              bad
              + Pstats.mismatches
                  ~reference:(Pstats.fingerprint untraced.outs.(k).outputs)
                  (Pstats.fingerprint makespans) ))
          ({ replay_s = 0.; flows = 0; events = 0 }, 0)
          (List.init (List.length instances) Fun.id)
    in
    let va, vf = verify instances untraced.outs in
    let tf =
      Array.fold_left ( + ) 0
        (Array.mapi
           (fun k (o : outcome) ->
             o.failures
             + Pstats.mismatches
                 ~reference:(Pstats.fingerprint untraced.outs.(k).outputs)
                 (Pstats.fingerprint o.outputs))
           traced.outs)
    in
    let attempted = va + (2 * total (fun o -> o.attempts) untraced.outs) in
    let failed = vf + tf + sim_bad + total (fun o -> o.failures) untraced.outs in
    let values = per_layer ~untraced ~traced ~spans ~counters ~sim in
    print_block
      (Printf.sprintf "per-layer (untraced pass %.3f s, traced pass %.3f s):"
         untraced.wall_s traced.wall_s)
      (List.map (fun (m : metric) -> (m.name, List.assoc_opt m.name values, m.unit)) layers);
    print_counters (List.map (fun n -> (n, List.assoc n values)) counter_block);
    Printf.printf "outputs: %s\n"
      (String.concat " "
         (Array.to_list
            (Array.map (fun o -> Pstats.digest (Pstats.fingerprint o.outputs)) untraced.outs)));
    let correct = failed = 0 in
    (correct, result_json ~correct ~attempted ~failed layers values)
  end

let usage = "bench --workload NAME|all --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref None and seconds = ref 10. in
  let trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run, or all");
      ("--seed", Arg.Int (fun s -> seed := Some s), "N input seed (default: the workload's)");
      ("--seconds", Arg.Set_float seconds, "S timed budget per workload");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let chosen =
    if !workload = "all" then workloads
    else List.filter (fun (w : workload) -> w.name = !workload) workloads
  in
  if chosen = [] || (!trace <> 0 && !trace <> 1) || !seconds <= 0. then begin
    prerr_endline usage;
    Printf.eprintf "workloads: %s\n"
      (String.concat ", " (List.map (fun (w : workload) -> w.name) workloads));
    exit 2
  end;
  let e2e, layers, why = manifest () in
  print_host ();
  let ok =
    List.for_all Fun.id
      (List.map
         (fun w ->
           let correct, json =
             run_workload ~e2e ~layers ~why ~seed:!seed ~seconds:!seconds
               ~trace:(!trace = 1) w
           in
           print_endline json;
           correct)
         chosen)
  in
  if not ok then begin
    prerr_endline "bench: a correctness check failed (see failed in the result)";
    exit 1
  end
