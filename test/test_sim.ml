module Platform = Mcs_platform.Platform
module Grid5000 = Mcs_platform.Grid5000
module Task = Mcs_taskmodel.Task
module Builder = Mcs_ptg.Builder
module Prng = Mcs_prng.Prng
module Schedule = Mcs_sched.Schedule
module Pipeline = Mcs_sched.Pipeline
module Strategy = Mcs_sched.Strategy
module Workload = Mcs_experiments.Workload
open Mcs_sim

let check_float = Alcotest.(check (float 1e-6))

(* ---------- Flow network ---------- *)

let test_single_flow_full_capacity () =
  let net = Flow_network.create ~capacities:[| 100. |] in
  let f = Flow_network.add_flow net [ 0 ] () in
  check_float "gets everything" 100. (Flow_network.rate net f)

let test_fair_share () =
  let net = Flow_network.create ~capacities:[| 100. |] in
  let f1 = Flow_network.add_flow net [ 0 ] () in
  let f2 = Flow_network.add_flow net [ 0 ] () in
  check_float "half" 50. (Flow_network.rate net f1);
  check_float "half" 50. (Flow_network.rate net f2);
  Flow_network.remove_flow net f1;
  check_float "back to full" 100. (Flow_network.rate net f2)

let test_max_min_classic () =
  (* Classic example: link0 cap 10 shared by f1 f2; link1 cap 100 used by
     f2 f3. f1 = 5, f2 = 5, f3 = 95. *)
  let net = Flow_network.create ~capacities:[| 10.; 100. |] in
  let f1 = Flow_network.add_flow net [ 0 ] () in
  let f2 = Flow_network.add_flow net [ 0; 1 ] () in
  let f3 = Flow_network.add_flow net [ 1 ] () in
  let rates = Flow_network.rates net in
  let rate f = List.assq f rates in
  check_float "f1" 5. (rate f1);
  check_float "f2" 5. (rate f2);
  check_float "f3" 95. (rate f3)

let test_bottleneck_propagation () =
  (* Three flows over a narrow link and one over a wide one. *)
  let net = Flow_network.create ~capacities:[| 30.; 1000. |] in
  let fs = List.init 3 (fun _ -> Flow_network.add_flow net [ 0; 1 ] ()) in
  let big = Flow_network.add_flow net [ 1 ] () in
  let rates = Flow_network.rates net in
  List.iter (fun f -> check_float "narrow share" 10. (List.assq f rates)) fs;
  check_float "big gets the rest" 970. (List.assq big rates)

let test_empty_route_unbounded () =
  let net = Flow_network.create ~capacities:[| 10. |] in
  let f = Flow_network.add_flow net [] () in
  Alcotest.(check bool) "unbounded" true
    (Flow_network.rate net f >= Flow_network.max_rate)

let test_flow_network_validation () =
  let net = Flow_network.create ~capacities:[| 10. |] in
  Alcotest.(check bool) "bad link" true
    (try
       ignore (Flow_network.add_flow net [ 3 ] ());
       false
     with Invalid_argument _ -> true);
  let f = Flow_network.add_flow net [ 0 ] () in
  Flow_network.remove_flow net f;
  Alcotest.(check bool) "double remove" true
    (try
       Flow_network.remove_flow net f;
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad capacity" true
    (try
       ignore (Flow_network.create ~capacities:[| 0. |]);
       false
     with Invalid_argument _ -> true)

let test_per_flow_cap () =
  let net = Flow_network.create ~capacities:[| 100. |] in
  let capped = Flow_network.add_flow net ~cap:10. [ 0 ] () in
  let free = Flow_network.add_flow net [ 0 ] () in
  let rates = Flow_network.rates net in
  check_float "capped at 10" 10. (List.assq capped rates);
  check_float "the rest goes to the other" 90. (List.assq free rates)

let test_cap_only_flow () =
  let net = Flow_network.create ~capacities:[| 100. |] in
  let f = Flow_network.add_flow net ~cap:7. [] () in
  check_float "cap binds with empty route" 7. (Flow_network.rate net f);
  Alcotest.(check bool) "non-positive cap rejected" true
    (try
       ignore (Flow_network.add_flow net ~cap:0. [ 0 ] ());
       false
     with Invalid_argument _ -> true)

let test_caps_below_fair_share () =
  (* Three flows capped at 20 on a 100-capacity link: no contention. *)
  let net = Flow_network.create ~capacities:[| 100. |] in
  let fs =
    List.init 3 (fun _ -> Flow_network.add_flow net ~cap:20. [ 0 ] ())
  in
  let rates = Flow_network.rates net in
  List.iter (fun f -> check_float "at cap" 20. (List.assq f rates)) fs

let qcheck_work_conservation =
  QCheck.Test.make
    ~name:"max-min: at least one link saturated when flows exist" ~count:50
    QCheck.(int_range 1 8)
    (fun nflows ->
      let net = Flow_network.create ~capacities:[| 50.; 80. |] in
      let rng = Prng.create ~seed:nflows in
      let routes =
        List.init nflows (fun _ ->
            match Prng.int rng 3 with
            | 0 -> [ 0 ]
            | 1 -> [ 1 ]
            | _ -> [ 0; 1 ])
      in
      let flows =
        List.map (fun route -> Flow_network.add_flow net route ()) routes
      in
      let rates = Flow_network.rates net in
      let load = [| 0.; 0. |] in
      List.iter2
        (fun f route ->
          let r = List.assq f rates in
          List.iter (fun l -> load.(l) <- load.(l) +. r) route)
        flows routes;
      load.(0) <= 50. +. 1e-6
      && load.(1) <= 80. +. 1e-6
      && (load.(0) >= 50. -. 1e-6 || load.(1) >= 80. -. 1e-6))

(* Differential oracle: the progressive filling as it was before
   per-link counts carried over rounds — every round recounts and scans
   all links. [Flow_network.rates] must return bit-identical rates in
   the same order. *)
module Reference_network = struct
  type flow = { id : int; route : int array; cap : float }

  let rates capacities flows =
    let nl = Array.length capacities in
    let remaining = Array.copy capacities in
    let result = Hashtbl.create 16 in
    let unfrozen = ref flows in
    let continue = ref true in
    while !continue && !unfrozen <> [] do
      let count = Array.make nl 0 in
      List.iter
        (fun f -> Array.iter (fun l -> count.(l) <- count.(l) + 1) f.route)
        !unfrozen;
      let link_share = ref Float.infinity in
      for l = 0 to nl - 1 do
        if count.(l) > 0 then
          link_share :=
            Float.min !link_share (remaining.(l) /. float_of_int count.(l))
      done;
      let cap_bound =
        List.fold_left (fun acc f -> Float.min acc f.cap) Float.infinity
          !unfrozen
      in
      let bound = Float.min !link_share cap_bound in
      if bound >= Flow_network.max_rate then begin
        List.iter
          (fun f -> Hashtbl.replace result f.id Flow_network.max_rate)
          !unfrozen;
        continue := false
      end
      else begin
        let tol = 1e-12 *. Float.max 1. bound in
        let binds f =
          f.cap <= bound +. tol
          || Array.exists
               (fun l ->
                 count.(l) > 0
                 && remaining.(l) /. float_of_int count.(l) <= bound +. tol)
               f.route
        in
        let freeze, keep = List.partition binds !unfrozen in
        assert (freeze <> []);
        List.iter
          (fun f ->
            let r = Float.min bound f.cap in
            Hashtbl.replace result f.id r;
            Array.iter
              (fun l -> remaining.(l) <- Float.max 0. (remaining.(l) -. r))
              f.route)
          freeze;
        unfrozen := keep
      end
    done;
    List.map (fun f -> (f.id, Hashtbl.find result f.id)) flows
end

let qcheck_rates_match_reference =
  QCheck.Test.make
    ~name:"rates bit-identical to the all-links reference" ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Prng.create ~seed in
      (* Log-uniform over [1e6, 1e10], or a round value up to two ulps
         off, so that shares tie exactly or within the tolerance. *)
      let magnitude () =
        if Prng.bool rng then
          let nudge = Prng.choose rng [| Float.pred; Fun.id; Float.succ |] in
          let v = Prng.choose rng [| 1e6; 1e8; 1e9; 3e9; 1e10 |] in
          nudge (nudge v)
        else 10. ** Prng.uniform rng ~lo:6. ~hi:10.
      in
      (* Now and then a link too wide to bind below [max_rate]. *)
      let capacities =
        Array.init (1 + Prng.int rng 6) (fun _ ->
            if Prng.int rng 8 = 0 then 1e19 else magnitude ())
      in
      let net = Flow_network.create ~capacities in
      let live = ref [] and reference = ref [] in
      let bits l = List.map (fun (id, r) -> (id, Int64.bits_of_float r)) l in
      let agree () =
        let got =
          List.map
            (fun (f, r) -> (Flow_network.data f, r))
            (Flow_network.rates net)
        in
        bits got = bits (Reference_network.rates capacities !reference)
      in
      List.for_all
        (fun id ->
          if !live <> [] && Prng.int rng 3 = 0 then begin
            let victim = Prng.choose rng (Array.of_list !live) in
            let vid = Flow_network.data victim in
            Flow_network.remove_flow net victim;
            live := List.filter (fun f -> f != victim) !live;
            reference :=
              List.filter (fun f -> f.Reference_network.id <> vid) !reference
          end
          else begin
            let route =
              List.init (Prng.int rng 5) (fun _ ->
                  Prng.int rng (Array.length capacities))
            in
            let cap = if Prng.bool rng then Some (magnitude ()) else None in
            live := Flow_network.add_flow net ?cap route id :: !live;
            reference :=
              {
                Reference_network.id;
                route = Array.of_list (List.sort_uniq compare route);
                cap = Option.value cap ~default:Flow_network.max_rate;
              }
              :: !reference
          end;
          agree ())
        (List.init 40 Fun.id))

(* ---------- Topology ---------- *)

let test_topology_single_switch () =
  let topo = Topology.of_platform (Grid5000.lille ()) in
  Alcotest.(check int) "three uplinks, no backbone" 3
    (Array.length (Topology.capacities topo));
  Alcotest.(check (list int)) "intra" [ 0 ]
    (Topology.route topo ~src_cluster:0 ~dst_cluster:0);
  Alcotest.(check (list int)) "inter same switch" [ 0; 2 ]
    (Topology.route topo ~src_cluster:0 ~dst_cluster:2)

let test_topology_multi_switch () =
  let topo = Topology.of_platform (Grid5000.sophia ()) in
  Alcotest.(check int) "three uplinks + backbone" 4
    (Array.length (Topology.capacities topo));
  Alcotest.(check (list int)) "cross switch goes through backbone" [ 3; 0; 1 ]
    (Topology.route topo ~src_cluster:0 ~dst_cluster:1)

(* ---------- Replay ---------- *)

let seconds_task ?(alpha = 0.) seconds =
  Task.make ~data:(seconds *. 1e9) ~complexity:(Stencil 1.) ~alpha

let toy_platform ?(procs = 4) () =
  Platform.make ~name:"toy"
    [ { Platform.cluster_name = "c0"; procs; gflops = 1.; switch = 0 } ]

let test_replay_chain_no_comm () =
  let platform = toy_platform () in
  let tasks = [| seconds_task 3.; seconds_task 4. |] in
  let ptg = Builder.build ~id:0 ~name:"c" ~tasks ~edges:[ (0, 1, 0.) ] in
  let placements =
    [|
      { Schedule.node = 0; cluster = 0; procs = [| 0 |]; start = 0.; finish = 3. };
      { Schedule.node = 1; cluster = 0; procs = [| 0 |]; start = 3.; finish = 7. };
    |]
  in
  let sched = Schedule.make ~ptg ~placements in
  let result = Replay.run platform [ sched ] in
  check_float "no-comm chain matches plan" 7. result.Replay.makespans.(0);
  Alcotest.(check int) "no flows" 0 result.Replay.flows_created

let test_replay_transfer_timing () =
  (* Two tasks on different single processors joined by a 1 GB edge:
     one NIC stream, so the simulated start of the successor must be
     pred finish + latency + bytes/nic. *)
  let platform = toy_platform () in
  let tasks = [| seconds_task 2.; seconds_task 1. |] in
  let ptg = Builder.build ~id:0 ~name:"t" ~tasks ~edges:[ (0, 1, 1e9) ] in
  let transfer = 1e9 /. Platform.nic_bandwidth platform in
  let latency = Platform.latency platform in
  let placements =
    [|
      { Schedule.node = 0; cluster = 0; procs = [| 0 |]; start = 0.; finish = 2. };
      { Schedule.node = 1; cluster = 0; procs = [| 1 |];
        start = 2. +. latency +. transfer;
        finish = 3. +. latency +. transfer };
    |]
  in
  let result = Replay.run platform [ Schedule.make ~ptg ~placements ] in
  check_float "start after transfer"
    (2. +. latency +. transfer)
    result.Replay.start_times.(0).(1);
  Alcotest.(check int) "one flow" 1 result.Replay.flows_created

let test_replay_transfer_at_large_release () =
  (* Same shape at a virtual time of 1e6 s, where rounding in the
     elapsed time can leave more than a millibyte on the flow when its
     completion fires: the flow must complete then all the same. *)
  let platform = toy_platform () in
  let bytes = 7.77e7 and release = 1e6 in
  let tasks = [| seconds_task 2.; seconds_task 1. |] in
  let ptg = Builder.build ~id:0 ~name:"t" ~tasks ~edges:[ (0, 1, bytes) ] in
  let latency = Platform.latency platform in
  let ready =
    release +. 2. +. latency +. (bytes /. Platform.nic_bandwidth platform)
  in
  let placements =
    [|
      { Schedule.node = 0; cluster = 0; procs = [| 0 |]; start = release;
        finish = release +. 2. };
      { Schedule.node = 1; cluster = 0; procs = [| 1 |]; start = ready;
        finish = ready +. 1. };
    |]
  in
  let result =
    Replay.run ~release:[| release |] platform
      [ Schedule.make ~ptg ~placements ]
  in
  let start = result.Replay.start_times.(0).(1) in
  Alcotest.(check bool)
    (Printf.sprintf "start %.17g vs %.17g" start ready)
    true
    (Float.abs (start -. ready) <= 1e-9 *. ready)

let test_replay_contention_slows_transfers () =
  (* Two producer/consumer pairs transferring concurrently across the
     inter-switch backbone share it and take twice the exclusive
     transfer time. *)
  let platform =
    Platform.make ~name:"toy" ~nic_bandwidth:1.25e9
      ~backbone_bandwidth:1.25e9
      [
        { Platform.cluster_name = "c0"; procs = 2; gflops = 1.; switch = 0 };
        { Platform.cluster_name = "c1"; procs = 2; gflops = 1.; switch = 1 };
      ]
  in
  let mk id offset =
    let tasks = [| seconds_task 1.; seconds_task 1. |] in
    let ptg = Builder.build ~id ~name:"p" ~tasks ~edges:[ (0, 1, 1.25e9) ] in
    let placements =
      [|
        { Schedule.node = 0; cluster = 0; procs = [| offset |]; start = 0.;
          finish = 1. };
        { Schedule.node = 1; cluster = 1; procs = [| offset + 2 |];
          start = 2.; finish = 3. };
      |]
    in
    Schedule.make ~ptg ~placements
  in
  let result = Replay.run platform [ mk 0 0; mk 1 1 ] in
  let latency = Platform.latency platform in
  (* Exclusive transfer of 1.25e9 over 1.25e9 B/s = 1 s; two sharing
     flows -> 2 s. Start = 1 (finish) + latency + 2. *)
  check_float "contended start" (3. +. latency)
    result.Replay.start_times.(0).(1);
  check_float "same for the other" (3. +. latency)
    result.Replay.start_times.(1).(1)

let test_replay_proc_fifo_order () =
  (* Two independent apps share one processor; the replay must keep the
     planned order. *)
  let platform = toy_platform ~procs:1 () in
  let mk id start =
    let tasks = [| seconds_task 2. |] in
    let ptg = Builder.build ~id ~name:"s" ~tasks ~edges:[] in
    let placements =
      [| { Schedule.node = 0; cluster = 0; procs = [| 0 |]; start;
           finish = start +. 2. } |]
    in
    Schedule.make ~ptg ~placements
  in
  let result = Replay.run platform [ mk 0 0.; mk 1 2. ] in
  check_float "first" 2. result.Replay.makespans.(0);
  check_float "second" 4. result.Replay.makespans.(1)

let test_replay_on_pipeline_output () =
  let platform = Grid5000.rennes () in
  let rng = Prng.create ~seed:123 in
  let ptgs =
    List.init 5 (fun id ->
        Mcs_ptg.Random_gen.generate ~id rng Mcs_ptg.Random_gen.default)
  in
  let schedules =
    Pipeline.schedule_concurrent ~strategy:Strategy.Equal_share platform ptgs
  in
  let result = Replay.run platform schedules in
  Alcotest.(check int) "five makespans" 5 (Array.length result.Replay.makespans);
  List.iteri
    (fun i sched ->
      let sim = result.Replay.makespans.(i) in
      Alcotest.(check bool)
        (Printf.sprintf "app %d simulated >= 0.8x estimate" i)
        true
        (sim >= 0.8 *. sched.Schedule.makespan);
      Alcotest.(check bool)
        (Printf.sprintf "app %d simulated within 2x estimate" i)
        true
        (sim <= 2. *. sched.Schedule.makespan))
    schedules;
  Alcotest.(check bool) "events counted" true (result.Replay.events_processed > 0)

let test_replay_deterministic () =
  let platform = Grid5000.sophia () in
  let rng = Prng.create ~seed:9 in
  let ptgs =
    List.init 4 (fun id ->
        Mcs_ptg.Random_gen.generate ~id rng Mcs_ptg.Random_gen.default)
  in
  let schedules =
    Pipeline.schedule_concurrent ~strategy:Strategy.Selfish platform ptgs
  in
  let r1 = Replay.run platform schedules in
  let r2 = Replay.run platform schedules in
  Alcotest.(check bool) "same makespans" true
    (r1.Replay.makespans = r2.Replay.makespans)

let test_replay_rejects_empty () =
  Alcotest.(check bool) "no schedules" true
    (try
       ignore (Replay.run (toy_platform ()) []);
       false
     with Invalid_argument _ -> true)

let qcheck_replay_close_to_estimate =
  QCheck.Test.make
    ~name:"simulated makespan within [0.5x, 3x] of the estimate" ~count:15
    QCheck.(pair (int_range 0 500) (int_range 0 3))
    (fun (seed, platform_idx) ->
      let platform = List.nth (Grid5000.all ()) platform_idx in
      let rng = Prng.create ~seed in
      let ptgs =
        List.init 3 (fun id ->
            Mcs_ptg.Random_gen.generate ~id rng Mcs_ptg.Random_gen.default)
      in
      let schedules =
        Pipeline.schedule_concurrent ~strategy:Strategy.Equal_share platform
          ptgs
      in
      let result = Replay.run platform schedules in
      List.for_all2
        (fun sched sim ->
          sim >= 0.5 *. sched.Schedule.makespan
          && sim <= 3. *. sched.Schedule.makespan)
        schedules
        (Array.to_list result.Replay.makespans))

(* ---------- Pinned replay points ---------- *)

(* test/fixtures/replay_points.txt was recorded with the replay that
   queued every flow-completion prediction and recounted all links in
   each filling round: makespans, a digest of every start and finish
   time, and the flow and event counters of paper-style scenario sets
   under the eight strategies — one set crossing the inter-switch
   backbone (sophia), one with staggered releases (nancy). *)

let g = Printf.sprintf "%.17g"

let times_digest (r : Replay.result) =
  let buf = Buffer.create 1024 in
  let add rows =
    Array.iter (Array.iter (fun t -> Buffer.add_string buf (g t ^ " "))) rows
  in
  add r.Replay.start_times;
  add r.Replay.finish_times;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let replay_points () =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (label, platform, seed, count, mean_gap) ->
      let rng = Prng.create ~seed in
      let ptgs = Workload.draw rng Workload.Random_mixed_scenarios ~count in
      let release =
        Option.map
          (fun mean -> Workload.poisson_releases rng ~mean ~count)
          mean_gap
      in
      List.iter
        (fun strategy ->
          let schedules =
            Pipeline.schedule_concurrent ?release ~strategy platform ptgs
          in
          let r = Replay.run ?release platform schedules in
          Printf.bprintf buf "%s %s makespans=%s times=%s flows=%d events=%d\n"
            label (Strategy.name strategy)
            (String.concat "," (Array.to_list (Array.map g r.Replay.makespans)))
            (times_digest r) r.Replay.flows_created r.Replay.events_processed)
        Strategy.paper_eight)
    [
      ("lille", Grid5000.lille (), 1, 2, None);
      ("rennes", Grid5000.rennes (), 2, 4, None);
      ("sophia", Grid5000.sophia (), 3, 2, None);
      ("nancy-release", Grid5000.nancy (), 4, 3, Some 200.);
    ];
  Buffer.contents buf

let test_replay_points_pinned () =
  let fixture =
    In_channel.with_open_bin
      (Filename.concat (Filename.dirname Sys.executable_name)
         "fixtures/replay_points.txt")
      In_channel.input_all
  in
  Alcotest.(check string) "replay points bit-identical" fixture
    (replay_points ())

let suite =
  [
    ( "sim.flow_network",
      [
        Alcotest.test_case "single flow" `Quick test_single_flow_full_capacity;
        Alcotest.test_case "fair share" `Quick test_fair_share;
        Alcotest.test_case "max-min classic" `Quick test_max_min_classic;
        Alcotest.test_case "bottleneck propagation" `Quick
          test_bottleneck_propagation;
        Alcotest.test_case "empty route" `Quick test_empty_route_unbounded;
        Alcotest.test_case "validation" `Quick test_flow_network_validation;
        Alcotest.test_case "per-flow cap" `Quick test_per_flow_cap;
        Alcotest.test_case "cap-only flow" `Quick test_cap_only_flow;
        Alcotest.test_case "caps below fair share" `Quick
          test_caps_below_fair_share;
        QCheck_alcotest.to_alcotest qcheck_work_conservation;
        QCheck_alcotest.to_alcotest qcheck_rates_match_reference;
      ] );
    ( "sim.topology",
      [
        Alcotest.test_case "single switch" `Quick test_topology_single_switch;
        Alcotest.test_case "multi switch" `Quick test_topology_multi_switch;
      ] );
    ( "sim.replay",
      [
        Alcotest.test_case "chain without comm" `Quick test_replay_chain_no_comm;
        Alcotest.test_case "transfer timing" `Quick test_replay_transfer_timing;
        Alcotest.test_case "contention" `Quick
          test_replay_contention_slows_transfers;
        Alcotest.test_case "processor fifo" `Quick test_replay_proc_fifo_order;
        Alcotest.test_case "pipeline output" `Quick
          test_replay_on_pipeline_output;
        Alcotest.test_case "deterministic" `Quick test_replay_deterministic;
        Alcotest.test_case "rejects empty" `Quick test_replay_rejects_empty;
        QCheck_alcotest.to_alcotest qcheck_replay_close_to_estimate;
        Alcotest.test_case "transfer at a large release" `Quick
          test_replay_transfer_at_large_release;
        Alcotest.test_case "pinned points" `Quick test_replay_points_pinned;
      ] );
  ]
