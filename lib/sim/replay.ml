module Dag = Mcs_dag.Dag
module Ptg = Mcs_ptg.Ptg
module P = Mcs_platform.Platform
module Schedule = Mcs_sched.Schedule
module Redistribution = Mcs_taskmodel.Redistribution

type result = {
  makespans : float array;
  global_makespan : float;
  finish_times : float array array;
  start_times : float array array;
  flows_created : int;
  events_processed : int;
}

type flow_state = {
  f_app : int;
  f_node : int;  (* destination node whose dependency this flow carries *)
  route : int list;  (* fabric links plus both task-endpoint NIC groups *)
  mutable remaining : float;
  mutable rate : float;
  mutable last_update : float;
}

type event =
  | Task_finish of int * int
  | Flow_activate of flow_state
  | App_release of int

let run ?release platform schedules =
  if schedules = [] then invalid_arg "Replay.run: no schedules";
  let schedules = Array.of_list schedules in
  let napps = Array.length schedules in
  let release =
    match release with
    | None -> Array.make napps 0.
    | Some r ->
      if Array.length r <> napps then
        invalid_arg "Replay.run: release length differs from schedules";
      Array.iter
        (fun t -> if t < 0. then invalid_arg "Replay.run: negative release")
        r;
      Array.copy r
  in
  let topology = Topology.of_platform platform in
  let latency = Topology.latency topology in

  (* Links: the topology's fabrics and backbone, plus one "NIC group"
     link per task placement holding processors (capacity |procs|·nic),
     so that concurrent transfers in or out of one data-parallel task
     share its aggregate NIC capacity. *)
  let fabric_links = Topology.capacities topology in
  let endpoint_base = Array.length fabric_links in
  let endpoint_ids = Hashtbl.create 64 in
  let endpoint_caps = ref [] in
  let endpoint_count = ref 0 in
  Array.iteri
    (fun i sched ->
      Array.iter
        (fun pl ->
          let n = Array.length pl.Schedule.procs in
          if n > 0 then begin
            Hashtbl.replace endpoint_ids (i, pl.Schedule.node)
              (endpoint_base + !endpoint_count);
            endpoint_caps :=
              (float_of_int n *. P.nic_bandwidth platform) :: !endpoint_caps;
            incr endpoint_count
          end)
        sched.Schedule.placements)
    schedules;
  let capacities =
    Array.append fabric_links
      (Array.of_list (List.rev !endpoint_caps))
  in
  let network = Flow_network.create ~capacities in
  let endpoint i v = Hashtbl.find endpoint_ids (i, v) in

  (* Per-application state. *)
  let node_count i = Dag.node_count schedules.(i).Schedule.ptg.Ptg.dag in
  let deps = Array.init napps (fun i ->
      let dag = schedules.(i).Schedule.ptg.Ptg.dag in
      Array.init (node_count i) (fun v -> Dag.in_degree dag v))
  in
  let started = Array.init napps (fun i -> Array.make (node_count i) false) in
  let finished = Array.init napps (fun i -> Array.make (node_count i) false) in
  let start_times = Array.init napps (fun i -> Array.make (node_count i) nan) in
  let finish_times = Array.init napps (fun i -> Array.make (node_count i) nan) in

  (* Per-processor FIFO queues following the schedule's per-processor
     order (the mapper's planned start times). *)
  let total_procs = P.total_procs platform in
  let queue_build = Array.make total_procs [] in
  Array.iteri
    (fun i sched ->
      Array.iter
        (fun pl ->
          Array.iter
            (fun p ->
              queue_build.(p) <-
                (pl.Schedule.start, pl.Schedule.finish, i, pl.Schedule.node)
                :: queue_build.(p))
            pl.Schedule.procs)
        sched.Schedule.placements)
    schedules;
  let queues =
    Array.map
      (fun l ->
        Array.of_list
          (List.map (fun (_, _, i, v) -> (i, v)) (List.sort compare l)))
      queue_build
  in
  let head = Array.make total_procs 0 in

  (* Event queue, ordered by time then sequence number. Flow
     completions are not queued: every recompute predicts the finish of
     each active flow, and until the next recompute supersedes them all
     only the earliest of those predictions can fire, so it alone is
     kept, in [next_flow]. Events and predictions draw their sequence
     numbers from one counter, so same-instant ties resolve in the
     order they were made. *)
  let order (t1, s1, _) (t2, s2, _) =
    let c = Float.compare t1 t2 in
    if c <> 0 then c else Int.compare s1 s2
  in
  let heap = Mcs_util.Heap.create ~cmp:order in
  let seq = ref 0 in
  let push time ev =
    incr seq;
    Mcs_util.Heap.push heap (time, !seq, ev)
  in
  let next_flow = ref None in

  let flows_created = ref 0 in

  (* Flow-rate bookkeeping: advance transferred bytes to [now], assign
     the fresh max-min rates and predict each flow's completion. *)
  let recompute now =
    next_flow := None;
    List.iter
      (fun (flow, rate) ->
        let fs = Flow_network.data flow in
        fs.remaining <-
          Float.max 0. (fs.remaining -. (fs.rate *. (now -. fs.last_update)));
        fs.last_update <- now;
        fs.rate <- rate;
        let eta =
          if rate >= Flow_network.max_rate then 0. else fs.remaining /. rate
        in
        let time = now +. eta in
        incr seq;
        match !next_flow with
        | Some (t, _, _) when Float.compare t time <= 0 -> ()
        | _ -> next_flow := Some (time, !seq, flow))
      (Flow_network.rates network)
  in

  let rec task_ready i v =
    (* All dependencies in, and at the head of each processor FIFO. *)
    deps.(i).(v) = 0
    && (not started.(i).(v))
    &&
    let pl = schedules.(i).Schedule.placements.(v) in
    Array.for_all
      (fun p ->
        head.(p) < Array.length queues.(p) && queues.(p).(head.(p)) = (i, v))
      pl.Schedule.procs

  and try_start now i v =
    if task_ready i v then begin
      started.(i).(v) <- true;
      start_times.(i).(v) <- now;
      let pl = schedules.(i).Schedule.placements.(v) in
      let duration = pl.Schedule.finish -. pl.Schedule.start in
      push (now +. duration) (Task_finish (i, v))
    end

  and dep_done now i v =
    deps.(i).(v) <- deps.(i).(v) - 1;
    assert (deps.(i).(v) >= 0);
    try_start now i v

  and finish_task now i v =
    finished.(i).(v) <- true;
    finish_times.(i).(v) <- now;
    let sched = schedules.(i) in
    let ptg = sched.Schedule.ptg in
    let pl = sched.Schedule.placements.(v) in
    (* Release processors and wake the next tasks in their FIFOs. *)
    Array.iter
      (fun p ->
        assert (queues.(p).(head.(p)) = (i, v));
        head.(p) <- head.(p) + 1;
        if head.(p) < Array.length queues.(p) then begin
          let ni, nv = queues.(p).(head.(p)) in
          try_start now ni nv
        end)
      pl.Schedule.procs;
    (* Feed successors: instant dependency or network flow. *)
    Array.iter
      (fun (w, e) ->
        let bytes = ptg.Ptg.edge_bytes.(e) in
        let pw = sched.Schedule.placements.(w) in
        let in_place =
          bytes <= 0.
          || pl.Schedule.cluster = pw.Schedule.cluster
             && Redistribution.same_procs pl.Schedule.procs pw.Schedule.procs
        in
        if in_place then dep_done now i w
        else begin
          incr flows_created;
          let fs =
            {
              f_app = i;
              f_node = w;
              route =
                endpoint i v :: endpoint i w
                :: Topology.route topology ~src_cluster:pl.Schedule.cluster
                     ~dst_cluster:pw.Schedule.cluster;
              remaining = bytes;
              rate = 0.;
              last_update = now;
            }
          in
          push (now +. latency) (Flow_activate fs)
        end)
      (Dag.succs ptg.Ptg.dag v)
  in

  (* Submission gating: dependency-free tasks of a later-released
     application carry one extra dependency, resolved by its
     App_release event. *)
  for i = 0 to napps - 1 do
    if release.(i) > 0. then begin
      for v = 0 to node_count i - 1 do
        if deps.(i).(v) = 0 then deps.(i).(v) <- 1
      done;
      push release.(i) (App_release i)
    end
  done;

  (* Seed: every dependency-free task. *)
  for i = 0 to napps - 1 do
    for v = 0 to node_count i - 1 do
      if deps.(i).(v) = 0 then try_start 0. i v
    done
  done;

  let flow_fires prediction =
    match Mcs_util.Heap.peek heap with
    | None -> true
    | Some top -> order prediction top < 0
  in
  let rec loop () =
    match !next_flow with
    | Some ((now, _, flow) as prediction) when flow_fires prediction ->
      (* The rate has not changed since the prediction was made, so the
         flow is done now: no residue check, which rounding in
         [now - last_update] could fail at large virtual times. *)
      Flow_network.remove_flow network flow;
      recompute now;
      let fs = Flow_network.data flow in
      dep_done now fs.f_app fs.f_node;
      loop ()
    | _ -> (
      match Mcs_util.Heap.pop heap with
      | None -> ()
      | Some (now, _, ev) ->
        (match ev with
        | Task_finish (i, v) -> finish_task now i v
        | App_release i ->
          for v = 0 to node_count i - 1 do
            if
              deps.(i).(v) = 1
              && Dag.in_degree schedules.(i).Schedule.ptg.Ptg.dag v = 0
            then dep_done now i v
          done
        | Flow_activate fs ->
          ignore (Flow_network.add_flow network fs.route fs);
          fs.last_update <- now;
          recompute now);
        loop ())
  in
  loop ();

  (* Every task must have completed. *)
  for i = 0 to napps - 1 do
    for v = 0 to node_count i - 1 do
      if not finished.(i).(v) then
        invalid_arg
          (Printf.sprintf
             "Replay.run: deadlock, app %d node %d never completed" i v)
    done
  done;
  let makespans =
    Array.mapi
      (fun i sched -> finish_times.(i).(Ptg.exit sched.Schedule.ptg))
      schedules
  in
  {
    makespans;
    global_makespan = Array.fold_left Float.max 0. makespans;
    finish_times;
    start_times;
    flows_created = !flows_created;
    (* Every event and prediction took one sequence number. *)
    events_processed = !seq;
  }
