type event =
  | Arrival of { time : float; app : int; name : string; tasks : int }
  | Reschedule of {
      time : float;
      trigger : string;
      betas : (int * float) list;
      remapped : int;
      pinned : int;
    }
  | Task_finish of { time : float; app : int; node : int }
  | Departure of { time : float; app : int; response : float }
  | Proc_down of { time : float; procs : int array }
  | Proc_up of { time : float; procs : int array }
  | Task_failed of { time : float; app : int; node : int; failures : int }
  | Task_killed of { time : float; app : int; node : int; elapsed : float }
  | Task_resized of {
      time : float;
      app : int;
      node : int;
      from_width : int;
      to_width : int;
      moved : int;
      cost : float;
      finish : float;
    }

let time = function
  | Arrival { time; _ }
  | Reschedule { time; _ }
  | Task_finish { time; _ }
  | Departure { time; _ }
  | Proc_down { time; _ }
  | Proc_up { time; _ }
  | Task_failed { time; _ }
  | Task_killed { time; _ }
  | Task_resized { time; _ } -> time

let to_json = function
  | Arrival { time; app; name; tasks } ->
    Printf.sprintf
      "{\"event\":\"arrival\",\"time\":%.17g,\"app\":%d,\"name\":%s,\
       \"tasks\":%d}"
      time app (Mcs_util.Jsonx.quote name) tasks
  | Reschedule { time; trigger; betas; remapped; pinned } ->
    Printf.sprintf
      "{\"event\":\"reschedule\",\"time\":%.17g,\"trigger\":\"%s\",\
       \"betas\":{%s},\"remapped\":%d,\"pinned\":%d}"
      time trigger
      (String.concat ","
         (List.map
            (fun (app, beta) -> Printf.sprintf "\"%d\":%.17g" app beta)
            betas))
      remapped pinned
  | Task_finish { time; app; node } ->
    Printf.sprintf
      "{\"event\":\"task_finish\",\"time\":%.17g,\"app\":%d,\"node\":%d}" time
      app node
  | Departure { time; app; response } ->
    Printf.sprintf
      "{\"event\":\"departure\",\"time\":%.17g,\"app\":%d,\"response\":%.17g}"
      time app response
  | Proc_down { time; procs } ->
    Printf.sprintf "{\"event\":\"proc_down\",\"time\":%.17g,\"procs\":[%s]}"
      time
      (String.concat "," (List.map string_of_int (Array.to_list procs)))
  | Proc_up { time; procs } ->
    Printf.sprintf "{\"event\":\"proc_up\",\"time\":%.17g,\"procs\":[%s]}" time
      (String.concat "," (List.map string_of_int (Array.to_list procs)))
  | Task_failed { time; app; node; failures } ->
    Printf.sprintf
      "{\"event\":\"task_failed\",\"time\":%.17g,\"app\":%d,\"node\":%d,\
       \"failures\":%d}"
      time app node failures
  | Task_killed { time; app; node; elapsed } ->
    Printf.sprintf
      "{\"event\":\"task_killed\",\"time\":%.17g,\"app\":%d,\"node\":%d,\
       \"elapsed\":%.17g}"
      time app node elapsed
  | Task_resized { time; app; node; from_width; to_width; moved; cost; finish }
    ->
    Printf.sprintf
      "{\"event\":\"task_resized\",\"time\":%.17g,\"app\":%d,\"node\":%d,\
       \"from\":%d,\"to\":%d,\"moved\":%d,\"cost\":%.17g,\"finish\":%.17g}"
      time app node from_width to_width moved cost finish
