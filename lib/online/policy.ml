type rescheduling = Arrivals | Departures | Task_finishes
type backoff = Exponential | Linear

type fault_policy = {
  max_retries : int;
  backoff_base : float;
  backoff : backoff;
  shrink_on_retry : bool;
}

let default_faults =
  {
    max_retries = 3;
    backoff_base = 5.;
    backoff = Exponential;
    shrink_on_retry = false;
  }

type t = {
  name : string;
  strategy : Mcs_sched.Strategy.t;
  config : Mcs_sched.Pipeline.config;
  rescheduling : rescheduling;
  alloc_cache : bool;
  faults : fault_policy;
  malleability : Mcs_sched.Malleability.t option;
}

let make ?(config = Mcs_sched.Pipeline.default_config)
    ?(faults = default_faults) ?(alloc_cache = true)
    ?(rescheduling = Departures) ?malleability strategy =
  if faults.max_retries < 0 then
    invalid_arg "Policy.make: negative max_retries";
  if Float.is_nan faults.backoff_base || faults.backoff_base < 0. then
    invalid_arg "Policy.make: ill-formed backoff_base";
  (match malleability with
  | Some m -> Mcs_sched.Malleability.validate m
  | None -> ());
  {
    name = "default";
    strategy;
    config;
    rescheduling;
    alloc_cache;
    faults;
    malleability;
  }

let presets =
  [ "default"; "static"; "dynamic"; "eager"; "linear-backoff"; "shrink-retry" ]

let preset name p =
  let p =
    match name with
    | "default" -> p
    | "static" -> { p with rescheduling = Arrivals }
    | "dynamic" -> { p with rescheduling = Departures }
    | "eager" -> { p with rescheduling = Task_finishes }
    | "linear-backoff" -> { p with faults = { p.faults with backoff = Linear } }
    | "shrink-retry" ->
      { p with faults = { p.faults with shrink_on_retry = true } }
    | _ ->
      invalid_arg
        (Printf.sprintf "Policy.preset: unknown policy %S (expected %s)" name
           (String.concat ", " presets))
  in
  { p with name }

let backoff p ~failures =
  match p.faults.backoff with
  | Exponential ->
    p.faults.backoff_base *. Float.pow 2. (float_of_int (failures - 1))
  | Linear -> p.faults.backoff_base *. float_of_int failures

let retry_width ~failures ~procs =
  if failures > 0 then max 1 (procs asr min failures 30) else procs
