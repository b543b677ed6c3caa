type flow = { id : int; route : int array; cap : float }

type t = {
  capacities : float array;
  mutable next_id : int;
  mutable flows : flow list;
}

let max_rate = 1e18

let create ~capacities =
  Array.iter
    (fun c ->
      if c <= 0. then invalid_arg "Flow_network.create: non-positive capacity")
    capacities;
  { capacities = Array.copy capacities; next_id = 0; flows = [] }

let link_count t = Array.length t.capacities
let flow_id f = f.id

let add_flow t ?(cap = max_rate) route =
  if cap <= 0. then invalid_arg "Flow_network.add_flow: non-positive cap";
  List.iter
    (fun l ->
      if l < 0 || l >= link_count t then
        invalid_arg (Printf.sprintf "Flow_network.add_flow: link %d" l))
    route;
  let route = Array.of_list (List.sort_uniq compare route) in
  let f = { id = t.next_id; route; cap } in
  t.next_id <- t.next_id + 1;
  t.flows <- f :: t.flows;
  f

let remove_flow t f =
  if not (List.memq f t.flows) then
    invalid_arg "Flow_network.remove_flow: flow not active";
  t.flows <- List.filter (fun g -> g != f) t.flows

(* Progressive filling with per-flow caps: repeatedly find the smallest
   binding constraint — either a link's equal share or a flow's cap —
   freeze the flows it binds at that rate, and subtract the frozen
   bandwidth from their links. This yields the max-min fair allocation
   under rate bounds. *)
let rates t =
  let nl = link_count t in
  let remaining = Array.copy t.capacities in
  let result = Hashtbl.create 16 in
  let unfrozen = ref t.flows in
  let continue = ref true in
  while !continue && !unfrozen <> [] do
    let count = Array.make nl 0 in
    List.iter
      (fun f -> Array.iter (fun l -> count.(l) <- count.(l) + 1) f.route)
      !unfrozen;
    (* Smallest link share among links carrying unfrozen flows. *)
    let link_share = ref Float.infinity in
    for l = 0 to nl - 1 do
      if count.(l) > 0 then
        link_share :=
          Float.min !link_share (remaining.(l) /. float_of_int count.(l))
    done;
    (* Smallest cap among unfrozen flows. *)
    let cap_bound =
      List.fold_left (fun acc f -> Float.min acc f.cap) Float.infinity
        !unfrozen
    in
    let bound = Float.min !link_share cap_bound in
    if bound >= max_rate then begin
      (* Nothing binds: the remaining flows are unbounded. *)
      List.iter (fun f -> Hashtbl.replace result f.id max_rate) !unfrozen;
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
      (* At least one flow realises the bound, so we always progress. *)
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
  List.map (fun f -> (f, Hashtbl.find result f.id)) t.flows

let rate t f =
  match List.assq_opt f (rates t) with
  | Some r -> r
  | None -> invalid_arg "Flow_network.rate: flow not active"
