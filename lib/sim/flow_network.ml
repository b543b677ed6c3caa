type 'a flow = {
  route : int array;
  cap : float;
  data : 'a;
  mutable live : bool;
  mutable rate : float;  (* set by the last [rates] *)
}

type 'a t = {
  capacities : float array;
  mutable flows : 'a flow list;  (* newest first; may hold removed flows *)
  mutable removed : int;  (* removed flows still in [flows] *)
  (* Progressive-filling scratch, sized by the link count. [count] is
     all zeros between calls; [remaining] and [tight] are only read for
     links in [used]. *)
  remaining : float array;
  count : int array;
  tight : bool array;
  used : int array;
}

let max_rate = 1e18

let create ~capacities =
  Array.iter
    (fun c ->
      if c <= 0. then invalid_arg "Flow_network.create: non-positive capacity")
    capacities;
  let nl = Array.length capacities in
  {
    capacities = Array.copy capacities;
    flows = [];
    removed = 0;
    remaining = Array.make nl 0.;
    count = Array.make nl 0;
    tight = Array.make nl false;
    used = Array.make nl 0;
  }

let link_count t = Array.length t.capacities
let data f = f.data

let add_flow t ?(cap = max_rate) route data =
  if cap <= 0. then invalid_arg "Flow_network.add_flow: non-positive cap";
  List.iter
    (fun l ->
      if l < 0 || l >= link_count t then
        invalid_arg (Printf.sprintf "Flow_network.add_flow: link %d" l))
    route;
  let route = Array.of_list (List.sort_uniq compare route) in
  let f = { route; cap; data; live = true; rate = 0. } in
  t.flows <- f :: t.flows;
  f

let remove_flow t f =
  if not f.live then invalid_arg "Flow_network.remove_flow: flow not active";
  f.live <- false;
  t.removed <- t.removed + 1

let live_flows t =
  if t.removed > 0 then begin
    t.flows <- List.filter (fun f -> f.live) t.flows;
    t.removed <- 0
  end;
  t.flows

(* Progressive filling with per-flow caps: repeatedly find the smallest
   binding constraint — either a link's equal share or a flow's cap —
   freeze the flows it binds at that rate, and subtract the frozen
   bandwidth from their links. This yields the max-min fair allocation
   under rate bounds.

   Per-link counts of unfrozen flows carry over from round to round,
   and each round scans only the links some unfrozen flow uses. Every
   share, bound and subtraction is the same float operation, in the
   same per-link order (the flow list's), as recounting all links each
   round would do, so the rates are bit-identical to it. *)
let fill t flows =
  let remaining = t.remaining and count = t.count and tight = t.tight in
  let used = t.used and nu = ref 0 in
  let unfrozen = Array.of_list flows in
  Array.iter
    (fun f ->
      Array.iter
        (fun l ->
          if count.(l) = 0 then begin
            remaining.(l) <- t.capacities.(l);
            used.(!nu) <- l;
            incr nu
          end;
          count.(l) <- count.(l) + 1)
        f.route)
    unfrozen;
  let nf = ref (Array.length unfrozen) in
  while !nf > 0 do
    (* Drop links no unfrozen flow uses any more. *)
    let k = ref 0 in
    for j = 0 to !nu - 1 do
      let l = used.(j) in
      if count.(l) > 0 then begin
        used.(!k) <- l;
        incr k
      end
    done;
    nu := !k;
    (* Smallest link share among links carrying unfrozen flows. *)
    let link_share = ref Float.infinity in
    for j = 0 to !nu - 1 do
      let l = used.(j) in
      link_share :=
        Float.min !link_share (remaining.(l) /. float_of_int count.(l))
    done;
    (* Smallest cap among unfrozen flows. *)
    let cap_bound = ref Float.infinity in
    for j = 0 to !nf - 1 do
      cap_bound := Float.min !cap_bound unfrozen.(j).cap
    done;
    let bound = Float.min !link_share !cap_bound in
    if bound >= max_rate then begin
      (* Nothing binds: the remaining flows are unbounded. *)
      for j = 0 to !nf - 1 do
        unfrozen.(j).rate <- max_rate
      done;
      for j = 0 to !nu - 1 do
        count.(used.(j)) <- 0
      done;
      nf := 0
    end
    else begin
      let limit = bound +. (1e-12 *. Float.max 1. bound) in
      for j = 0 to !nu - 1 do
        let l = used.(j) in
        tight.(l) <- remaining.(l) /. float_of_int count.(l) <= limit
      done;
      (* Freeze the bound flows in list order, keeping the others in
         order for the next round. [tight] was fixed before any
         subtraction, so every flow is judged on the round's start. *)
      let kept = ref 0 in
      for j = 0 to !nf - 1 do
        let f = unfrozen.(j) in
        if f.cap <= limit || Array.exists (fun l -> tight.(l)) f.route
        then begin
          let r = Float.min bound f.cap in
          f.rate <- r;
          Array.iter
            (fun l ->
              remaining.(l) <- Float.max 0. (remaining.(l) -. r);
              count.(l) <- count.(l) - 1)
            f.route
        end
        else begin
          unfrozen.(!kept) <- f;
          incr kept
        end
      done;
      (* At least one flow realises the bound, so we always progress. *)
      assert (!kept < !nf);
      nf := !kept
    end
  done

let rates t =
  let flows = live_flows t in
  fill t flows;
  List.map (fun f -> (f, f.rate)) flows

let rate t f =
  if not f.live then invalid_arg "Flow_network.rate: flow not active";
  ignore (rates t);
  f.rate
