let sorted_finite values =
  let a = Array.of_seq (Seq.filter Float.is_finite (Array.to_seq values)) in
  Array.sort Float.compare a;
  a

let median values =
  let a = sorted_finite values in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* 1-based nearest rank of quantile [p] over [n] samples. *)
let rank ~p n = max 1 (min n (int_of_float (Float.ceil (p *. float_of_int n))))

let nearest_rank values ~p =
  let a = sorted_finite values in
  let n = Array.length a in
  if n = 0 then Float.nan else a.(rank ~p n - 1)

type tail = { p : float; value : float; samples : int; beyond : int }

let min_beyond = 10

let tail_percentile ~p values =
  let a = sorted_finite values in
  let n = Array.length a in
  let k = min (rank ~p n) (n - min_beyond) in
  if n = 0 || k < 1 then None
  else
    Some
      {
        p = Float.min p (float_of_int k /. float_of_int n);
        value = a.(k - 1);
        samples = n;
        beyond = n - k;
      }

(* Spans that only loop around named phases: the engine's event loop,
   the service run and step, the evaluation loop. *)
let wrappers = [ "online.run"; "serve.run"; "serve.step"; "runner.evaluate" ]

let unattributed_frac (spans : Mcs_obs.Obs.span list) =
  let root_s, uncovered =
    List.fold_left
      (fun (root_s, uncovered) (s : Mcs_obs.Obs.span) ->
        ( (if s.depth = 0 then root_s +. s.dur_s else root_s),
          if s.depth = 0 || List.mem s.name wrappers then uncovered +. s.self_s
          else uncovered ))
      (0., 0.) spans
  in
  if root_s <= 0. then 0. else uncovered /. root_s

type fingerprint = int64 array

let fingerprint values = Array.map Int64.bits_of_float values

let digest fp =
  let b = Buffer.create (8 * Array.length fp) in
  Array.iter (fun x -> Buffer.add_int64_le b x) fp;
  Digest.to_hex (Digest.string (Buffer.contents b))

let mismatches ~reference fp =
  let n = min (Array.length reference) (Array.length fp) in
  let diff = ref (abs (Array.length reference - Array.length fp)) in
  for i = 0 to n - 1 do
    if not (Int64.equal reference.(i) fp.(i)) then incr diff
  done;
  !diff
