module Heap = Mcs_util.Heap

type kind =
  | Arrival of int
  | Task_finish of { app : int; node : int }
  | Task_failed of { app : int; node : int }
  | Departure of int
  | Proc_down of int array
  | Proc_up of int array
  | Resize of { app : int; node : int }

type event = {
  time : float;
  kind : kind;
}

type entry = {
  ev : event;
  seq : int;
}

let kind_rank = function
  | Task_finish _ -> 0
  | Task_failed _ -> 1
  | Departure _ -> 2
  | Arrival _ -> 3
  | Proc_down _ -> 4
  | Proc_up _ -> 5
  | Resize _ -> 6

(* Content key breaking ties between equal-time events of the same
   kind: the insertion sequence alone would make the pop order depend
   on push order, which stops being canonical once fault events are
   interleaved with announcements. App index (then node) is the
   deterministic tiebreak; processor events use their first (lowest)
   processor id. The sequence number remains as the final resort. Both
   keys are plain ints, so a comparison allocates nothing. *)
let major_key = function
  | Arrival a | Departure a -> a
  | Task_finish { app; _ } | Task_failed { app; _ } | Resize { app; _ } -> app
  | Proc_down ps | Proc_up ps -> if Array.length ps = 0 then -1 else ps.(0)

let minor_key = function
  | Arrival _ | Departure _ -> -1
  | Task_finish { node; _ } | Task_failed { node; _ } | Resize { node; _ } ->
    node
  | Proc_down _ | Proc_up _ -> -2

let entry_cmp a b =
  let c = Float.compare a.ev.time b.ev.time in
  if c <> 0 then c
  else
    let c = Int.compare (kind_rank a.ev.kind) (kind_rank b.ev.kind) in
    if c <> 0 then c
    else
      let c = Int.compare (major_key a.ev.kind) (major_key b.ev.kind) in
      if c <> 0 then c
      else
        let c = Int.compare (minor_key a.ev.kind) (minor_key b.ev.kind) in
        if c <> 0 then c else Int.compare a.seq b.seq

(* Announcements describe the current schedule generation and are
   retracted wholesale by [new_generation]; every other kind is a fact
   of the submission stream or the fault process and always fires. *)
let is_announcement = function
  | Task_finish _ | Task_failed _ | Departure _ | Resize _ -> true
  | Arrival _ | Proc_down _ | Proc_up _ -> false

type t = {
  facts : entry Heap.t;
  announced : entry Heap.t;
  mutable next_seq : int;
}

let create () =
  {
    facts = Heap.create ~cmp:entry_cmp;
    announced = Heap.create ~cmp:entry_cmp;
    next_seq = 0;
  }

(* Entries are immutable records, so sharing them across the copied
   heaps is safe; preserving [next_seq] keeps the insertion-sequence
   tiebreak — and hence every future pop order — bit-identical between
   the copy and the original. *)
let copy t =
  {
    facts = Heap.copy t.facts;
    announced = Heap.copy t.announced;
    next_seq = t.next_seq;
  }

let push t ~time kind =
  if not (Float.is_finite time) || time < 0. then
    invalid_arg "Event_queue.push: ill-formed time";
  let heap = if is_announcement kind then t.announced else t.facts in
  Heap.push heap { ev = { time; kind }; seq = t.next_seq };
  t.next_seq <- t.next_seq + 1

let new_generation t = Heap.clear t.announced

(* The heap whose head pops next: both share one total order, so the
   merged pop sequence is the order of a single heap over all entries. *)
let front t =
  match (Heap.peek t.facts, Heap.peek t.announced) with
  | None, None -> None
  | Some _, None -> Some t.facts
  | None, Some _ -> Some t.announced
  | Some a, Some b -> Some (if entry_cmp a b < 0 then t.facts else t.announced)

let pop t =
  match front t with
  | None -> None
  | Some heap -> Some (Heap.pop_exn heap).ev

let peek t =
  match front t with
  | None -> None
  | Some heap -> Option.map (fun e -> e.ev) (Heap.peek heap)

let is_empty t = Heap.is_empty t.facts && Heap.is_empty t.announced

let pushed t = t.next_seq
