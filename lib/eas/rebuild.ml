module Schedule = Noc_sched.Schedule
module Partial = Noc_sched.Partial

let c_runs = Noc_obs.Counters.counter "eas.rebuild.runs"

let run ?comm_model ?degraded platform ctg ~assignment ~rank =
  Noc_obs.Counters.incr c_runs;
  let n = Noc_ctg.Ctg.n_tasks ctg in
  if Array.length assignment <> n || Array.length rank <> n then
    invalid_arg "Rebuild.run: array length mismatch";
  Array.iter
    (fun pe ->
      if pe < 0 || pe >= Noc_noc.Platform.n_pes platform then
        invalid_arg "Rebuild.run: PE out of range")
    assignment;
  let partial = Partial.create platform ctg in
  let unscheduled_preds = Array.init n (fun i -> List.length (Noc_ctg.Ctg.preds ctg i)) in
  let module Ready = Set.Make (struct
    type t = int * int  (* rank, task *)

    let compare = compare
  end) in
  let ready = ref Ready.empty in
  for i = 0 to n - 1 do
    if unscheduled_preds.(i) = 0 then ready := Ready.add (rank.(i), i) !ready
  done;
  for _ = 1 to n do
    let ((_, i) as elt) = Ready.min_elt !ready in
    ready := Ready.remove elt !ready;
    Partial.commit ?model:comm_model ?degraded partial ctg i ~pe:assignment.(i);
    List.iter
      (fun j ->
        unscheduled_preds.(j) <- unscheduled_preds.(j) - 1;
        if unscheduled_preds.(j) = 0 then ready := Ready.add (rank.(j), j) !ready)
      (Noc_ctg.Ctg.succs ctg i)
  done;
  Partial.to_schedule partial

let of_schedule schedule =
  let n = Schedule.n_tasks schedule in
  let assignment =
    Array.init n (fun i -> (Schedule.placement schedule i).Schedule.pe)
  in
  let order = Array.init n Fun.id in
  Array.sort
    (fun a b ->
      let pa = Schedule.placement schedule a and pb = Schedule.placement schedule b in
      let c = Float.compare pa.Schedule.start pb.Schedule.start in
      if c <> 0 then c else compare a b)
    order;
  let rank = Array.make n 0 in
  Array.iteri (fun pos task -> rank.(task) <- pos) order;
  (assignment, rank)
