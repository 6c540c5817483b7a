module Schedule = Noc_sched.Schedule
module Partial = Noc_sched.Partial
module Resource_state = Noc_sched.Resource_state

let c_runs = Noc_obs.Counters.counter "eas.rebuild.runs"
let c_early_aborts = Noc_obs.Counters.counter "eas.repair.early_aborts"
let c_steps_replayed = Noc_obs.Counters.counter "eas.repair.steps_replayed"
let c_steps_reused = Noc_obs.Counters.counter "eas.repair.steps_reused"

let lateness (task : Noc_ctg.Task.t) ~finish =
  match task.deadline with
  | None -> None
  | Some d ->
    let late = finish -. d in
    if late > 1e-9 then Some late else None

module Ready = Set.Make (struct
  type t = int * int  (* rank, task *)

  let compare (r1, i1) (r2, i2) =
    let c = Int.compare r1 r2 in
    if c <> 0 then c else Int.compare i1 i2
end)

type base = {
  comm_model : Noc_sched.Comm_sched.model option;
  degraded : Noc_noc.Degraded.t option;
  n_pes : int;
  ctg : Noc_ctg.Ctg.t;
  succs : int array array;
  partial : Partial.t;
  pes : int array;  (* copies of the recorded (assignment, rank) *)
  rank : int array;
  order : int array;
      (* order.(s): the task committed at step s; the steps from [built]
         on list the tasks the recording never committed *)
  pos : int array;  (* inverse of [order] *)
  ready_at : int array;  (* the step a task entered the ready set *)
  marks : Resource_state.mark array;
      (* marks.(s): the journal before step s; valid for s <= at *)
  misses : int array;  (* prefix sums over the commit order *)
  late_sum : float array;
  waiting : int array;  (* scratch: uncommitted predecessors per task *)
  mutable built : int;  (* steps the recording completed *)
  mutable at : int;  (* the tables hold exactly the first [at] steps *)
}

(* The list-scheduling loop. From step [from], the uncommitted tasks
   are [order.(from..n-1)]: repeatedly pop the ready task of smallest
   (rank, id), commit it on [pes], and call [after s i], which returns
   false to stop. *)
let list_schedule b ~pes ~rank ~from ~after =
  let order = b.order and succs = b.succs and waiting = b.waiting in
  let n = Array.length order in
  for s = from to n - 1 do
    waiting.(order.(s)) <- 0
  done;
  for s = from to n - 1 do
    Array.iter (fun j -> waiting.(j) <- waiting.(j) + 1) succs.(order.(s))
  done;
  let ready = ref Ready.empty in
  for s = from to n - 1 do
    let i = order.(s) in
    if waiting.(i) = 0 then ready := Ready.add (rank.(i), i) !ready
  done;
  let rec step s =
    if s < n then begin
      let ((_, i) as elt) = Ready.min_elt !ready in
      ready := Ready.remove elt !ready;
      let pe = pes.(i) in
      if pe < 0 || pe >= b.n_pes then invalid_arg "Rebuild.run: PE out of range";
      Partial.commit ?model:b.comm_model ?degraded:b.degraded b.partial b.ctg i ~pe;
      Array.iter
        (fun j ->
          waiting.(j) <- waiting.(j) - 1;
          if waiting.(j) = 0 then ready := Ready.add (rank.(j), j) !ready)
        succs.(i);
      if after s i then step (s + 1)
    end
  in
  step from

let finish_of b i =
  match Partial.placement b.partial i with
  | Some p -> p.Schedule.finish
  | None -> assert false

let create ?comm_model ?degraded platform ctg ~assignment ~rank =
  let n = Noc_ctg.Ctg.n_tasks ctg in
  if Array.length assignment <> n || Array.length rank <> n then
    invalid_arg "Rebuild.run: array length mismatch";
  let partial = Partial.create platform ctg in
  {
    comm_model;
    degraded;
    n_pes = Noc_noc.Platform.n_pes platform;
    ctg;
    succs = Array.init n (fun i -> Array.of_list (Noc_ctg.Ctg.succs ctg i));
    partial;
    pes = Array.copy assignment;
    rank = Array.copy rank;
    order = Array.init n Fun.id;
    pos = Array.make n n;
    ready_at = Array.make n 0;
    marks = Array.make (n + 1) (Resource_state.mark (Partial.state partial));
    misses = Array.make (n + 1) 0;
    late_sum = Array.make (n + 1) 0.;
    waiting = Array.make n 0;
    built = 0;
    at = 0;
  }

(* Schedules the whole graph from step 0, recording every step. *)
let record b =
  let state = Partial.state b.partial in
  list_schedule b ~pes:b.pes ~rank:b.rank ~from:0 ~after:(fun s i ->
      b.order.(s) <- i;
      b.pos.(i) <- s;
      b.marks.(s + 1) <- Resource_state.mark state;
      (match lateness (Noc_ctg.Ctg.task b.ctg i) ~finish:(finish_of b i) with
      | None ->
        b.misses.(s + 1) <- b.misses.(s);
        b.late_sum.(s + 1) <- b.late_sum.(s)
      | Some late ->
        b.misses.(s + 1) <- b.misses.(s) + 1;
        b.late_sum.(s + 1) <- b.late_sum.(s) +. late);
      b.built <- s + 1;
      true)

let run ?comm_model ?degraded platform ctg ~assignment ~rank =
  Noc_obs.Counters.incr c_runs;
  let b = create ?comm_model ?degraded platform ctg ~assignment ~rank in
  record b;
  Partial.to_schedule b.partial

let base ?comm_model ?degraded platform ctg ~assignment ~rank =
  let b = create ?comm_model ?degraded platform ctg ~assignment ~rank in
  (* A commit that raises (a PE out of range, a pair the fault set
     disconnects) ends the recording there: candidates then replay
     from that step at the latest. *)
  (try record b
   with Invalid_argument _ ->
     Resource_state.rollback (Partial.state b.partial) b.marks.(b.built);
     let s = ref b.built in
     Array.iteri
       (fun i pos ->
         if pos = Array.length b.pos then begin
           b.order.(!s) <- i;
           b.pos.(i) <- !s;
           incr s
         end)
       b.pos);
  b.at <- b.built;
  Array.iteri
    (fun i succs ->
      Array.iter (fun j -> b.ready_at.(j) <- max b.ready_at.(j) (b.pos.(i) + 1)) succs)
    b.succs;
  b

(* The first step whose pop can differ from the base's once the tasks
   in [changed] take their candidate PE and [rank]. Before it, every
   step pops the same task onto the same PE. A changed task [t] can
   only alter the pop of a step it is ready at, [ready_at t] up to its
   own [pos t], and only by a (rank, id) key below the base's pop
   there; a migration keeps its key, so its prefix is [pos t]. *)
let prefix b ~rank changed =
  List.fold_left
    (fun p t ->
      let stop = min p b.pos.(t) in
      let rec scan s =
        if s >= stop then stop
        else
          let u = b.order.(s) in
          if rank.(t) < b.rank.(u) || (rank.(t) = b.rank.(u) && t < u) then s
          else scan (s + 1)
      in
      scan b.ready_at.(t))
    b.built changed

(* Brings the tables to exactly the first [p] base steps: roll back
   when the frontier is past [p], otherwise re-commit the recorded pops
   up to [p] and re-record their marks (rollback invalidated them). *)
let move_frontier b p =
  let state = Partial.state b.partial in
  if p < b.at then Resource_state.rollback state b.marks.(p)
  else
    for s = b.at to p - 1 do
      let i = b.order.(s) in
      Partial.commit ?model:b.comm_model ?degraded:b.degraded b.partial b.ctg i
        ~pe:b.pes.(i);
      b.marks.(s + 1) <- Resource_state.mark state
    done;
  b.at <- p

let replay b ~assignment ~rank ~changed ~hopeless =
  let p = prefix b ~rank changed in
  move_frontier b p;
  Noc_obs.Counters.add c_steps_reused p;
  let misses = ref b.misses.(p) and late_sum = ref b.late_sum.(p) in
  let aborted = ref (hopeless !misses !late_sum) in
  let replayed = ref 0 in
  Fun.protect
    ~finally:(fun () ->
      Resource_state.rollback (Partial.state b.partial) b.marks.(p);
      Noc_obs.Counters.add c_steps_replayed !replayed;
      if !aborted then Noc_obs.Counters.incr c_early_aborts)
    (fun () ->
      if not !aborted then
        list_schedule b ~pes:assignment ~rank ~from:p ~after:(fun _ i ->
            incr replayed;
            match lateness (Noc_ctg.Ctg.task b.ctg i) ~finish:(finish_of b i) with
            | None -> true
            | Some late ->
              incr misses;
              late_sum := !late_sum +. late;
              aborted := hopeless !misses !late_sum;
              not !aborted);
      if !aborted then None else Some (Partial.to_schedule b.partial))

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
