module Comm_sched = Noc_sched.Comm_sched
module Kernel = Noc_eas.Kernel
module Partial = Noc_sched.Partial

let effective_deadlines ctg =
  let n = Noc_ctg.Ctg.n_tasks ctg in
  let order = Noc_ctg.Ctg.topological_order ctg in
  let ed = Array.make n infinity in
  for idx = n - 1 downto 0 do
    let i = order.(idx) in
    let own =
      match (Noc_ctg.Ctg.task ctg i).Noc_ctg.Task.deadline with
      | None -> infinity
      | Some d -> d
    in
    let via_succs =
      List.fold_left
        (fun acc j ->
          let min_exec =
            Noc_util.Stats.min_value (Noc_ctg.Ctg.task ctg j).Noc_ctg.Task.exec_times
          in
          Float.min acc (ed.(j) -. min_exec))
        infinity (Noc_ctg.Ctg.succs ctg i)
    in
    ed.(i) <- Float.min own via_succs
  done;
  ed

let schedule ?comm_model platform ctg =
  let n = Noc_ctg.Ctg.n_tasks ctg in
  let n_pes = Noc_noc.Platform.n_pes platform in
  let ed = effective_deadlines ctg in
  let kernel = Kernel.build platform ctg in
  let partial = Partial.create platform ctg in
  let unscheduled_preds = Array.init n (fun i -> List.length (Noc_ctg.Ctg.preds ctg i)) in
  let module Ready = Set.Make (struct
    type t = float * int  (* effective deadline, task *)

    let compare = compare
  end) in
  let ready = ref Ready.empty in
  for i = 0 to n - 1 do
    if unscheduled_preds.(i) = 0 then ready := Ready.add (ed.(i), i) !ready
  done;
  for _ = 1 to n do
    let ((_, i) as elt) = Ready.min_elt !ready in
    ready := Ready.remove elt !ready;
    let pendings = Comm_sched.sort_pendings (Partial.pendings partial ctg i) in
    (* Earliest finish over all PEs, each probed read-only. *)
    let best = ref None in
    for k = 0 to n_pes - 1 do
      let finish =
        Kernel.finish_time ?model:comm_model kernel (Partial.state partial) ~pendings
          ~task:i ~pe:k
      in
      match !best with
      | Some (best_finish, _) when best_finish <= finish -> ()
      | Some _ | None -> best := Some (finish, k)
    done;
    let k = match !best with Some (_, k) -> k | None -> assert false in
    Partial.commit ?model:comm_model partial ctg i ~pe:k;
    List.iter
      (fun j ->
        unscheduled_preds.(j) <- unscheduled_preds.(j) - 1;
        if unscheduled_preds.(j) = 0 then ready := Ready.add (ed.(j), j) !ready)
      (Noc_ctg.Ctg.succs ctg i)
  done;
  Partial.to_schedule partial

let name = "EDF"
