module Comm_sched = Noc_sched.Comm_sched
module Kernel = Noc_eas.Kernel
module Partial = Noc_sched.Partial
module Resource_state = Noc_sched.Resource_state

let static_levels ctg =
  let n = Noc_ctg.Ctg.n_tasks ctg in
  let order = Noc_ctg.Ctg.topological_order ctg in
  let sl = Array.make n 0. in
  for idx = n - 1 downto 0 do
    let i = order.(idx) in
    let down =
      List.fold_left (fun acc j -> Float.max acc sl.(j)) 0. (Noc_ctg.Ctg.succs ctg i)
    in
    sl.(i) <- Noc_ctg.Task.mean_exec_time (Noc_ctg.Ctg.task ctg i) +. down
  done;
  sl

let schedule ?comm_model platform ctg =
  let n = Noc_ctg.Ctg.n_tasks ctg in
  let n_pes = Noc_noc.Platform.n_pes platform in
  let sl = static_levels ctg in
  let kernel = Kernel.build platform ctg in
  let partial = Partial.create platform ctg in
  let state = Partial.state partial in
  let unscheduled_preds = Array.init n (fun i -> List.length (Noc_ctg.Ctg.preds ctg i)) in
  let ready = ref [] in
  for i = n - 1 downto 0 do
    if unscheduled_preds.(i) = 0 then ready := i :: !ready
  done;
  for _ = 1 to n do
    (* Highest dynamic level over all (ready task, PE) pairs, each start
       time probed read-only. *)
    let best = ref None in
    List.iter
      (fun i ->
        let task = Noc_ctg.Ctg.task ctg i in
        let mean = Noc_ctg.Task.mean_exec_time task in
        let pendings = Comm_sched.sort_pendings (Partial.pendings partial ctg i) in
        for k = 0 to n_pes - 1 do
          let drt = Kernel.data_ready ?model:comm_model kernel state ~pendings ~pe:k in
          let start =
            Resource_state.earliest_pe_gap state ~pe:k
              ~after:(Float.max drt (Kernel.release kernel i))
              ~duration:(Kernel.exec_time kernel ~task:i ~pe:k)
          in
          let delta = mean -. task.Noc_ctg.Task.exec_times.(k) in
          let dl = sl.(i) -. start +. delta in
          match !best with
          | Some (best_dl, bi, bk) when (best_dl, -bi, -bk) >= (dl, -i, -k) -> ()
          | Some _ | None -> best := Some (dl, i, k)
        done)
      !ready;
    let _, i, k = match !best with Some b -> b | None -> assert false in
    Partial.commit ?model:comm_model partial ctg i ~pe:k;
    ready := List.filter (fun j -> j <> i) !ready;
    List.iter
      (fun j ->
        unscheduled_preds.(j) <- unscheduled_preds.(j) - 1;
        if unscheduled_preds.(j) = 0 then ready := !ready @ [ j ])
      (Noc_ctg.Ctg.succs ctg i)
  done;
  Partial.to_schedule partial

let name = "DLS"
