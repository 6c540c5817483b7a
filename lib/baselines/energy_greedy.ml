module Comm_sched = Noc_sched.Comm_sched
module Partial = Noc_sched.Partial

let schedule ?comm_model platform ctg =
  let n_pes = Noc_noc.Platform.n_pes platform in
  let partial = Partial.create platform ctg in
  Array.iter
    (fun i ->
      let task = Noc_ctg.Ctg.task ctg i in
      let pendings = Partial.pendings partial ctg i in
      let energy k =
        task.Noc_ctg.Task.energies.(k)
        +. List.fold_left
             (fun acc (p : Comm_sched.pending) ->
               acc
               +. Noc_noc.Platform.comm_energy platform ~src:p.Comm_sched.src_pe
                    ~dst:k ~bits:p.Comm_sched.bits)
             0. pendings
      in
      let k = Noc_util.Stats.argmin (Array.init n_pes energy) in
      Partial.commit ?model:comm_model partial ctg i ~pe:k)
    (Noc_ctg.Ctg.topological_order ctg);
  Partial.to_schedule partial

let name = "Energy-greedy"
