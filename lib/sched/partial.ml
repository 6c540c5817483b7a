type t = {
  state : Resource_state.t;
  placements : Schedule.placement option array;
  transactions : Schedule.transaction option array;
}

let create platform ctg =
  {
    state = Resource_state.create platform;
    placements = Array.make (Noc_ctg.Ctg.n_tasks ctg) None;
    transactions = Array.make (Noc_ctg.Ctg.n_edges ctg) None;
  }

let state t = t.state
let placement t i = t.placements.(i)

let pendings t ctg i =
  List.map
    (fun (e : Noc_ctg.Edge.t) ->
      match t.placements.(e.src) with
      | None -> invalid_arg "Partial.pendings: predecessor not yet placed"
      | Some (p : Schedule.placement) ->
        {
          Comm_sched.edge = e.id;
          src_pe = p.pe;
          sender_finish = p.finish;
          bits = e.volume;
        })
    (Noc_ctg.Ctg.in_edges ctg i)

let commit ?model ?degraded t ctg i ~pe =
  let transactions, drt =
    Comm_sched.schedule_incoming ?model ?degraded t.state (pendings t ctg i)
      ~dst_pe:pe
  in
  let task = Noc_ctg.Ctg.task ctg i in
  let exec = task.Noc_ctg.Task.exec_times.(pe) in
  let ready =
    match task.Noc_ctg.Task.release with
    | None -> drt
    | Some release -> Float.max drt release
  in
  let start = Resource_state.earliest_pe_gap t.state ~pe ~after:ready ~duration:exec in
  let finish = start +. exec in
  Resource_state.reserve_pe t.state ~pe (Noc_util.Interval.make ~start ~stop:finish);
  t.placements.(i) <- Some { Schedule.task = i; pe; start; finish };
  List.iter
    (fun (tr : Schedule.transaction) -> t.transactions.(tr.edge) <- Some tr)
    transactions

let to_schedule t =
  (* Read both fields before mapping either: the first [Array.map] can
     trigger a minor collection, and an expression still holding [t]
     would keep the resource tables and their journal alive through it,
     promoting them to the major heap. *)
  let placements = t.placements and transactions = t.transactions in
  let get = function
    | Some x -> x
    | None -> invalid_arg "Partial.to_schedule: schedule incomplete"
  in
  Schedule.make ~placements:(Array.map get placements)
    ~transactions:(Array.map get transactions)
