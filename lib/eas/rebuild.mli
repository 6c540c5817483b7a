(** Deterministic schedule reconstruction from an assignment and a
    priority ranking.

    The search-and-repair moves of EAS Step 3 operate on a compact
    representation of a schedule: the task-to-PE assignment plus a total
    priority order. [run] re-derives the full timed schedule by list
    scheduling: at each step, among the ready tasks, the one with the
    smallest rank is placed next through {!Noc_sched.Partial.commit} —
    its receiving transactions through the communication scheduler, its
    execution in the earliest gap of its (fixed) PE. Swapping two ranks therefore swaps the execution order of
    the corresponding tasks wherever dependencies allow it, and changing
    an assignment entry migrates a task; both exactly as Step 3 needs. *)

val run :
  ?comm_model:Noc_sched.Comm_sched.model ->
  ?degraded:Noc_noc.Degraded.t ->
  Noc_noc.Platform.t ->
  Noc_ctg.Ctg.t ->
  assignment:int array ->
  rank:int array ->
  Noc_sched.Schedule.t
(** [assignment.(i)] is the PE of task [i]; [rank.(i)] its priority
    (lower runs earlier among simultaneously-ready tasks). Raises
    [Invalid_argument] on out-of-range PEs or mismatched lengths. With
    [degraded], transactions detour around failed links (and raise
    [Invalid_argument] if the fault set disconnects a needed pair); the
    caller is responsible for assigning tasks only to alive PEs. *)

val of_schedule :
  Noc_sched.Schedule.t -> int array * int array
(** Extracts [(assignment, rank)] from a schedule, ranking tasks by
    start time (ties by task id). Rebuilding from the result reproduces
    an equivalent execution order. *)
