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
    an assignment entry migrates a task; both exactly as Step 3 needs.

    {!Repair} scores hundreds of candidates per accepted move, each
    differing from the current [(assignment, rank)] in one or two
    tasks. It records the current list schedule once as a {!base} and
    {!replay}s each candidate from the first step the candidate can
    change; one list-scheduling loop serves [run], the base and the
    replays. *)

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
    caller is responsible for assigning tasks only to alive PEs. Counted
    by [eas.rebuild.runs]; {!Repair}'s candidates go through {!replay}
    and are not. *)

val of_schedule :
  Noc_sched.Schedule.t -> int array * int array
(** Extracts [(assignment, rank)] from a schedule, ranking tasks by
    start time (ties by task id). Rebuilding from the result reproduces
    an equivalent execution order. *)

val lateness : Noc_ctg.Task.t -> finish:float -> float option
(** [Some (finish -. d)] when the task has a deadline [d] and
    [finish -. d > 1e-9]: the one deadline-miss predicate of EAS, used
    by the base's prefix sums and {!Repair.score}. *)

(** {1 Recorded base and incremental replay} *)

type base
(** The list schedule of one [(assignment, rank)] with its trace: the
    commit order, each task's step [pos] and the step [ready_at] it
    entered the ready set, a {!Noc_sched.Resource_state.mark} before
    every step, and prefix sums of misses and lateness over the commit
    order. The resource tables are kept at a movable frontier step. *)

val base :
  ?comm_model:Noc_sched.Comm_sched.model ->
  ?degraded:Noc_noc.Degraded.t ->
  Noc_noc.Platform.t ->
  Noc_ctg.Ctg.t ->
  assignment:int array ->
  rank:int array ->
  base
(** Builds and records the list schedule of [(assignment, rank)] (both
    copied). A commit that raises [Invalid_argument] — a disconnected
    pair, an out-of-range PE — ends the recording at that step instead
    of raising; {!replay} then never reuses more than the recorded
    steps. Raises [Invalid_argument] on mismatched lengths. *)

val replay :
  base ->
  assignment:int array ->
  rank:int array ->
  changed:int list ->
  hopeless:(int -> float -> bool) ->
  Noc_sched.Schedule.t option
(** [replay b ~assignment ~rank ~changed ~hopeless] is
    [Some (run ~assignment ~rank)], bit for bit, for a candidate equal
    to the base's [(assignment, rank)] except at the tasks in
    [changed].

    Exact prefix: the pop order of a list schedule depends only on the
    ranks and the graph, so the candidate pops the base's tasks onto
    the base's PEs up to the first step [p] where a changed task is
    popped, or where a re-ranked changed task that is ready there has
    a [(rank, id)] key below the base's pop. Those steps reserve the
    same slots, so the tables roll back to the base's mark at [p] (or
    re-advance to it along the recorded order) and only steps [p..n-1]
    are replayed. Timelines hold uncoalesced sorted intervals, so a
    rollback restores them exactly.

    Early abort: after the prefix and after every late commit,
    [hopeless misses lateness] is asked with the committed deadline
    misses and their lateness summed in commit order (both only grow).
    When it holds the replay stops and returns [None]; the caller's
    predicate must only hold for candidates that cannot be accepted.

    The tables are rolled back to [p] on every exit, including an
    [Invalid_argument] raised mid-suffix by a disconnected pair, which
    propagates. Adds [p] to [eas.repair.steps_reused], the replayed
    commits to [eas.repair.steps_replayed], and counts a stop in
    [eas.repair.early_aborts]. *)
