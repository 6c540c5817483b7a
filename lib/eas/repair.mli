(** EAS Step 3: search and repair (Fig. 4).

    Post-processes a schedule with deadline misses. Two move kinds
    alternate, both accepted only when the number of missed deadlines
    strictly decreases (hence the greedy procedure always converges):

    - {b Local task swapping (LTS)}: a critical task (one that misses its
      deadline or is an ancestor of one that does) is moved earlier on
      its own PE by swapping its execution order with a non-critical task
      scheduled before it on the same PE. LTS never changes the
      task-to-PE assignment, so the schedule energy is untouched.
    - {b Global task migration (GTM)}: when no swap helps, a critical
      task is migrated to another PE; destination PEs are tried in
      increasing order of the move's estimated energy (computation on
      the destination plus communication of all arcs incident to the
      task), so the cheapest repair is found first.

    After a successful migration the procedure re-enters LTS mode, as in
    the paper's flow chart.

    {b Incremental candidates.} A candidate differs from the current
    [(assignment, rank)] in one task's PE (GTM) or two tasks' ranks
    (LTS). The current list schedule is recorded once per accepted move
    ({!Rebuild.base}); each candidate rolls the resource tables back to
    the first step it can change and replays only the suffix
    ({!Rebuild.replay}). It stops early once its committed misses
    exceed the best count, or equal it with a committed lateness that,
    shrunk by a relative [(k + 2) * epsilon_float] for the [k] deadline
    tasks, is still no better than the best by 1e-6: the shrink covers
    the difference between summing in commit order and {!score}'s
    id-order fold, so no candidate that {!improves} is ever stopped. A
    candidate that completes is scored with {!score}. Results and
    {!stats} are bit-identical to rebuilding every candidate from
    scratch (the reference kept in the test tree). *)

type moves =
  | Both  (** The paper's procedure: LTS first, GTM when LTS is stuck. *)
  | Lts_only  (** Swap-only ablation: energy provably untouched. *)
  | Gtm_only  (** Migration-only ablation. *)

type stats = {
  accepted_swaps : int;
  accepted_migrations : int;
  evaluations : int;
      (** Candidates scored, accepted or not, stopped early or not;
          [max_evaluations] bounds it. *)
}

val score : Noc_ctg.Ctg.t -> Noc_sched.Schedule.t -> int * float
(** The search score: the number of tasks that miss their deadline by
    more than 1e-9 ({!Rebuild.lateness}) and their total lateness,
    summed in task-id order. The one deadline-miss count of EAS:
    {!Eas.count_misses} and {!Fault_resched} use it too. *)

val improves : int * float -> int * float -> bool
(** [improves candidate best]: fewer misses, or as many with a total
    lateness lower by more than 1e-6. *)

val critical_tasks : Noc_ctg.Ctg.t -> Noc_sched.Schedule.t -> bool array
(** [critical_tasks ctg s] marks every task that misses its own deadline
    and every ancestor of such a task. *)

val move_energy :
  Kernel.t -> Noc_ctg.Ctg.t -> assignment:int array -> int -> int -> float
(** [move_energy kernel ctg ~assignment i k] estimates the energy of
    running task [i] on PE [k]: computation on [k] plus communication of
    every incident arc whose other endpoint is fixed by [assignment],
    priced from the kernel matrices. On a kernel built over a degraded
    view, detours are priced by their real length and a disconnected
    pair costs [infinity]. Orders GTM destinations and
    {!Fault_resched}'s migrations. *)

val run :
  ?comm_model:Noc_sched.Comm_sched.model ->
  ?degraded:Noc_noc.Degraded.t ->
  ?kernel:Kernel.t ->
  ?max_evaluations:int ->
  ?moves:moves ->
  Noc_noc.Platform.t ->
  Noc_ctg.Ctg.t ->
  Noc_sched.Schedule.t ->
  Noc_sched.Schedule.t * stats
(** Returns the repaired schedule (the input when nothing helps) and the
    search statistics. [max_evaluations] (default 4000) bounds the
    rebuilds as a safety net; [moves] (default [Both]) restricts the move
    set for the repair ablation. With [degraded], GTM only migrates onto
    alive PEs, rebuilds detour around failed links, and move energies
    are priced over the degraded routes — the engine behind
    {!Fault_resched}. [kernel] (built on demand otherwise) must describe
    the same platform/graph/fault-set triple. *)
