(** A schedule under construction: the one commit path of every list
    scheduler.

    The paper's Step 2 (Sec. 5) commits a task in one fixed sequence:
    Fig. 3 places its receiving transactions on the link tables, then
    the task takes the earliest window of its PE's table at or after
    [max(DRT, release)]. EAS level scheduling, the search-and-repair
    rebuilds and the EDF, DLS and energy-greedy baselines all commit
    through {!commit}, so they share the communication machinery the
    paper's comparison relies on; only their choice of task and PE
    differs. Candidate probes stay read-only (see [Noc_eas.Kernel]).
    Nothing here undoes a reservation; the repair search's replays roll
    the tables back through {!Resource_state.rollback} and re-commit
    over the stale placements (see [Noc_eas.Rebuild.replay]). *)

type t

val create : Noc_noc.Platform.t -> Noc_ctg.Ctg.t -> t
(** Empty resource tables and no task placed yet. *)

val state : t -> Resource_state.t
(** The link and PE tables, for read-only probes and for
    {!Resource_state.mark}/{!Resource_state.rollback}. *)

val placement : t -> int -> Schedule.placement option
(** The placement of a task, once committed. *)

val pendings : t -> Noc_ctg.Ctg.t -> int -> Comm_sched.pending list
(** The receiving transactions of task [i], in in-edge order (not yet
    sorted into the Fig. 3 order; {!Comm_sched.sort_pendings} does
    that). Raises [Invalid_argument] when a predecessor is not placed. *)

val commit :
  ?model:Comm_sched.model ->
  ?degraded:Noc_noc.Degraded.t ->
  t ->
  Noc_ctg.Ctg.t ->
  int ->
  pe:int ->
  unit
(** [commit t ctg i ~pe] places task [i] on [pe]:
    {!Comm_sched.schedule_incoming} reserves its receiving transactions,
    then the task reserves the earliest gap of [pe]'s table at or after
    [max(DRT, release)]. Both are recorded for {!to_schedule}. *)

val to_schedule : t -> Schedule.t
(** The finished schedule. Raises [Invalid_argument] unless every task
    and every edge has been committed. *)
