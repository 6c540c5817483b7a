(** The one certified scheduling pipeline, and the request fields every
    front end shares.

    The CLI [schedule], [simulate] and [map] commands, the serve
    daemon's handlers, mapping search's survivor scoring and the DVFS
    campaign all go through {!run}: schedule with one of the three
    {!algo} configurations, derive the Eq.-3 {!Noc_sched.Metrics},
    certify the result independently with {!Noc_analysis.Certify.check},
    and, given a V/f ladder, downclock it into its slack
    ({!Noc_dvfs.Reclaim}) and re-certify the scaled schedule against the
    base ({!Noc_analysis.Certify.check_scaled}). Fault rescheduling goes
    through {!reschedule}; the other campaigns call the scheduler stage,
    {!schedule_of}, directly. Diagnostics are returned, not acted on: each
    front end decides whether an uncertified result is a warning or an
    error. No stage opens a trace span of its own; the scheduler and
    reclamation spans are those of the stages.

    The field parsers ({!algo_of_string}, {!mesh_of_string},
    {!vf_ladder}) and {!check_fits} are shared by the CLI flags and the
    serve wire protocol, so both front ends accept, name and reject the
    same values. *)

type algo = Eas | Eas_base | Edf  (** The scheduler configurations of Sec. 6. *)

val all_algos : algo list

val algo_name : algo -> string
(** Display name: ["EAS"], ["EAS-base"] or ["EDF"]. *)

val algo_wire : algo -> string
(** Lower-case name as written on the wire and in cache keys: ["eas"],
    ["eas-base"] or ["edf"]. *)

val algo_of_string : string -> (algo, string) result
(** Case-insensitive inverse of {!algo_wire}. *)

val mesh_of_string : string -> (int * int, string) result
(** ["COLSxROWS"] with positive integers, case-insensitive. *)

val mesh_name : int * int -> string
(** ["COLSxROWS"]. *)

val check_fits : int * int -> Noc_ctg.Ctg.t -> (unit, string) result
(** Whether the graph's PE count is that of the [(cols, rows)] mesh.
    Reads only the two numbers, so a mismatched request is refused
    before any platform is built. *)

val vf_ladder :
  dvfs:bool ->
  unpaired:string ->
  Noc_dvfs.Vf_table.t option ->
  (Noc_dvfs.Vf_table.t option, string) result
(** The V/f ladder a request asks for: none without [dvfs], the given
    one or {!Noc_dvfs.Vf_table.default} with it. A ladder without
    [dvfs] is the error [unpaired], worded by the front end. *)

val schedule_of :
  ?comm_model:Noc_sched.Comm_sched.model ->
  ?kernel:Noc_eas.Kernel.t ->
  ?pinned:int array ->
  ?jobs:int ->
  algo ->
  Noc_noc.Platform.t ->
  Noc_ctg.Ctg.t ->
  Noc_sched.Schedule.t
(** The scheduler stage alone. [jobs] parallelises the EAS candidate
    walks on {!Noc_util.Pool} (default 1; EDF ignores it). Schedules are
    bit-identical at every job count. [kernel] reuses a prebuilt
    {!Noc_eas.Kernel} for the EAS variants (bit-neutral; EDF ignores
    it). [pinned] fixes the task-to-PE assignment for the EAS variants
    (see {!Noc_eas.Eas.schedule}); EDF raises [Invalid_argument] when
    given one. *)

type dvfs = {
  table : Noc_dvfs.Vf_table.t;
  reclaim : Noc_dvfs.Reclaim.result;
  scaled_diagnostics : Noc_analysis.Diagnostic.t list;
      (** {!Noc_analysis.Certify.check_scaled} of the scaled schedule
          against its unscaled base; empty means certified. *)
  scaled_metrics : Noc_sched.Metrics.t;
      (** Timing metrics of the scaled schedule (deadline misses,
          makespan). Its placements keep their base variants, so its
          energy fields are the unscaled ones; the delivered total is
          the base total minus {!Noc_dvfs.Reclaim.reclaimed}. *)
}

type result = {
  schedule : Noc_sched.Schedule.t;  (** The unscaled base schedule. *)
  runtime_seconds : float;  (** Wall time of the scheduler alone. *)
  metrics : Noc_sched.Metrics.t;  (** Eq.-3 metrics of [schedule]. *)
  diagnostics : Noc_analysis.Diagnostic.t list;
      (** {!Noc_analysis.Certify.check} of [schedule], cross-checking
          [metrics]' total energy; empty means certified. *)
  dvfs : dvfs option;  (** Present iff {!run} was given a ladder. *)
}

val run :
  ?kernel:Noc_eas.Kernel.t ->
  ?pinned:int array ->
  ?jobs:int ->
  ?vf:Noc_dvfs.Vf_table.t ->
  algo ->
  Noc_noc.Platform.t ->
  Noc_ctg.Ctg.t ->
  result
(** [kernel], [pinned] and [jobs] are passed to {!schedule_of}.
    With [vf], the base schedule is reclaimed with {!reclaim} whether or
    not it certified. Decision records come out in stage order: the
    scheduler's, then ["dvfs/reclaim"]. *)

val reclaim :
  Noc_dvfs.Vf_table.t ->
  Noc_noc.Platform.t ->
  Noc_ctg.Ctg.t ->
  Noc_sched.Schedule.t ->
  dvfs
(** The DVFS stage on its own, over a committed base schedule (for
    instance one certified earlier and served from a cache). *)

val reschedule :
  Noc_noc.Platform.t ->
  Noc_ctg.Ctg.t ->
  faults:Noc_fault.Fault_set.t ->
  Noc_sched.Schedule.t ->
  Noc_eas.Fault_resched.outcome * Noc_analysis.Diagnostic.t list
(** The fault-rescheduling stage: {!Noc_eas.Fault_resched.run} over a
    committed base schedule, then {!Noc_analysis.Certify.check} of the
    result with no claimed energy (detour routes legitimately diverge
    from {!Noc_sched.Metrics}' deterministic-route energy). Raises
    [Invalid_argument] as {!Noc_eas.Fault_resched.run} does. *)

val mesh_platform : ?routing:Noc_noc.Turn_model.t -> int * int -> Noc_noc.Platform.t
(** The platform every front end builds for a [(cols, rows)] mesh: the
    heterogeneous mesh of seed 42, with [routing] defaulting to xy. One
    definition keeps one-shot runs and the daemon on the same
    platform, and so on bit-identical schedules. *)
