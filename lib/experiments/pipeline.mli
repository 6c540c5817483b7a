(** The one certified scheduling pipeline.

    The CLI [schedule] and [simulate] commands, the serve daemon's
    [schedule] handlers and the DVFS campaign all go through {!run}:
    schedule with one of the {!Runner} configurations, derive the Eq.-3 {!Noc_sched.Metrics}, certify the
    result independently with {!Noc_analysis.Certify.check}, and, given
    a V/f ladder, downclock it into its slack ({!Noc_dvfs.Reclaim}) and
    re-certify the scaled schedule against the base
    ({!Noc_analysis.Certify.check_scaled}). Diagnostics are returned,
    not acted on: each front end decides whether an uncertified result
    is a warning or an error. No stage opens a trace span of its own;
    the scheduler and reclamation spans are those of the stages. *)

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
  Runner.algo ->
  Noc_noc.Platform.t ->
  Noc_ctg.Ctg.t ->
  result
(** [kernel], [pinned] and [jobs] are passed to {!Runner.schedule_of}.
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

val mesh_platform : ?routing:Noc_noc.Turn_model.t -> int * int -> Noc_noc.Platform.t
(** The platform every front end builds for a [(cols, rows)] mesh: the
    heterogeneous mesh of seed 42, with [routing] defaulting to xy. One
    definition keeps one-shot runs and the daemon on the same
    platform, and so on bit-identical schedules. *)
