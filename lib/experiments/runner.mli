(** Shared machinery for the paper's experiments: the evaluation of one
    of the three scheduler configurations of Sec. 6 on a (platform, CTG)
    pair. *)

type algo = Noc_pipeline.Pipeline.algo = Eas | Eas_base | Edf
(** Re-exported so callers that name [Runner.Eas] keep compiling. *)

type evaluation = {
  algo : algo;
  metrics : Noc_sched.Metrics.t;
  runtime_seconds : float;
  resource_violations : int;
      (** Non-deadline validator findings; always 0 for a correct
          scheduler, recorded so experiments fail loudly otherwise. *)
}

val traced : label:string -> (unit -> 'a) -> 'a
(** [traced ~label f] runs one campaign trial under the observability
    subsystem: a [Noc_obs.Decisions] run context named [label] (so the
    decision log sorts deterministically regardless of which pool worker
    ran the trial) and an [experiment/trial] trace span. [label] must be
    unique per trial and derived from the trial's own parameters. *)

val evaluate :
  ?pinned:int array ->
  ?jobs:int ->
  algo ->
  Noc_noc.Platform.t ->
  Noc_ctg.Ctg.t ->
  evaluation

val resource_violations :
  Noc_noc.Platform.t -> Noc_ctg.Ctg.t -> Noc_sched.Schedule.t -> int
(** {!Noc_sched.Validate} findings other than deadline misses; 0 for a
    correct scheduler. *)

val savings : baseline:float -> float -> float
(** [savings ~baseline v] is [(baseline - v) / baseline]; the paper's
    "Energy Savings (%)" with EDF as the baseline. *)
