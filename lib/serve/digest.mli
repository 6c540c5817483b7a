(** Cache-key derivation for the scheduling daemon.

    A served schedule is a pure function of the task graph, the
    platform, the fault set and the scheduler configuration, so the
    memo key concatenates stable content digests of all five:

    {v algo : ctg-digest : platform-digest : fault-digest : dvfs v}

    CTG and platform digests come from {!Noc_ctg.Ctg.digest} and
    {!Noc_noc.Platform.digest}; the fault component hashes the fault
    set's canonical {!Noc_fault.Fault_set.key} (the empty set digests
    to a fixed value, so plain [schedule] requests and [reschedule]
    requests share the key space without colliding). The DVFS segment
    is a deliberate separate component rather than a platform-digest
    bump: slack reclamation is scheduler configuration, the silicon is
    the same — ["-"] when off, the FNV digest of the V/f ladder's
    bit-exact hex serialisation when on, so a [--dvfs] request never
    aliases a cached unscaled schedule. FNV-1a is a content digest, not
    a cryptographic hash — the daemon trusts its clients. *)

val fault_set : Noc_fault.Fault_set.t -> string
(** FNV-1a hex digest of the set's canonical key. *)

val no_dvfs : string
(** The key segment of requests without DVFS: ["-"]. *)

val vf_table : Noc_dvfs.Vf_table.t -> string
(** FNV-1a hex digest of {!Noc_dvfs.Vf_table.hex}. *)

val make :
  ?dvfs_digest:string ->
  algo:Noc_pipeline.Pipeline.algo ->
  ctg_digest:string ->
  platform_digest:string ->
  fault_digest:string ->
  unit ->
  string
(** The cache key [algo:ctg:platform:faults:dvfs] from component
    digests — the server memoizes the CTG and platform digests with the
    objects they describe, so a cache hit never re-serializes the
    graph. [dvfs_digest] defaults to {!no_dvfs}. *)
