let fault_set faults = Noc_util.Fnv.digest (Noc_fault.Fault_set.key faults)

(* DVFS is scheduler configuration, not a platform property (the mesh
   digests identically with and without slack reclamation), so it gets
   its own key segment instead of a platform-digest bump: "-" when off,
   the FNV digest of the ladder's bit-exact hex serialisation when on.
   A --dvfs request can therefore never alias a cached unscaled
   schedule, and two ladders differing in any bit get distinct keys. *)
let no_dvfs = "-"
let vf_table table = Noc_util.Fnv.digest (Noc_dvfs.Vf_table.hex table)

let make ?(dvfs_digest = no_dvfs) ~algo ~ctg_digest ~platform_digest ~fault_digest () =
  Printf.sprintf "%s:%s:%s:%s:%s"
    (Noc_pipeline.Pipeline.algo_wire algo)
    ctg_digest platform_digest fault_digest dvfs_digest
