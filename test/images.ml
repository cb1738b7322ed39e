(* Materialized crash images for tests: every crash state the device can
   reach at this point as a fresh byte image, [Device.materialize] over
   [Device.crash_views]. The prober itself works on views; tests that
   compare whole images use these. *)

module Device = Pmem.Device

let crash_images ?rng ?max_images dev =
  List.map (Device.materialize dev) (Device.crash_views ?rng ?max_images dev)

let crash_images_faulty ?max_images dev =
  List.map (Device.materialize dev) (Device.crash_views_faulty ?max_images dev)
