(** Crash-check vocabulary shared by the fuzzer: workload ops, the
    deliberately mis-ordered [Buggy] mutants, and the report type. *)

module Workload = Workload
module Harness = Harness
module Buggy = Buggy
