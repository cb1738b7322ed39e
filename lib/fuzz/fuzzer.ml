(** Chipmunk-style crash-state fuzzer (paper §5.7's Chipmunk + xfstests
    evaluation row): seeded generation of bounded syscall sequences,
    differential execution against a trivial reference file system with
    crash-image enumeration at every persist point, and delta-debugging
    shrinking of failures to minimal replayable reproducers. *)

module Ref_fs = Ref_fs
module Gen = Gen
module Exec = Exec
module Shrink = Shrink
module Repro = Repro
module Interleave = Interleave
module Enum = Enum
include Driver
