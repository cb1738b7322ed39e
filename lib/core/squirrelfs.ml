(** SquirrelFS: a persistent-memory file system whose Synchronous Soft
    Updates crash-consistency mechanism is enforced through typestate
    (phantom types + runtime linearity tokens). Top-level façade: the
    {!Vfs.Fs.S} implementation plus the internal modules for tests,
    benchmarks and tools. *)

module Fsctx = Fsctx
module Locks = Locks
module Alloc = Alloc
module Index = Index
module Objects = Objects
module Ops = Ops
module Scan = Scan
module Mount = Mount
module Fsck = Fsck
module Tracing = Tracing

include Fs_impl
