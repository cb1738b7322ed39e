(** mkfs, mount-time rebuild of volatile state, crash recovery, unmount
    (paper §3.4 "Volatile structures" and §5.5).

    SquirrelFS persists no allocation or index structures: a mount scans
    the inode table, the page descriptor table and all directory pages to
    rebuild the DRAM indexes and free lists. The scan is one
    {!Scan.decode}; mount bills the simulated reads of a
    record-at-a-time scan for it in closed form, so mount times are those
    of reading every record field by field. If the superblock says the
    volume was not cleanly unmounted, the mount additionally runs
    recovery: it completes or rolls back interrupted renames via rename
    pointers, frees orphaned inodes, dentries and pages, and corrects
    link counts.

    On csum volumes ([mkfs ~csum:true]) a media pre-pass verifies record
    checksums first. Corrupt committed records are quarantined rather
    than repaired: the mount completes in {e degraded} mode (recovery's
    destructive passes are disabled, since repairs driven by corrupt
    metadata could free live data) and operations touching quarantined
    objects return [EIO]. *)

val mkfs : ?csum:bool -> Pmem.Device.t -> unit
(** Zero the metadata tables, create the root directory, write the
    superblock (marked clean). Durable on return. With [~csum:true]
    (default false) the volume carries CRC32-checksummed metadata
    records; the default image is byte-identical to pre-checksum
    builds. *)

val mount : Pmem.Device.t -> (Fsctx.t, Vfs.Errno.t) result
(** Rebuild volatile state; run recovery if the clean flag is unset; mark
    the volume mounted (dirty). [EINVAL] if the superblock is invalid,
    or if the root inode does not decode as a directory with ino 1 and
    is not quarantined (checked before recovery writes anything); [EIO]
    if a csum volume's superblock fails its own checksum. *)

val mount_recover : Pmem.Device.t -> (Fsctx.t, Vfs.Errno.t) result
(** Like [mount] but always runs the recovery passes (used to measure
    recovery-mount cost on a cleanly-unmounted volume, as in Table 2). *)

val snap_recover : Pmem.Device.t -> Layout.Geometry.t -> unit
(** The snapshot table's share of recovery, before any other: replay a
    committed rollback intent's redo log, or drop an uncommitted or
    corrupt one, then zero every uncommitted slot. It reads the table
    once ({!Layout.Snaptab.read}) and bills the reads of a slot-by-slot
    scan, each before the first store after it. A recovering mount runs
    it first. *)

val rebuild : Fsctx.t -> recover:bool -> unit
(** Re-run the volatile-state rebuild (index + allocator population,
    optional recovery passes) against the context's {e current} [index]
    and [alloc] fields, which must be freshly created, and record what
    recovery did in [ctx.recovery] (as every mount does). Snapshot
    rollback swaps in a fresh pair and calls this after flipping the
    volume. *)

val unmount : Fsctx.t -> unit
(** Mark the volume cleanly unmounted. All operations are synchronous, so
    there is nothing to write back. *)

val degraded : Fsctx.t -> bool
(** The volume has quarantined objects (read off [ctx.quar]): the mount
    skipped recovery's destructive passes, and operations touching a
    quarantined object return [EIO]. What recovery did is in
    [ctx.recovery]. *)

val quarantined : Fsctx.t -> int * int
(** Quarantined (inodes, pages), read off [ctx.quar]. *)
