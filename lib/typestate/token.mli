(** Runtime linearity tokens.

    Rust's ownership system guarantees each persistent object has exactly
    one live handle, which is what makes typestate sound there. OCaml's
    phantom types enforce the *ordering* of transitions statically but
    cannot prevent an old handle from being used twice. These generation
    tokens close that hole dynamically: every handle carries the
    generation under which it was minted, every typestate transition
    consumes the token ([use]) and bumps the generation, and using a stale
    handle raises {!Stale_handle}. This is the documented substitution for
    linearity (see DESIGN.md).

    Each object has one mutable cell (current generation, last flush
    epoch) shared by all of its handles, and a token points at its cell:
    {!use}, {!check}, {!release}, {!flushed_at} and {!assert_fenced} read
    and bump that cell directly, with no table lookup and no lock. Only
    {!mint} looks an object up, in one int-keyed table under the
    registry's lock; page-range handles, whose ids are never reused, take
    a {!fresh} cell that never enters the table. Cells need no lock
    because the server's shard locks give each object to one domain at a
    time; the fence epoch is atomic. *)

exception Stale_handle of string

type registry
(** Per-filesystem table mapping minted object ids to their cells, plus
    the fence-epoch counter used by shared-fence witnesses. *)

type t
(** A token: object id + generation + the object's cell. Immutable;
    transitions return successor tokens. *)

val create_registry : unit -> registry

val set_metrics : registry -> Obs.Metrics.t option -> unit
(** Attach a metrics registry counting token traffic (mints, uses,
    releases, fence epochs). [None] (the default) makes every transition
    cost a single extra branch. The counters are not locked: attach them
    only to a registry one domain drives. *)

val mint : registry -> id:int -> t
(** Start a handle chain for object [id]: invalidates any outstanding
    token for [id] and returns a fresh one. The only locked step: it finds
    or adds [id]'s cell in the registry's table. *)

val fresh : registry -> id:int -> t
(** Start the one handle chain of an object whose [id] is never minted
    again (a page range): like the first [mint] of [id], but its cell
    stays out of the table, which therefore does not grow with the
    number of ranges ever allocated. Takes no lock. *)

val tracked : registry -> int
(** Number of cells in the table: the distinct ids ever {!mint}ed. *)

val use : registry -> t -> t
(** Consume a token: verifies it is current, then bumps the generation and
    returns the successor token. Raises {!Stale_handle} if the token was
    already consumed (double use of a handle). *)

val check : registry -> t -> unit
(** Verify the token is current without consuming it (read-only access).
    Raises {!Stale_handle} otherwise. *)

val release : registry -> t -> unit
(** End a handle chain: consumes the token with no successor. *)

val id : t -> int

(** {1 Fence epochs}

    Shared-fence support: flushing a handle records the current epoch;
    the filesystem bumps the epoch at every [sfence]; a handle may move
    [in_flight -> clean] only if its flush epoch predates the current
    epoch, i.e. a fence really happened after its flush. *)

val epoch : registry -> int
val bump_epoch : registry -> unit

val flushed_at : registry -> t -> t
(** Consume [t], recording the current epoch as its flush epoch. *)

val assert_fenced : registry -> t -> t
(** Consume [t], verifying a fence occurred since its flush epoch. Raises
    {!Stale_handle} with an explanatory message if not. *)
