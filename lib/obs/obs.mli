(** Process-wide observability: named monotone counters and span tracing
    for the hot subsystems, compiled down to a dead branch when disabled.

    This is the bottom of the dependency graph on purpose — [exact],
    [matching], [defender] and [harness] all instrument themselves
    against this interface, so it depends on nothing from the repo (the
    monotonic-clock stub is the only external bit).  [Harness.Obs]
    re-exports the module for harness users.

    Three recording levels:

    - {!Off} (the default): every primitive is a single load-and-branch
      no-op.  B15 gates this cost at ≤ 1.05× on the B7 best-response
      sweep.
    - {!Counters} ([--metrics]): counters and span {e call counts} are
      recorded; the clock is never read.
    - {!Trace} ([--trace]): additionally accumulates monotonic wall-time
      per span.

    {b Determinism contract.}  Plain counters and span call counts must
    be a pure function of the computation performed — never of the
    clock, the scheduler or payload encodings — so that an experiment's
    counter delta is bit-identical between a sequential sweep and a
    [--jobs N] pool worker (the B16 gate).  Quantities that cannot
    promise this (e.g. how many jobs a pool worker stole, which depends
    on completion order) must use {!volatile} counters instead; [Registry.strip_timings]
    removes volatile values and span durations from artifacts but keeps
    everything deterministic. *)

type level = Off | Counters | Trace

val set_level : level -> unit
val level : unit -> level

(** [true] iff the level is {!Counters} or {!Trace}. *)
val recording : unit -> bool

(** [unobserved f] runs [f] with recording forced {!Off}, restoring the
    previous level afterwards (also on exceptions).  Used around
    benchmark driver loops whose iteration counts are time-quota driven:
    letting those record would make counters depend on machine speed,
    breaking the determinism contract. *)
val unobserved : (unit -> 'a) -> 'a

(** A named monotone counter handle.  Handles are interned: the same
    name always yields the same handle, so instrumented modules create
    them once at module initialization and hot paths pay no lookup. *)
type counter

(** Intern a deterministic counter.
    @raise Invalid_argument if [name] is already a volatile counter. *)
val counter : string -> counter

(** Intern a volatile counter: recorded and reported identically, but
    excluded from the timing-stripped artifact normal form because its
    value may legitimately differ between otherwise identical runs.
    @raise Invalid_argument if [name] is already a deterministic
    counter. *)
val volatile : string -> counter

(** Add 1 when recording; free otherwise. *)
val incr : counter -> unit

(** [add c k] adds [k >= 0] when recording; free otherwise.
    @raise Invalid_argument when recording and [k < 0] (counters are
    monotone). *)
val add : counter -> int -> unit

(** [span name f] runs [f], counting one call of span [name] and — at
    {!Trace} level — accumulating its inclusive monotonic duration
    (nested spans therefore overlap by design; durations are wall time,
    not self time).  The count and duration are recorded even when [f]
    raises.  When not recording this is exactly [f ()]. *)
val span : string -> (unit -> 'a) -> 'a

(** Accumulated duration and call count of one span. *)
type span_total = { calls : int; secs : float }

(** A consistent view of every recorded value, for later {!delta}. *)
type snapshot

val snapshot : unit -> snapshot

(** What was recorded since the snapshot: positive counter/span deltas
    only (untouched names are dropped), each section sorted by name so
    two identical computations produce structurally equal metrics
    wherever they ran. *)
type metrics = {
  counters : (string * int) list;
  volatile : (string * int) list;
  spans : (string * span_total) list;
}

val delta : snapshot -> metrics

val is_empty : metrics -> bool

(** Zero every recorded value (handles stay valid — they are interned
    for the life of the process).  For tests; the level is untouched. *)
val reset : unit -> unit
