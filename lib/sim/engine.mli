(** Discrete-event simulation engine.

    Component events (callbacks, back-pressured ingress grants, egress
    hand-offs, completion continuations) live in a scheduler queue
    ordered by (cycle, insertion order); network deliveries live in a
    separate delivery queue ([Netq]) ordered by a canonical key —
    (arrival time, send time, source id, per-source sequence).  At every
    cycle the engine drains same-cycle component events before granting
    deliveries, so the merged order is a pure function of the simulated
    machine rather than of queue push interleave.  That canonical order is
    what makes the sharded PDES backend bit-identical to a sequential run:
    shards compute the same delivery keys, and per-shard component order
    is the sequential order restricted to the shard.

    A delivery whose ingress port is free in its arrival cycle runs its
    handler as soon as it is granted, with no component event.  That is
    the order a queued handler event would have had: a delivery is
    granted only when the scheduler's head is strictly later, so a
    handler event pushed for the current cycle would be the very next
    one dispatched.  The inline handler still counts as an event, so
    {!events_processed} is the same either way.  A delivery whose port is
    busy is queued as a handler event at the cycle the port frees up.

    The component queue is a hierarchical timing wheel
    ({!Spandex_util.Wheel}): almost every event lands 1–100 cycles ahead,
    so push/pop are O(1) with FIFO order per cycle preserved by
    construction; far-future events (retry backoff) spill to an overflow
    heap.  It is the only scheduler.  Its order is guarded by property
    tests against the reference binary heap ({!Spandex_util.Pqueue}),
    by the chassis golden trace, and by the sharded backend reproducing
    the sequential one bit for bit.  The delivery queue buckets
    deliveries by arrival cycle on a ring, each bucket sorted on
    (send time, tiebreak); a property test checks its pops against a
    reference sort. *)

type t

exception Deadlock of string
(** Raised by [run] when the queue drains while some registered completion
    condition is still unmet — a lost message or a protocol deadlock. *)

type pending_work = {
  pw_device : string;  (** component name, e.g. ["denovo_l1.2"]. *)
  pw_txn : int;  (** transaction id, or [-1] when not transaction-bound. *)
  pw_line : int;  (** line address, or [-1] when unknown. *)
  pw_what : string;  (** short description of the stuck work. *)
}
(** One item of live component work reported by a pending source — an
    MSHR entry, a buffered store, a parked op, a busy LLC line. *)

type stuck = {
  stuck_cycle : int;  (** cycle at which the queue drained. *)
  stuck_work : pending_work list;  (** live work left behind. *)
}

exception Stuck of stuck
(** Raised by [run_all] when the event queue drains while a registered
    pending source still reports live work — a silent deadlock that would
    otherwise return as if the simulation completed. *)

val pp_pending_work : Format.formatter -> pending_work -> unit
val pp_stuck : Format.formatter -> stuck -> unit

val register_pending_source : t -> (unit -> pending_work list) -> unit
(** Register a closure reporting a component's still-live work.
    Components call this once at build time; the engine polls every
    source when the queue drains (and from {!live_work}). *)

val live_work : t -> pending_work list
(** Poll every registered pending source, in registration order. *)

type livelock = {
  cycle : int;  (** cycle at which the watchdog gave up. *)
  stalled_for : int;  (** cycles since the last observed progress. *)
  detail : string;  (** pending work of the stuck components. *)
}

exception Livelock of livelock
(** Raised by the watchdog configured with {!set_watchdog} when the event
    queue keeps churning but no forward progress is observed — e.g. a
    retry storm that never completes.  Complements {!Deadlock}, which only
    fires on an empty queue. *)

val pp_livelock : Format.formatter -> livelock -> unit

type endpoint = {
  mutable handler : Spandex_proto.Msg.t -> unit;
  mutable ingress_free : int;  (** next cycle the ingress port is free. *)
  in_flight : int ref;  (** owning network's in-flight counter. *)
}
(** A network delivery target.  Owned by {!Spandex_net.Network}, which
    keeps them in a dense array indexed by device id; the engine needs the
    representation to grant deliveries without closures.

    Component events are an implementation detail: mutable tagged records
    (Thunk / Handle / Egress / Apply) drawn from a per-engine free-list
    and recycled at dispatch, so the steady-state hot path allocates no
    event cells.  Once a delivery's handler returns — run inline at the
    grant or from a Handle event — the message is returned to its pool
    unless the handler kept it ({!Spandex_proto.Msg.keep}). *)

type backend =
  | Wheel_backend  (** one sequential engine (default). *)
  | Pdes_backend of { shards : int }
      (** conservative parallel DES: the machine is partitioned into
          [shards] shards, each with its own engine (a timing wheel) on a
          dedicated domain, synchronized on the topology's min-latency
          lookahead (see {!Pdes} and [Run]).  Each shard's engine is an
          ordinary {!create}d one. *)
(** How [Run] drives a simulation.  Both backends schedule on the same
    timing wheel; the choice only decides whether the machine is split
    across shards. *)

val create : ?trace:Trace.t -> unit -> t
(** [trace] (default {!Trace.disabled}) is the simulation's trace sink;
    the engine only carries it so every component can reach the shared
    sink through its engine handle without signature changes. *)

val now : t -> int
(** Current simulation cycle. *)

val trace : t -> Trace.t
(** The trace sink passed to {!create}. *)

val set_lookahead : t -> int -> unit
(** Set the completion-check grid (default 1): {!run} evaluates
    [until_done] and the watchdog once per [l]-aligned window of event
    times instead of per event.  [Run] sets the topology's minimum
    latency, which is also the PDES synchronization horizon — so every
    backend evaluates completion at identical boundaries. *)

val lookahead : t -> int

val set_sampler : t -> every:int -> (int -> unit) -> unit
(** Install a periodic sampler (the metrics registry's, which reads
    occupancy gauges and counters): [f time] is invoked from the event
    dispatch loop the first time simulated time reaches each multiple-ish
    of [every] cycles (exactly: at the first event dispatched once [time]
    passes the previous sample time + [every]).  The sampler runs inline —
    it never enqueues events — so installing one does not perturb event
    counts or simulated timing.  The sampler must not schedule events or
    mutate component state. *)

val schedule : t -> delay:int -> (unit -> unit) -> unit
(** [schedule t ~delay f] runs [f] at cycle [now t + delay]. [delay >= 0]. *)

val at : t -> time:int -> (unit -> unit) -> unit
(** Schedule at an absolute cycle, which must not be in the past. *)

val deliver : t -> delay:int -> Spandex_proto.Msg.t -> endpoint -> unit
(** Enqueue a network delivery [delay] cycles ahead, keyed for the
    canonical merge by (arrival, send time, src, per-src seq).  When it is
    granted, the engine applies the one-message-per-cycle ingress drain:
    the handler runs at once if the port is free, otherwise it is queued
    as a component event for the cycle the port frees up.  Either way the
    delivery counts as two events (grant and handler). *)

val cross_tie : t -> Spandex_proto.Msg.t -> int
(** Draw the delivery tiebreak (src, per-src seq) for [msg] from this
    (sending) engine's counters — the same draw {!deliver} performs —
    without enqueueing anything.  The sharded network uses it to stamp a
    cross-shard message before pushing it onto the link channel; the
    destination shard completes the delivery with {!inject}. *)

val inject :
  t -> time:int -> t0:int -> tie:int -> Spandex_proto.Msg.t -> endpoint -> unit
(** Enqueue a delivery stamped elsewhere ([time] = absolute arrival,
    [t0] = send cycle, [tie] from {!cross_tie}).  Counts the message into
    the endpoint's in-flight counter — for cross-shard messages the
    destination shard owns the count.  [time] must not be in the shard's
    past; the PDES lookahead guarantees that. *)

val set_egress : t -> (Spandex_proto.Msg.t -> unit) -> unit
(** Install the callback Egress events dispatch to — [Network.create]
    registers its [send] here so components can enqueue outbound messages
    without allocating a closure per message. *)

val send_later : t -> delay:int -> Spandex_proto.Msg.t -> unit
(** Closure-free form of [schedule t ~delay (fun () -> Network.send net
    msg)]: hands [msg] to the installed egress callback after [delay]
    cycles.  Fails at dispatch if no callback was installed. *)

val apply_later : t -> delay:int -> (int -> unit) -> int -> unit
(** Closure-free form of [schedule t ~delay (fun () -> k v)] for integer
    completion values. *)

val run : t -> until_done:(unit -> bool) -> pending_desc:(unit -> string) -> int
(** Drain events until [until_done ()] is true; returns the finish cycle.
    Completion (and the watchdog) are evaluated at lookahead-grid window
    boundaries — the settled points a sharded run can also evaluate them
    at — not between every event.  Raises {!Deadlock} (with
    [pending_desc ()] in the message) if the queue empties first.  A step
    limit guards against livelock. *)

val run_all : ?strict:bool -> t -> int
(** Drain every queued event and return the final cycle.  For unit tests
    that drive components directly and then inspect the settled state.
    Honors the step limit like [run], raising {!Deadlock} when exceeded.
    Raises {!Stuck} if the queue drains while any registered pending
    source still reports live work (silent deadlock).  Pass
    [~strict:false] to skip the liveness audit — for harnesses that
    deliberately pause a protocol mid-transaction to inspect
    intermediate state. *)

val run_window : t -> stop:int -> unit
(** Dispatch every event with time strictly before [stop]; the shard
    executor for one PDES round.  The caller must guarantee no event
    before [stop] can still arrive from another shard.  Honors the step
    limit, raising {!Deadlock} when exceeded. *)

val next_time : t -> int
(** Cycle of the earliest queued event, or [max_int] when nothing is
    queued.  Does not advance time, and a later push at the current cycle
    stays legal. *)

val step : t -> bool
(** Dispatch the next event (advancing time to it); [false] when the
    queue is empty.  A delivery granted to a free port runs its handler in
    the same step (two events).  The model checker's execution driver —
    interleave with delivery choices between steps. *)

val set_watchdog :
  t ->
  interval:int ->
  progress:(unit -> int) ->
  describe:(unit -> string) ->
  unit
(** Configure the livelock watchdog: {!run} (and the PDES coordinator via
    {!watchdog_check}) polls [progress ()] — any monotone counter of
    forward progress, e.g. retired ops — at lookahead-grid boundaries,
    throttled to every [interval / 4] cycles, and raises {!Livelock} when
    it has not changed for [interval] cycles.  Polling happens from the
    run loop, never via heartbeat events, so the watchdog perturbs
    neither event counts nor simulated timing. *)

val watchdog_check : t -> boundary:int -> unit
(** Poll the watchdog at window boundary [boundary] (a settled point: all
    events before it have been dispatched).  No-op when no watchdog is
    configured or the boundary precedes the next scheduled beat.  Exposed
    for the PDES round coordinator; {!run} calls it internally. *)

val set_step_limit : t -> int -> unit
(** Override the default step limit (events processed) of [run]. *)

val events_processed : t -> int
