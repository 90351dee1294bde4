(** Conservative parallel discrete-event simulation: the round executor
    behind [Engine.Pdes_backend].

    The simulated machine is partitioned into shards, each with its own
    {!Engine} (timing wheel + delivery queue + clock) running on a
    dedicated domain.  The only inter-shard interaction is a network
    message, and every network link has latency at least the topology's
    [min_latency] — the lookahead [L].  That gives the conservative
    invariant: an event executing in the window [b, b+L) can only
    produce cross-shard arrivals at time ≥ b+L, i.e. in a later window.
    So the run proceeds in global rounds:

    + every shard publishes the time of its earliest pending event;
    + the coordinator (shard 0) takes the global minimum [gnext],
      evaluates the completion predicate and the watchdog exactly as a
      sequential run would at that boundary, and announces the next
      horizon [H = L*(gnext/L) + L];
    + every shard dispatches all its events with time < H, sending
      cross-shard messages — stamped with the same canonical delivery
      key a sequential run would assign — over bounded SPSC links
      ({!Spandex_util.Spsc});
    + shards drain their inbound links (injecting arrivals, all ≥ H)
      and the next round begins.

    This is the degenerate null-message scheme for a fully connected
    topology with uniform lookahead: the per-neighbor horizon messages
    collapse into one barrier-synchronized global horizon.  Because the
    engine's delivery keys are a pure function of the simulated machine
    (arrival time, send time, source, per-source sequence) and each
    shard's component-event order is the sequential order restricted to
    that shard, a PDES run is bit-identical to the sequential wheel
    backend — same events, stats, traces, and finish cycle.

    A shard blocked pushing into a full link drains its own inbound
    links while spinning, so two shards saturating each other's links
    cannot deadlock.  Any exception on any shard (deadlock, livelock,
    protocol failure) aborts the round protocol on every shard and is
    re-raised on the caller's domain. *)

type t

type delivery = {
  d_time : int;  (** absolute arrival cycle at the destination. *)
  d_t0 : int;  (** send cycle (second key of the canonical merge). *)
  d_tie : int;  (** (src, per-source seq) from [Engine.cross_tie]. *)
  d_msg : Spandex_proto.Msg.t;
  d_ep : Engine.endpoint;  (** destination endpoint, owned by the dest shard. *)
}
(** One cross-shard message in flight on a link. *)

val create :
  ?link_capacity:int ->
  ?clock:(unit -> float) ->
  lookahead:int ->
  Engine.t array ->
  t
(** [create ~lookahead engines] wires an all-pairs mesh of bounded SPSC
    links between the given per-shard engines and sets every engine's
    completion-check grid to [lookahead] (≥ 1).  [engines.(0)] is the
    coordinator shard.  [?clock] (a monotonic-enough wall clock, e.g.
    [Unix.gettimeofday] — this library deliberately has no Unix
    dependency) enables the per-shard execute/barrier/drain wall-time
    split in {!profile}; without it the split reads zero but the event
    and stall counters are still collected.  Profiling never touches
    simulated time, so a profiled run is bit-identical. *)

val push :
  t ->
  src_shard:int ->
  dst_shard:int ->
  time:int ->
  t0:int ->
  tie:int ->
  Spandex_proto.Msg.t ->
  Engine.endpoint ->
  unit
(** Called by the sharded network from [src_shard]'s domain: enqueue a
    stamped cross-shard delivery.  Spins (draining [src_shard]'s own
    inbound links) when the link is full. *)

val run : t -> until_done:(unit -> bool) -> pending_desc:(unit -> string) -> int
(** Run the round protocol to completion: spawns one domain per extra
    shard (shard 0 runs on the calling domain), returns the finish cycle
    — the maximum shard clock, which equals the sequential finish cycle.
    [until_done] and [pending_desc] are evaluated only by shard 0, at
    settled points (round boundaries), so they may read cross-shard
    component state.  Re-raises the first failure ([Engine.Deadlock],
    [Engine.Livelock], assertion…) from any shard. *)

val shard_events : t -> int array
(** Events processed per shard; sums to the sequential event count. *)

type shard_profile = {
  sp_events : int;  (** events dispatched by this shard's windows. *)
  sp_rounds : int;  (** lookahead rounds the shard participated in. *)
  sp_busy_rounds : int;  (** rounds that dispatched at least one event. *)
  sp_exec_s : float;  (** wall seconds inside [Engine.run_window]. *)
  sp_barrier_s : float;  (** wall seconds parked at the three barriers. *)
  sp_drain_s : float;  (** wall seconds injecting inbound link arrivals. *)
  sp_full_stalls : int;
      (** cross-shard pushes that found the SPSC link full (each stall
          spins draining its own inbound links until space appears). *)
  sp_max_link_depth : int;  (** deepest outbound link seen, post-push. *)
  sp_minor_words : float;  (** minor-heap words allocated by this shard's
                               domain over the run ([Gc.minor_words]). *)
  sp_major_collections : int;
  sp_max_round_events : int;  (** largest single-round event count. *)
  sp_round_events : int array;
      (** time-resolved load curve: bucket [i] sums the events of
          [sp_round_stride] consecutive rounds.  Bounded (≤ 512 buckets)
          by pair-merging with stride doubling, so the curve's shape
          survives arbitrarily long runs. *)
  sp_round_stride : int;  (** rounds per bucket (a power of two). *)
}
(** Immutable post-run snapshot of one shard's profiling counters.  The
    wall-time fields are zero unless [create] was given a [clock]. *)

val profile : t -> shard_profile array
(** Per-shard profiles, in shard order; call after {!run} returns.  The
    barrier-wait time on a waiting shard includes the inbound-link drains
    its [on_wait] callback performs while parked. *)

val lookahead : t -> int
(** The conservative lookahead (round width) this mesh synchronizes on. *)
