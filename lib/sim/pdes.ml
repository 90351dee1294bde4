module Msg = Spandex_proto.Msg
module Spsc = Spandex_util.Spsc

type delivery = {
  d_time : int;
  d_t0 : int;
  d_tie : int;
  d_msg : Msg.t;
  d_ep : Engine.endpoint;
}

(* Coordinator decisions, broadcast through [decision]: a non-negative
   value is the next horizon; the two negatives end the run. *)
let d_done = -1
let d_raise = -2

(* Per-shard profiling state, written only by the owning shard's domain
   during the run and read by the caller afterwards.  Wall-clock phase
   split is collected only when a [clock] was injected at [create]
   (lib/sim has no Unix dependency; the system layer passes
   [Unix.gettimeofday]); the integer counters are always collected —
   they cost a handful of adds per round.  None of this touches
   simulated time, so a profiled run stays bit-identical. *)
type prof = {
  mutable p_events : int;
  mutable p_rounds : int;
  mutable p_busy_rounds : int;  (* rounds that dispatched >= 1 event. *)
  mutable p_exec_s : float;
  mutable p_barrier_s : float;
  mutable p_drain_s : float;
  mutable p_full_stalls : int;  (* pushes that found the link full. *)
  mutable p_max_link_depth : int;  (* deepest outbound link, post-push. *)
  mutable p_minor_words : float;
  mutable p_major_collections : int;
  mutable p_max_round_events : int;
  (* Per-round event counts, downsampled into at most [round_cap]
     buckets: bucket [i] sums [p_stride] consecutive rounds.  When the
     buckets fill, adjacent pairs merge and the stride doubles, so the
     time-resolved load curve survives arbitrarily long runs in bounded
     space. *)
  p_buckets : int array;
  mutable p_n_buckets : int;
  mutable p_stride : int;
  mutable p_cur : int;  (* partial sum of the bucket being filled. *)
  mutable p_cur_rounds : int;
}

let round_cap = 512

let make_prof () =
  {
    p_events = 0;
    p_rounds = 0;
    p_busy_rounds = 0;
    p_exec_s = 0.;
    p_barrier_s = 0.;
    p_drain_s = 0.;
    p_full_stalls = 0;
    p_max_link_depth = 0;
    p_minor_words = 0.;
    p_major_collections = 0;
    p_max_round_events = 0;
    p_buckets = Array.make round_cap 0;
    p_n_buckets = 0;
    p_stride = 1;
    p_cur = 0;
    p_cur_rounds = 0;
  }

let prof_record_round p ev =
  p.p_rounds <- p.p_rounds + 1;
  p.p_events <- p.p_events + ev;
  if ev > 0 then p.p_busy_rounds <- p.p_busy_rounds + 1;
  if ev > p.p_max_round_events then p.p_max_round_events <- ev;
  p.p_cur <- p.p_cur + ev;
  p.p_cur_rounds <- p.p_cur_rounds + 1;
  if p.p_cur_rounds = p.p_stride then begin
    if p.p_n_buckets = round_cap then begin
      (* Fold adjacent pairs in place; the stride doubles. *)
      for i = 0 to (round_cap / 2) - 1 do
        p.p_buckets.(i) <- p.p_buckets.(2 * i) + p.p_buckets.((2 * i) + 1)
      done;
      p.p_n_buckets <- round_cap / 2;
      p.p_stride <- 2 * p.p_stride;
      (* The partial bucket may now be mid-stride; keep accumulating. *)
      if p.p_cur_rounds < p.p_stride then ()
      else begin
        p.p_buckets.(p.p_n_buckets) <- p.p_cur;
        p.p_n_buckets <- p.p_n_buckets + 1;
        p.p_cur <- 0;
        p.p_cur_rounds <- 0
      end
    end
    else begin
      p.p_buckets.(p.p_n_buckets) <- p.p_cur;
      p.p_n_buckets <- p.p_n_buckets + 1;
      p.p_cur <- 0;
      p.p_cur_rounds <- 0
    end
  end

type shard_profile = {
  sp_events : int;
  sp_rounds : int;
  sp_busy_rounds : int;
  sp_exec_s : float;
  sp_barrier_s : float;
  sp_drain_s : float;
  sp_full_stalls : int;
  sp_max_link_depth : int;
  sp_minor_words : float;
  sp_major_collections : int;
  sp_max_round_events : int;
  sp_round_events : int array;
  sp_round_stride : int;
}

let snapshot_prof p =
  let buckets =
    if p.p_cur_rounds > 0 then begin
      let a = Array.make (p.p_n_buckets + 1) 0 in
      Array.blit p.p_buckets 0 a 0 p.p_n_buckets;
      a.(p.p_n_buckets) <- p.p_cur;
      a
    end
    else Array.sub p.p_buckets 0 p.p_n_buckets
  in
  {
    sp_events = p.p_events;
    sp_rounds = p.p_rounds;
    sp_busy_rounds = p.p_busy_rounds;
    sp_exec_s = p.p_exec_s;
    sp_barrier_s = p.p_barrier_s;
    sp_drain_s = p.p_drain_s;
    sp_full_stalls = p.p_full_stalls;
    sp_max_link_depth = p.p_max_link_depth;
    sp_minor_words = p.p_minor_words;
    sp_major_collections = p.p_major_collections;
    sp_max_round_events = p.p_max_round_events;
    sp_round_events = buckets;
    sp_round_stride = p.p_stride;
  }

type t = {
  engines : Engine.t array;
  lookahead : int;
  links : delivery Spsc.t array array;  (* [links.(src).(dst)]. *)
  (* Central blocking barrier (generation-counted, Mutex + Condition).
     A spin barrier would be faster on a dedicated core per shard, but
     shards routinely outnumber cores (CI containers have one), and a
     spinner never yields to the OS scheduler — every round would then
     cost scheduler quanta instead of microseconds.  Blocking waiters
     also re-run [on_wait] on every wakeup, so a producer blocked on a
     full link can [kick] the barrier to get its consumer to drain. *)
  bar_mutex : Mutex.t;
  bar_cond : Condition.t;
  mutable bar_arrived : int;
  mutable bar_gen : int;
  next_times : int Atomic.t array;  (* earliest pending event, or max_int. *)
  decision : int Atomic.t;
  aborted : bool Atomic.t;
  mutable failure : exn option;
  fail_lock : Mutex.t;
  clock : (unit -> float) option;  (* wall clock for the phase split. *)
  prof : prof array;  (* [prof.(s)] written only by shard [s]'s domain. *)
}

let create ?(link_capacity = 1024) ?clock ~lookahead engines =
  let n = Array.length engines in
  if n < 1 then invalid_arg "Pdes.create: need at least one shard";
  if lookahead < 1 then invalid_arg "Pdes.create: lookahead must be >= 1";
  Array.iter (fun e -> Engine.set_lookahead e lookahead) engines;
  let dummy_ep =
    { Engine.handler = (fun _ -> ()); ingress_free = 0; in_flight = ref 0 }
  in
  let dummy =
    { d_time = 0; d_t0 = 0; d_tie = 0; d_msg = Msg.dummy; d_ep = dummy_ep }
  in
  {
    engines;
    lookahead;
    links =
      Array.init n (fun _ ->
          Array.init n (fun _ -> Spsc.create ~capacity:link_capacity ~dummy));
    bar_mutex = Mutex.create ();
    bar_cond = Condition.create ();
    bar_arrived = 0;
    bar_gen = 0;
    next_times = Array.init n (fun _ -> Atomic.make max_int);
    decision = Atomic.make 0;
    aborted = Atomic.make false;
    failure = None;
    fail_lock = Mutex.create ();
    clock;
    prof = Array.init n (fun _ -> make_prof ());
  }

let record_failure t exn =
  Mutex.lock t.fail_lock;
  if t.failure = None then t.failure <- Some exn;
  Mutex.unlock t.fail_lock;
  Atomic.set t.aborted true

(* Inject every delivery queued on shard [s]'s inbound links.  Arrivals
   are at or beyond the current horizon, so injecting them is safe at any
   point of [s]'s round — mid-window (while blocked on a full outbound
   link), while waiting at a barrier, or in the drain phase. *)
let drain t s =
  let n = Array.length t.engines in
  let eng = t.engines.(s) in
  for src = 0 to n - 1 do
    if src <> s then begin
      let ch = t.links.(src).(s) in
      let rec go () =
        match Spsc.pop ch with
        | Some d ->
          Engine.inject eng ~time:d.d_time ~t0:d.d_t0 ~tie:d.d_tie d.d_msg
            d.d_ep;
          go ()
        | None -> ()
      in
      go ()
    end
  done

(* Wake every shard parked at the barrier without arriving at it.  A
   producer blocked on a full link uses this: its consumer is either
   mid-window (draining happens when it blocks on a full link of its
   own, or at window end) or parked at the post-window barrier — a kick
   makes parked shards run their [on_wait] (drain) and re-check. *)
let kick t =
  Mutex.lock t.bar_mutex;
  Condition.broadcast t.bar_cond;
  Mutex.unlock t.bar_mutex

let push t ~src_shard ~dst_shard ~time ~t0 ~tie msg ep =
  let d = { d_time = time; d_t0 = t0; d_tie = tie; d_msg = msg; d_ep = ep } in
  let ch = t.links.(src_shard).(dst_shard) in
  let p = t.prof.(src_shard) in
  if not (Spsc.try_push ch d) then begin
    (* Back-pressure: count the stall once per message, then spin.  Free
       our own inbound links so two shards saturating each other cannot
       deadlock, and kick barrier waiters so the consumer drains even if
       it already finished its window. *)
    p.p_full_stalls <- p.p_full_stalls + 1;
    let rec spin () =
      drain t src_shard;
      kick t;
      Domain.cpu_relax ();
      if not (Spsc.try_push ch d) then spin ()
    in
    spin ()
  end;
  let depth = Spsc.length ch in
  if depth > p.p_max_link_depth then p.p_max_link_depth <- depth

(* One barrier arrival for the calling shard.  Generation-counted: the
   last arriver bumps the generation and releases everyone.  Waiters run
   [on_wait] (outside the lock) on every wakeup, so the post-window
   barrier keeps draining inbound links while parked — producers blocked
   on a full link always find their consumer making progress. *)
let barrier t ~on_wait =
  Mutex.lock t.bar_mutex;
  let gen = t.bar_gen in
  t.bar_arrived <- t.bar_arrived + 1;
  if t.bar_arrived = Array.length t.engines then begin
    t.bar_arrived <- 0;
    t.bar_gen <- gen + 1;
    Condition.broadcast t.bar_cond;
    Mutex.unlock t.bar_mutex
  end
  else begin
    while t.bar_gen = gen do
      Condition.wait t.bar_cond t.bar_mutex;
      if t.bar_gen = gen then begin
        Mutex.unlock t.bar_mutex;
        on_wait ();
        Mutex.lock t.bar_mutex
      end
    done;
    Mutex.unlock t.bar_mutex
  end

let decide t ~until_done ~pending_desc =
  if Atomic.get t.aborted then d_raise
  else begin
    let n = Array.length t.engines in
    let gnext = ref max_int in
    for i = 0 to n - 1 do
      gnext := min !gnext (Atomic.get t.next_times.(i))
    done;
    let gnext = !gnext in
    (* Mirror the sequential [Engine.run] loop exactly: completion is
       evaluated once per occupied lookahead window, before dispatching
       it; the watchdog beats on the same boundary. *)
    if until_done () then d_done
    else if gnext = max_int then begin
      record_failure t (Engine.Deadlock (pending_desc ()));
      d_raise
    end
    else begin
      let b = t.lookahead * (gnext / t.lookahead) in
      match Engine.watchdog_check t.engines.(0) ~boundary:b with
      | () -> b + t.lookahead
      | exception exn ->
        record_failure t exn;
        d_raise
    end
  end

let worker t ~until_done ~pending_desc s =
  let eng = t.engines.(s) in
  let p = t.prof.(s) in
  let now = match t.clock with Some c -> c | None -> fun () -> 0. in
  (* [Gc.minor_words] is exact for the calling domain; [Gc.quick_stat]'s
     minor-word count lags until the next minor collection. *)
  let gc0 = Gc.quick_stat () in
  let words0 = Gc.minor_words () in
  let continue = ref true in
  while !continue do
    Atomic.set t.next_times.(s) (Engine.next_time eng);
    (* A: every shard has published its earliest event time. *)
    let w0 = now () in
    barrier t ~on_wait:(fun () -> ());
    let w1 = now () in
    if s = 0 then Atomic.set t.decision (decide t ~until_done ~pending_desc);
    let w2 = now () in
    (* B: the decision is visible. *)
    barrier t ~on_wait:(fun () -> ());
    let w3 = now () in
    p.p_barrier_s <- p.p_barrier_s +. (w1 -. w0) +. (w3 -. w2);
    let d = Atomic.get t.decision in
    if d < 0 then continue := false
    else begin
      let e0 = Engine.events_processed eng in
      (try Engine.run_window eng ~stop:d
       with exn -> record_failure t exn);
      let w4 = now () in
      p.p_exec_s <- p.p_exec_s +. (w4 -. w3);
      prof_record_round p (Engine.events_processed eng - e0);
      (* C: every shard has finished the window, so the inbound links are
         stable; drain them before publishing next times. *)
      barrier t ~on_wait:(fun () -> drain t s);
      let w5 = now () in
      p.p_barrier_s <- p.p_barrier_s +. (w5 -. w4);
      (try drain t s with exn -> record_failure t exn);
      let w6 = now () in
      p.p_drain_s <- p.p_drain_s +. (w6 -. w5)
    end
  done;
  p.p_minor_words <- Gc.minor_words () -. words0;
  let gc1 = Gc.quick_stat () in
  p.p_major_collections <-
    gc1.Gc.major_collections - gc0.Gc.major_collections

let run t ~until_done ~pending_desc =
  let n = Array.length t.engines in
  let domains =
    Array.init (n - 1) (fun i ->
        Domain.spawn (fun () -> worker t ~until_done ~pending_desc (i + 1)))
  in
  worker t ~until_done ~pending_desc 0;
  Array.iter Domain.join domains;
  (match t.failure with Some exn -> raise exn | None -> ());
  Array.fold_left (fun acc e -> max acc (Engine.now e)) 0 t.engines

let shard_events t = Array.map Engine.events_processed t.engines
let profile t = Array.map snapshot_prof t.prof
let lookahead t = t.lookahead
