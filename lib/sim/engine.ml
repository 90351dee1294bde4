module Wheel = Spandex_util.Wheel
module Msg = Spandex_proto.Msg

type endpoint = {
  mutable handler : Msg.t -> unit;
  mutable ingress_free : int;  (** next cycle the ingress port is free. *)
  in_flight : int ref;  (** owning network's in-flight counter. *)
}

(* The dominant event kinds are represented as data instead of nested
   closures: [Handle] (tag 2) invokes the handler of a delivered message
   that had to wait for its ingress port (one grant per cycle), [Egress]
   (tag 3) a component handing a message to the network after its
   internal access latency (dispatched through the callback {!set_egress}
   installs), and [Apply] (tag 4) a completion continuation fired with its
   result value (load/RMW hits).  [Thunk] (tag 0) is the fallback for
   every other component callback.  Network deliveries do not live in
   this queue at all — see [Netq] below.

   Events are mutable records drawn from a per-engine free-list instead of
   variant cells: dispatch copies the payload fields into locals, returns
   the record to the free-list, then acts, so a steady-state simulation
   allocates no event cells at all.  The tag encoding replaces the
   constructor word; unused fields hold settled dummies so a parked record
   pins no component state. *)
type ev = {
  mutable tag : int;
  mutable fn : unit -> unit;  (* Thunk *)
  mutable af : int -> unit;  (* Apply continuation *)
  mutable iarg : int;  (* Apply value *)
  mutable msg : Msg.t;  (* Handle / Egress *)
  mutable ep : endpoint;  (* Handle *)
}

let nop () = ()
let nop1 (_ : int) = ()

(* Settled fillers for unused event fields.  [dummy_ep] is shared across
   engines (and domains) but never written through. *)
let dummy_ep = { handler = (fun _ -> ()); ingress_free = 0; in_flight = ref 0 }

let fresh_ev () =
  { tag = 0; fn = nop; af = nop1; iarg = 0; msg = Msg.dummy; ep = dummy_ep }

(* Network deliveries are ordered by a key that no scheduler implementation
   detail can perturb: (arrival time, send time, src << 40 | per-src seq).
   The engine drains same-cycle component events before granting the
   cycle's deliveries, so the interleave of deliveries with component work
   is canonical — a function of the simulated machine, not of the order
   the queue happened to be pushed.  That is what lets a sharded (PDES)
   run, where pushes from different shards have no global order at all,
   reproduce the sequential engine bit for bit: every shard computes the
   same delivery keys, and the per-shard component order is the sequential
   order restricted to that shard.

   Represented as buckets keyed by arrival cycle on a power-of-two ring:
   bucket [time land mask] holds only deliveries arriving at [time], as a
   list sorted on (t0, tie).  A push is appended at the tail when its key
   is the bucket's largest — the common case, since local pushes come in
   send order — and otherwise inserted by a walk from the head.  Every
   pending arrival lies in [now, now + ring size), because a push checks
   its own delay against the ring and pending deliveries are never in the
   past; a push beyond the ring doubles it, moving each bucket whole.
   Entries live in one pooled arena of parallel arrays ([next] links both
   the buckets and the free list), so steady-state pushes and pops
   allocate nothing.  Keys are unique — [tie] embeds a per-source sequence
   number — so ordering is total. *)
module Netq = struct
  type t = {
    mutable first : int array;  (* per bucket; -1 when empty. *)
    mutable last : int array;  (* per bucket; read only when non-empty. *)
    mutable mask : int;  (* ring size - 1. *)
    mutable head : int;  (* earliest pending arrival; max_int when empty. *)
    mutable len : int;
    mutable t0s : int array;
    mutable ties : int array;
    mutable msgs : Msg.t array;
    mutable eps : endpoint array;
    mutable next : int array;
    mutable free : int;  (* free-list head; -1 when the arena is full. *)
  }

  let create () =
    {
      first = Array.make 64 (-1);
      last = Array.make 64 (-1);
      mask = 63;
      head = max_int;
      len = 0;
      t0s = Array.make 64 0;
      ties = Array.make 64 0;
      msgs = Array.make 64 Msg.dummy;
      eps = Array.make 64 dummy_ep;
      next = Array.init 64 (fun i -> if i < 63 then i + 1 else -1);
      free = 0;
    }

  let min_time q = q.head

  let grow_arena q =
    let n = Array.length q.next in
    let extend a fill =
      let b = Array.make (2 * n) fill in
      Array.blit a 0 b 0 n;
      b
    in
    q.t0s <- extend q.t0s 0;
    q.ties <- extend q.ties 0;
    q.msgs <- extend q.msgs Msg.dummy;
    q.eps <- extend q.eps dummy_ep;
    q.next <- Array.init (2 * n) (fun i ->
        if i < n then q.next.(i) else if i < (2 * n) - 1 then i + 1 else -1);
    q.free <- n

  (* Double the ring until [time] fits.  Each pending arrival [T] lies in
     [now, now + size), so its bucket index [b] gives back
     [T = now + ((b - now) land mask)]; the bucket moves whole. *)
  let rec grow_ring q ~now ~time =
    let size = q.mask + 1 in
    let first = Array.make (2 * size) (-1)
    and last = Array.make (2 * size) (-1) in
    for b = 0 to q.mask do
      if q.first.(b) >= 0 then begin
        let nb = (now + ((b - now) land q.mask)) land ((2 * size) - 1) in
        first.(nb) <- q.first.(b);
        last.(nb) <- q.last.(b)
      end
    done;
    q.first <- first;
    q.last <- last;
    q.mask <- (2 * size) - 1;
    if time - now > q.mask then grow_ring q ~now ~time

  let less q i j =
    let ai = q.t0s.(i) and aj = q.t0s.(j) in
    ai < aj || (ai = aj && q.ties.(i) < q.ties.(j))

  (* [now] is the engine's current cycle: no pending arrival precedes it. *)
  let push q ~now ~time ~t0 ~tie msg ep =
    if time - now > q.mask then grow_ring q ~now ~time;
    if q.free < 0 then grow_arena q;
    let i = q.free in
    q.free <- q.next.(i);
    q.t0s.(i) <- t0;
    q.ties.(i) <- tie;
    q.msgs.(i) <- msg;
    q.eps.(i) <- ep;
    q.next.(i) <- -1;
    let b = time land q.mask in
    let f = q.first.(b) in
    if f < 0 then begin
      q.first.(b) <- i;
      q.last.(b) <- i
    end
    else if less q q.last.(b) i then begin
      q.next.(q.last.(b)) <- i;
      q.last.(b) <- i
    end
    else if less q i f then begin
      q.next.(i) <- f;
      q.first.(b) <- i
    end
    else begin
      (* [f] < i < last: some successor of [f] is larger than [i]. *)
      let p = ref f in
      while less q q.next.(!p) i do
        p := q.next.(!p)
      done;
      q.next.(i) <- q.next.(!p);
      q.next.(!p) <- i
    end;
    q.len <- q.len + 1;
    if time < q.head then q.head <- time

  (* Remove the earliest entry; callers read [msgs]/[eps] at
     [first.(head land mask)] first. *)
  let drop_min q =
    let b = q.head land q.mask in
    let i = q.first.(b) in
    let n = q.next.(i) in
    q.first.(b) <- n;
    (* Clear the entry so it pins neither message nor endpoint. *)
    q.msgs.(i) <- Msg.dummy;
    q.eps.(i) <- dummy_ep;
    q.next.(i) <- q.free;
    q.free <- i;
    q.len <- q.len - 1;
    if n < 0 then begin
      (* The bucket is spent: scan the ring for the next arrival. *)
      q.last.(b) <- -1;
      if q.len = 0 then q.head <- max_int
      else begin
        let h = ref (q.head + 1) in
        while q.first.(!h land q.mask) < 0 do
          incr h
        done;
        q.head <- !h
      end
    end
end

type backend = Wheel_backend | Pdes_backend of { shards : int }

(* Every engine schedules component events on one timing wheel; a
   [Pdes_backend] engine is one shard's scheduler, and the sharding itself
   lives in [Pdes]/[Run], not here. *)
type t = {
  wheel : ev Wheel.t;
  netq : Netq.t;
  (* Per-source delivery sequence numbers (index = src device id).  Under
     PDES each device sends from exactly one shard, so the per-shard
     arrays partition the sequential engine's single array — every source
     draws the same sequence either way. *)
  mutable dseq : int array;
  mutable lookahead : int;
      (* the until_done / watchdog check grid; [Run] sets it to the
         topology's min latency so every backend — sharded or not —
         evaluates completion at the same boundaries. *)
  mutable time : int;
  mutable steps : int;
  mutable step_limit : int;
  mutable egress : Msg.t -> unit;  (** installed once by [Network.create]. *)
  trace : Trace.t;
  (* Periodic sampler (the metrics registry's): fired inline by the
     dispatch loops whenever time reaches [next_sample], so sampling never
     enqueues events and the [steps]/event counts are identical with
     metrics on or off.
     [next_sample] stays [max_int] when no sampler is installed, making
     the disabled cost a single compare per event. *)
  mutable sampler : int -> unit;
  mutable next_sample : int;
  mutable sample_every : int;
  (* Registered by components at build time; each closure reports the
     component's still-live work (MSHR entries, store-buffer stores,
     parked ops) so a drained queue can be diagnosed as [Stuck] instead
     of silently returning as complete. *)
  mutable pending_sources : (unit -> pending_work list) list;
  (* Watchdog state, polled at lookahead-grid boundaries by [run] (and by
     the PDES coordinator via [watchdog_check]) — never via heartbeat
     events, which would perturb event counts and differ across shards. *)
  mutable wd_interval : int;  (* 0 = no watchdog *)
  mutable wd_beat : int;
  mutable wd_next : int;
  mutable wd_last : int;
  mutable wd_last_change : int;
  mutable wd_progress : unit -> int;
  mutable wd_describe : unit -> string;
  (* Event free-list: records recycled at dispatch, popped by the push
     helpers.  Engine-local, so no synchronization. *)
  mutable free_evs : ev array;
  mutable free_len : int;
}

and pending_work = {
  pw_device : string;  (** component name, e.g. ["denovo_l1.2"]. *)
  pw_txn : int;  (** transaction id, or [-1] when not transaction-bound. *)
  pw_line : int;  (** line address, or [-1] when unknown. *)
  pw_what : string;  (** short description of the stuck work. *)
}

exception Deadlock of string

type stuck = {
  stuck_cycle : int;  (** cycle at which the queue drained. *)
  stuck_work : pending_work list;  (** live work left behind. *)
}

exception Stuck of stuck

let pp_pending_work fmt p =
  Format.fprintf fmt "%s: %s (txn %d, line %d)" p.pw_device p.pw_what p.pw_txn
    p.pw_line

let pp_stuck fmt s =
  Format.fprintf fmt
    "event queue drained at cycle %d with %d live work item(s):" s.stuck_cycle
    (List.length s.stuck_work);
  List.iter (fun p -> Format.fprintf fmt "@\n  %a" pp_pending_work p)
    s.stuck_work

type livelock = {
  cycle : int;  (** cycle at which the watchdog gave up. *)
  stalled_for : int;  (** cycles since the last observed progress. *)
  detail : string;  (** pending work of the stuck components. *)
}

exception Livelock of livelock

let pp_livelock fmt l =
  Format.fprintf fmt "livelock at cycle %d (no progress for %d cycles): %s"
    l.cycle l.stalled_for l.detail

let create ?(trace = Trace.disabled) () =
  {
    wheel = Wheel.create ~horizon:512 ~dummy:(fresh_ev ()) ();
    netq = Netq.create ();
    dseq = Array.make 64 0;
    lookahead = 1;
    time = 0;
    steps = 0;
    step_limit = 500_000_000;
    egress = (fun _ -> failwith "Engine: no egress callback installed");
    trace;
    sampler = (fun _ -> ());
    next_sample = max_int;
    sample_every = 0;
    pending_sources = [];
    wd_interval = 0;
    wd_beat = 0;
    wd_next = 0;
    wd_last = 0;
    wd_last_change = 0;
    wd_progress = (fun () -> 0);
    wd_describe = (fun () -> "");
    free_evs = Array.init 64 (fun _ -> fresh_ev ());
    free_len = 64;
  }

let register_pending_source t f = t.pending_sources <- f :: t.pending_sources

let live_work t =
  (* Sources are prepended at registration; reverse so reports follow
     build order. *)
  List.concat_map (fun f -> f ()) (List.rev t.pending_sources)

let now t = t.time
let set_egress t f = t.egress <- f
let trace t = t.trace

let set_lookahead t l =
  if l <= 0 then invalid_arg "Engine.set_lookahead";
  t.lookahead <- l

let lookahead t = t.lookahead

let set_sampler t ~every f =
  if every <= 0 then invalid_arg "Engine.set_sampler: every";
  t.sampler <- f;
  t.sample_every <- every;
  t.next_sample <- t.time

let sample_now t =
  t.next_sample <- t.time + t.sample_every;
  t.sampler t.time

let ev_alloc t =
  if t.free_len > 0 then begin
    t.free_len <- t.free_len - 1;
    t.free_evs.(t.free_len)
  end
  else fresh_ev ()

(* Clear the payload fields before parking so a free record pins neither a
   closure environment nor a message. *)
let ev_recycle t e =
  e.fn <- nop;
  e.af <- nop1;
  e.msg <- Msg.dummy;
  e.ep <- dummy_ep;
  if t.free_len = Array.length t.free_evs then begin
    let cap = 2 * t.free_len in
    let free = Array.make cap e in
    Array.blit t.free_evs 0 free 0 t.free_len;
    t.free_evs <- free
  end;
  t.free_evs.(t.free_len) <- e;
  t.free_len <- t.free_len + 1

let at t ~time f =
  if time < t.time then
    invalid_arg
      (Printf.sprintf "Engine.at: time %d is in the past (now %d)" time t.time);
  let e = ev_alloc t in
  e.tag <- 0;
  e.fn <- f;
  Wheel.push t.wheel ~time e

let schedule t ~delay f =
  if delay < 0 then invalid_arg "Engine.schedule: negative delay";
  let e = ev_alloc t in
  e.tag <- 0;
  e.fn <- f;
  Wheel.push t.wheel ~time:(t.time + delay) e

(* Delivery ties pack (src, per-src seq) into one int: src in the high
   bits, sequence below.  Device ids are small dense ints (< 2^22 with
   room to spare); sequences fit 40 bits for any plausible run. *)
let draw_tie t src =
  if src < 0 || src >= 1 lsl 22 then
    invalid_arg "Engine: src device id out of range";
  if src >= Array.length t.dseq then begin
    let grown = Array.make (max (src + 1) (2 * Array.length t.dseq)) 0 in
    Array.blit t.dseq 0 grown 0 (Array.length t.dseq);
    t.dseq <- grown
  end;
  let s = t.dseq.(src) in
  t.dseq.(src) <- s + 1;
  (src lsl 40) lor s

let deliver t ~delay (msg : Msg.t) ep =
  if delay < 0 then invalid_arg "Engine.deliver: negative delay";
  Netq.push t.netq ~now:t.time ~time:(t.time + delay) ~t0:t.time
    ~tie:(draw_tie t msg.Msg.src) msg ep

let cross_tie t (msg : Msg.t) = draw_tie t msg.Msg.src

let inject t ~time ~t0 ~tie msg ep =
  if time < t.time then
    invalid_arg
      (Printf.sprintf "Engine.inject: time %d is in the past (now %d)" time
         t.time);
  (* The destination shard owns the in-flight count for messages bound to
     its endpoints; a cross-shard message is counted when it crosses into
     the shard (the sender's network context never saw it). *)
  incr ep.in_flight;
  Netq.push t.netq ~now:t.time ~time ~t0 ~tie msg ep

let send_later t ~delay msg =
  if delay < 0 then invalid_arg "Engine.send_later: negative delay";
  let e = ev_alloc t in
  e.tag <- 3;
  e.msg <- msg;
  Wheel.push t.wheel ~time:(t.time + delay) e

let apply_later t ~delay f v =
  if delay < 0 then invalid_arg "Engine.apply_later: negative delay";
  let e = ev_alloc t in
  e.tag <- 4;
  e.af <- f;
  e.iarg <- v;
  Wheel.push t.wheel ~time:(t.time + delay) e

let step_limit_hit t =
  raise
    (Deadlock
       (Printf.sprintf "step limit %d exceeded at cycle %d" t.step_limit t.time))

(* Run a granted delivery's handler.  Once it returns, the message goes
   back to its pool unless the handler kept it (see {!Msg.recycle}). *)
let handle ep msg =
  decr ep.in_flight;
  ep.handler msg;
  Msg.recycle msg

(* Dispatch copies an event's fields into locals and recycles the record
   *before* acting, so the action's own pushes can reuse it immediately. *)
let wheel_dispatch t (e : ev) =
  match e.tag with
  | 0 ->
    let f = e.fn in
    ev_recycle t e;
    f ()
  | 2 ->
    let ep = e.ep in
    let msg = e.msg in
    ev_recycle t e;
    handle ep msg
  | 3 ->
    let msg = e.msg in
    ev_recycle t e;
    t.egress msg
  | _ ->
    let f = e.af in
    let v = e.iarg in
    ev_recycle t e;
    f v

(* Grant the best pending delivery: the one-message-per-cycle ingress
   drain assigns the port slot.  A port that is free this cycle runs the
   handler at once.  That is the order a [Handle] event would give: a
   delivery pops only when the wheel's head is strictly later, so a
   [Handle] pushed for the current cycle would be the very next event.
   The inline grant still counts that event (and checks the step limit),
   so [events_processed] is the same either way.  A back-pressured
   delivery becomes a [Handle] event at its granted cycle, which
   [dispatch] drains before granting the next delivery of that cycle. *)
let netq_dispatch t =
  let q = t.netq in
  let i = q.Netq.first.(q.Netq.head land q.Netq.mask) in
  let msg = q.Netq.msgs.(i) and ep = q.Netq.eps.(i) in
  Netq.drop_min q;
  if ep.ingress_free > t.time then begin
    let deliver_at = ep.ingress_free in
    ep.ingress_free <- deliver_at + 1;
    let e = ev_alloc t in
    e.tag <- 2;
    e.msg <- msg;
    e.ep <- ep;
    Wheel.push t.wheel ~time:deliver_at e
  end
  else begin
    ep.ingress_free <- t.time + 1;
    t.steps <- t.steps + 1;
    if t.steps > t.step_limit then step_limit_hit t;
    handle ep msg
  end

(* Dispatch the next event under the canonical pop rule: component events
   first at equal times, a delivery only when strictly earlier than the
   wheel's head (or the wheel is idle).  Combined with [Handle] being a
   component event, this makes the merged order a pure function of the
   simulated machine.  Every run loop reads both heads once — [tq] the
   wheel's, [tn] the [Netq]'s — and passes them here; the caller has
   checked that some event is queued. *)
let dispatch t tq tn =
  t.steps <- t.steps + 1;
  if t.steps > t.step_limit then step_limit_hit t;
  if tn < tq then begin
    t.time <- tn;
    if tn >= t.next_sample then sample_now t;
    netq_dispatch t
  end
  else begin
    let ev = Wheel.pop_min t.wheel in
    t.time <- tq;
    if tq >= t.next_sample then sample_now t;
    wheel_dispatch t ev
  end

let next_time t =
  let tq = Wheel.peek_time t.wheel and tn = Netq.min_time t.netq in
  if tn < tq then tn else tq

let step t =
  let tq = Wheel.peek_time t.wheel and tn = Netq.min_time t.netq in
  if tq = max_int && tn = max_int then false
  else begin
    dispatch t tq tn;
    true
  end

(* A drained queue is only "done" if no component still holds live work:
   an L1 waiting on a reply that will never arrive would otherwise look
   like a completed simulation. *)
let run_all ?(strict = true) t =
  while step t do
    ()
  done;
  if strict then begin
    match live_work t with
    | [] -> ()
    | work -> raise (Stuck { stuck_cycle = t.time; stuck_work = work })
  end;
  t.time

let set_step_limit t n = t.step_limit <- n
let events_processed t = t.steps

(* Watchdog: polled at lookahead-grid boundaries instead of via heartbeat
   events.  [boundary] values form a deterministic sequence (derived from
   event times), so sequential and sharded runs make identical stall
   decisions; the beat throttle keeps the progress census off the
   per-window path. *)
let set_watchdog t ~interval ~progress ~describe =
  if interval <= 0 then invalid_arg "Engine.set_watchdog: interval";
  t.wd_interval <- interval;
  t.wd_beat <- max 1 (interval / 4);
  t.wd_next <- 0;
  t.wd_progress <- progress;
  t.wd_describe <- describe;
  t.wd_last <- progress ();
  t.wd_last_change <- t.time

let watchdog_check t ~boundary =
  if t.wd_interval > 0 && boundary >= t.wd_next then begin
    t.wd_next <- boundary + t.wd_beat;
    let cur = t.wd_progress () in
    if cur <> t.wd_last then begin
      t.wd_last <- cur;
      t.wd_last_change <- boundary
    end
    else if boundary - t.wd_last_change >= t.wd_interval then
      raise
        (Livelock
           {
             cycle = boundary;
             stalled_for = boundary - t.wd_last_change;
             detail = t.wd_describe ();
           })
  end

(* [run] checks [until_done] at lookahead-grid boundaries, not per event:
   when the next event's window [b, b + L) differs from the last checked
   one, completion (and the watchdog) are evaluated on the settled state
   of everything before [b].  This is exactly the schedule on which the
   PDES coordinator can evaluate the same predicates — every shard has
   completed the same prefix at a window barrier — so both finish at the
   same cycle with the same event count. *)
let run t ~until_done ~pending_desc =
  let l = t.lookahead in
  (* [loop] returns the finish cycle, or [-1] when the queue drains first. *)
  let rec loop check_at =
    let tq = Wheel.peek_time t.wheel and tn = Netq.min_time t.netq in
    let te = if tn < tq then tn else tq in
    if te = max_int then if until_done () then t.time else -1
    else if te >= check_at then
      if until_done () then t.time
      else begin
        let b = l * (te / l) in
        watchdog_check t ~boundary:b;
        dispatch t tq tn;
        loop (b + l)
      end
    else begin
      dispatch t tq tn;
      loop check_at
    end
  in
  match loop min_int with
  | -1 -> raise (Deadlock (pending_desc ()))
  | finish -> finish
  | exception Deadlock msg ->
    (* Step-limit overruns get the caller's pending description. *)
    raise (Deadlock (Printf.sprintf "%s: %s" msg (pending_desc ())))

(* PDES window execution: drain every event strictly before [stop].  The
   caller (the round coordinator) guarantees no event before [stop] can
   still arrive from another shard. *)
let run_window t ~stop =
  let rec loop () =
    let tq = Wheel.peek_time t.wheel and tn = Netq.min_time t.netq in
    if tq < stop || tn < stop then begin
      dispatch t tq tn;
      loop ()
    end
  in
  loop ()
