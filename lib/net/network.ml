module Msg = Spandex_proto.Msg
module Engine = Spandex_sim.Engine
module Stats = Spandex_util.Stats

type topology = {
  latency : src:int -> dst:int -> int;
  hops : src:int -> dst:int -> int;
  min_latency : int;
}

let flat_topology ~latency =
  {
    latency = (fun ~src:_ ~dst:_ -> latency);
    hops = (fun ~src:_ ~dst:_ -> 1);
    min_latency = latency;
  }

(* Both the latency and the hop count of a link derive from the same
   classification (same group or not): a cross-group message crosses as
   many links as its latency is multiples of the local link latency, so a
   topology with cross_latency = 3 * local_latency accounts 3 flit-hops
   per flit, not a hardcoded 2. *)
let grouped_topology ~group_of ~local_latency ~cross_latency =
  let link ~src ~dst = group_of src = group_of dst in
  let cross_hops =
    max 1 ((cross_latency + (local_latency / 2)) / max 1 local_latency)
  in
  {
    latency =
      (fun ~src ~dst -> if link ~src ~dst then local_latency else cross_latency);
    hops = (fun ~src ~dst -> if link ~src ~dst then 1 else cross_hops);
    min_latency = min local_latency cross_latency;
  }

module Trace = Spandex_sim.Trace

(* Per-shard slice of the network: its engine, and all the mutable
   accounting that slice touches — so a sharded run never has two domains
   writing one counter.  A device's sends are accounted on its own shard
   (a send happens on the sending device's domain); a delivery decrements
   the in-flight counter of the destination's shard.  At settled points
   (round horizons) the per-shard counters sum to exactly the sequential
   totals, because every message is counted once on each side. *)
type shard = {
  sh_engine : Engine.t;
  sh_traffic : int array;  (** flit-hops per category. *)
  sh_stats : Stats.t;
  sh_kind_keys : Stats.key array;  (** per-kind counters, by [Msg.kind_index]. *)
  sh_in_flight : int ref;
  mutable sh_messages : int;
  sh_trace : Trace.t;  (** that engine's sink; [Trace.disabled] when off. *)
  sh_n_fault_drop : int;
  sh_n_fault_dup : int;
  sh_n_fault_delay : int;
}

type cross_send =
  src_shard:int ->
  dst_shard:int ->
  time:int ->
  t0:int ->
  tie:int ->
  Msg.t ->
  Engine.endpoint ->
  unit

type t = {
  topo : topology;
  shards : shard array;
  shard_of : int -> int;  (** device id -> owning shard. *)
  (* Stamped cross-shard deliveries leave through here (the PDES link
     mesh); unused in a single-shard network. *)
  cross : cross_send;
  (* Device ids are small dense ints assigned by [Run], so the endpoint
     table is a plain array indexed by id (grown on register) instead of a
     Hashtbl — no hashing on the delivery hot path. *)
  mutable endpoints : Engine.endpoint option array;
  (* Active fault-injection plan: one [Fault.t] per shard, each charging
     its own shard's stats.  Decisions come from per-(src, dst) link RNG
     streams derived from the plan seed, and a link is only consulted by
     sends from [src] — i.e. from one shard — so the instances never
     race and the decision streams are identical at any shard count. *)
  faults : Fault.t array option;
  (* Model-checker delivery hook: when installed, [send] hands every
     accounted message here instead of enqueueing a [Deliver] event (or
     routing through the fault plan), letting the checker hold it and
     choose the delivery order; held messages re-enter via
     [deliver_held].  Single-shard only. *)
  mutable delivery_hook : (Msg.t -> latency:int -> unit) option;
  (* Per-virtual-channel (request-category) in-flight depth, armed only
     by [enable_vc_depth_metrics] on a single-shard network: the send
     path increments, a wrapper around every endpoint handler decrements.
     Cross-shard would mean two domains racing one array, so sharded runs
     leave it [None] (per-VC *send* counters remain available per
     shard). *)
  mutable vc_depth : int array option;
}

let category_index = function
  | Msg.Cat_ReqV -> 0
  | Msg.Cat_ReqS -> 1
  | Msg.Cat_ReqWT -> 2
  | Msg.Cat_ReqO -> 3
  | Msg.Cat_WB -> 4
  | Msg.Cat_Probe -> 5

let fault t = Option.map (fun a -> a.(0)) t.faults
let faults_enabled t = Option.is_some t.faults
let shard_count t = Array.length t.shards
let shard_of t id = t.shard_of id

let register t ~id handler =
  if id < 0 then invalid_arg "Network.register: negative id";
  if id >= Array.length t.endpoints then begin
    let grown =
      Array.make (max (id + 1) (2 * Array.length t.endpoints)) None
    in
    Array.blit t.endpoints 0 grown 0 (Array.length t.endpoints);
    t.endpoints <- grown
  end;
  match t.endpoints.(id) with
  | Some ep -> ep.Engine.handler <- handler
  | None ->
    (* The destination shard owns the in-flight count: it is decremented
       on delivery (the destination's domain), and incremented either on
       a same-shard send or when the destination injects a cross-shard
       arrival — never from another domain. *)
    let sh = t.shards.(t.shard_of id) in
    t.endpoints.(id) <-
      Some { Engine.handler; ingress_free = 0; in_flight = sh.sh_in_flight }

let endpoint t id =
  if id < 0 || id >= Array.length t.endpoints then
    failwith (Printf.sprintf "Network: unregistered endpoint %d" id)
  else
    match t.endpoints.(id) with
    | Some ep -> ep
    | None -> failwith (Printf.sprintf "Network: unregistered endpoint %d" id)

let send t (msg : Msg.t) =
  (* All accounting lands on the sending device's shard — [send] executes
     on that shard's domain. *)
  let ss = t.shard_of msg.Msg.src in
  let sh = t.shards.(ss) in
  let now = Engine.now sh.sh_engine in
  if Trace.on sh.sh_trace then
    Trace.msg_send sh.sh_trace ~time:now ~src:msg.src ~dst:msg.dst
      ~txn:msg.txn ~kind:(Msg.kind_index msg.kind) ~line:msg.line;
  let flits = Msg.flits msg in
  let hops = t.topo.hops ~src:msg.src ~dst:msg.dst in
  let cat = category_index (Msg.category msg.kind) in
  sh.sh_traffic.(cat) <- sh.sh_traffic.(cat) + (flits * hops);
  sh.sh_messages <- sh.sh_messages + 1;
  Stats.bump sh.sh_stats sh.sh_kind_keys.(Msg.kind_index msg.kind);
  let latency = t.topo.latency ~src:msg.src ~dst:msg.dst in
  (* Closure-free hot path: enqueue a typed [Deliver] event; the engine
     applies the one-message-per-cycle ingress drain and invokes
     [ep.handler] (decrementing [in_flight]) from the [Handle] event. *)
  let ep = endpoint t msg.dst in
  match t.delivery_hook with
  | Some hook ->
    (* The hook (model checker) holds messages arbitrarily long and may
       re-deliver them; detach from the pool. *)
    Msg.keep msg;
    hook msg ~latency
  | None -> (
  match t.faults with
  | None ->
    let ds = t.shard_of msg.Msg.dst in
    if ds = ss then begin
      (match t.vc_depth with Some a -> a.(cat) <- a.(cat) + 1 | None -> ());
      incr ep.Engine.in_flight;
      Engine.deliver sh.sh_engine ~delay:latency msg ep
    end
    else
      (* Stamp the canonical delivery key — the same draw a same-shard
         [Engine.deliver] would perform — and hand the message to the
         cross-shard link; the destination shard injects it (and counts
         it in flight) when it drains the link. *)
      t.cross ~src_shard:ss ~dst_shard:ds ~time:(now + latency) ~t0:now
        ~tie:(Engine.cross_tie sh.sh_engine msg)
        msg ep
  | Some faults -> (
    (* Under fault injection a message can be dropped (retry closures
       re-read it), duplicated (two Deliver events share one record) or
       replayed from a reply cache — blanket-detach instead of tracking
       which path each message takes.  Fault runs are off the measured
       hot path. *)
    Msg.keep msg;
    match Fault.route faults.(ss) ~now ~latency msg with
    | Fault.Drop ->
      if Trace.on sh.sh_trace then
        Trace.instant sh.sh_trace ~time:now ~dev:msg.src
          ~name:sh.sh_n_fault_drop ~txn:msg.txn
          ~arg:(Msg.kind_index msg.kind)
    | Fault.Deliver delays ->
      (match delays with
      | [ delay ] when delay <> latency && Trace.on sh.sh_trace ->
        Trace.instant sh.sh_trace ~time:now ~dev:msg.src
          ~name:sh.sh_n_fault_delay ~txn:msg.txn ~arg:(delay - latency)
      | _ -> ());
      let ds = t.shard_of msg.Msg.dst in
      List.iteri
        (fun i delay ->
          (* Duplicate copies occupy the fabric too. *)
          if i > 0 then begin
            sh.sh_traffic.(cat) <- sh.sh_traffic.(cat) + (flits * hops);
            if Trace.on sh.sh_trace then
              Trace.instant sh.sh_trace ~time:now ~dev:msg.src
                ~name:sh.sh_n_fault_dup ~txn:msg.txn ~arg:delay
          end;
          if ds = ss then begin
            (match t.vc_depth with
            | Some a -> a.(cat) <- a.(cat) + 1
            | None -> ());
            incr ep.Engine.in_flight;
            Engine.deliver sh.sh_engine ~delay msg ep
          end
          else
            (* Faulted deliveries cross shards like any other: the total
               delay never undercuts the nominal latency (extra delay and
               FIFO clamping only add), so [now + delay] respects the
               conservative lookahead.  Each copy draws its own tie —
               exactly the per-copy draws a same-shard [Engine.deliver]
               sequence would make. *)
            t.cross ~src_shard:ss ~dst_shard:ds ~time:(now + delay) ~t0:now
              ~tie:(Engine.cross_tie sh.sh_engine msg)
              msg ep)
        delays))

let set_delivery_hook t hook = t.delivery_hook <- Some hook
let clear_delivery_hook t = t.delivery_hook <- None

let deliver_held t (msg : Msg.t) =
  let ep = endpoint t msg.dst in
  incr ep.Engine.in_flight;
  Engine.deliver t.shards.(0).sh_engine ~delay:0 msg ep

let wrap_handler t ~id wrap =
  let ep = endpoint t id in
  ep.Engine.handler <- wrap ep.Engine.handler

let make_shard engine =
  let stats = Stats.create () in
  let kind_keys =
    let keys = Array.make Msg.num_kinds (Stats.key stats "ReqV") in
    List.iter
      (fun k -> keys.(Msg.kind_index k) <- Stats.key stats (Msg.kind_name k))
      Msg.all_kinds;
    keys
  in
  let trace = Engine.trace engine in
  {
    sh_engine = engine;
    sh_traffic = Array.make 6 0;
    sh_stats = stats;
    sh_kind_keys = kind_keys;
    sh_in_flight = ref 0;
    sh_messages = 0;
    sh_trace = trace;
    sh_n_fault_drop = Trace.name trace "fault.drop";
    sh_n_fault_dup = Trace.name trace "fault.dup";
    sh_n_fault_delay = Trace.name trace "fault.delay";
  }

let no_cross ~src_shard:_ ~dst_shard:_ ~time:_ ~t0:_ ~tie:_ _msg _ep =
  failwith "Network: cross-shard send on a single-shard network"

let create_sharded ?fault engines topo ~shard_of ~cross =
  if Array.length engines < 1 then
    invalid_arg "Network.create_sharded: need at least one shard";
  let shards = Array.map make_shard engines in
  let t =
    {
      topo;
      shards;
      shard_of;
      cross;
      endpoints = Array.make 64 None;
      faults =
        Option.map
          (fun spec ->
            Array.map (fun sh -> Fault.create spec ~stats:sh.sh_stats) shards)
          fault;
      delivery_hook = None;
      vc_depth = None;
    }
  in
  (* Components enqueue outbound messages as typed [Egress] events
     ({!Engine.send_later}) instead of per-message closures; install the
     dispatch target once per shard engine ([send] re-derives the shard
     from the sender id). *)
  Array.iter (fun e -> Engine.set_egress e (send t)) engines;
  t

let create ?fault engine topo =
  create_sharded ?fault [| engine |] topo ~shard_of:(fun _ -> 0)
    ~cross:no_cross

let in_flight t =
  Array.fold_left (fun acc sh -> acc + !(sh.sh_in_flight)) 0 t.shards

let traffic_flits t cat =
  let i = category_index cat in
  Array.fold_left (fun acc sh -> acc + sh.sh_traffic.(i)) 0 t.shards

let total_flits t =
  Array.fold_left
    (fun acc sh -> acc + Array.fold_left ( + ) 0 sh.sh_traffic)
    0 t.shards

let messages_sent t =
  Array.fold_left (fun acc sh -> acc + sh.sh_messages) 0 t.shards

let stats t = t.shards.(0).sh_stats
let shard_stats t = Array.map (fun sh -> sh.sh_stats) t.shards

(* ----- metrics ------------------------------------------------------------- *)

(* Shard-local probes only: every value read here is owned by [shard]'s
   domain, and the registry itself is sampled from that domain. *)
let register_metrics t ~shard reg =
  let module Metrics = Spandex_obs.Metrics in
  let sh = t.shards.(shard) in
  let labels = [ ("shard", string_of_int shard) ] in
  Metrics.counter reg ~name:"spandex_net_messages_total" ~labels
    ~help:"messages sent from this shard's devices" (fun () ->
      sh.sh_messages);
  Metrics.gauge reg ~name:"spandex_net_in_flight" ~labels
    ~help:"messages sent but not yet delivered (destination-side count)"
    (fun () -> !(sh.sh_in_flight));
  List.iter
    (fun cat ->
      let i = category_index cat in
      Metrics.counter reg ~name:"spandex_net_flits_total"
        ~labels:(("vc", Msg.category_name cat) :: labels)
        ~help:"flit-hops sent per virtual channel (request category)"
        (fun () -> sh.sh_traffic.(i)))
    Msg.all_categories;
  if Option.is_some t.faults then
    List.iter
      (fun what ->
        Metrics.counter reg
          ~name:(Printf.sprintf "spandex_net_fault_%s_total" what)
          ~labels
          ~help:"fault-injection outcomes on the interconnect" (fun () ->
            Stats.get sh.sh_stats ("fault." ^ what)))
      [ "injected"; "drop"; "dup"; "delay"; "reorder"; "exempt" ]

(* Arm the per-VC in-flight depth gauges.  Single-shard networks only
   (cross-shard would race one array from two domains); call after every
   endpoint has registered — later [register] calls on fresh ids would
   bypass the decrement wrapper. *)
let enable_vc_depth_metrics t reg =
  let module Metrics = Spandex_obs.Metrics in
  if Array.length t.shards = 1 && t.vc_depth = None && Metrics.on reg then begin
    let a = Array.make 6 0 in
    t.vc_depth <- Some a;
    Array.iter
      (function
        | None -> ()
        | Some ep ->
          let prev = ep.Engine.handler in
          ep.Engine.handler <-
            (fun msg ->
              let i = category_index (Msg.category msg.Msg.kind) in
              a.(i) <- a.(i) - 1;
              prev msg))
      t.endpoints;
    List.iter
      (fun cat ->
        let i = category_index cat in
        Metrics.gauge reg ~name:"spandex_net_vc_depth"
          ~labels:[ ("vc", Msg.category_name cat) ]
          ~help:"in-flight messages per virtual channel" (fun () -> a.(i)))
      Msg.all_categories
  end
