module Engine = Spandex_sim.Engine
module Trace = Spandex_sim.Trace
module Hist = Spandex_util.Hist
module Network = Spandex_net.Network
module Msg = Spandex_proto.Msg
module Txn = Spandex_proto.Txn
module Dram = Spandex_mem.Dram
module Stats = Spandex_util.Stats
module Core = Spandex_device.Core
module Port = Spandex_device.Port
module Barrier = Spandex_device.Barrier
module Check_log = Spandex_device.Check_log
module Pdes = Spandex_sim.Pdes
module Metrics = Spandex_obs.Metrics
module Llc = Spandex.Llc
module Backing = Spandex.Backing
module Mesi_l1 = Spandex_mesi.Mesi_l1
module Mesi_dir = Spandex_mesi.Mesi_dir
module Mesi_client = Spandex_mesi.Mesi_client
module Gpu_l1 = Spandex_gpucoh.Gpu_l1
module Denovo_l1 = Spandex_denovo.Denovo_l1

type result = {
  cycles : int;
  total_flits : int;
  traffic : (Msg.category * int) list;
  messages : int;
  events : int;
  checks : int;
  failures : Check_log.failure list;
  stats : Stats.t;
  minor_words : float;
  major_collections : int;
  latency : (string * Hist.summary) list;
  trace : Trace.t;
  device_names : string array;
  shards : int;
  shard_events : int array;
  metrics : Metrics.t;
  shard_profile : Pdes.shard_profile array option;
  partition : (string * int) array;
  cap_reason : string option;
  dram_channel_peaks : int array;
}

type component = {
  c_name : string;
  c_quiescent : unit -> bool;
  c_pending : unit -> string;
  c_stats : Stats.t;
  c_metrics : Metrics.t -> unit;
  c_fingerprint : Spandex_util.Fingerprint.t -> unit;
}

type view = {
  view_id : int;
  view_name : string;
  view_owned : line:int -> Spandex_util.Mask.t;
  view_peek : Spandex_proto.Addr.t -> int option;
}

type llc_view = {
  lv_owner_of : Spandex_proto.Addr.t -> Msg.device_id option;
  lv_owned_mask : line:int -> Spandex_util.Mask.t;
  lv_peek : Spandex_proto.Addr.t -> int option;
}

type system = {
  sys_engine : Engine.t;
  sys_net : Network.t;
  sys_check_logs : Check_log.t list;
  sys_device_names : string array;
  sys_finished : unit -> bool;
  sys_pending : unit -> string;
  sys_fingerprint : unit -> string;
  sys_views : view list;
  sys_llc : llc_view option;
  sys_run : unit -> result;
}

let cache_geometry ~bytes ~ways =
  Spandex_mem.Cache_frame.size_lines ~bytes ~ways

let build_denovo engine net (p : Params.t) ~id ~llc_id ~atomics_at_llc ~region_of
    ~policy =
  let sets, ways = cache_geometry ~bytes:p.Params.l1_bytes ~ways:p.Params.l1_ways in
  let l1 =
    Denovo_l1.create engine net
      {
        Denovo_l1.id;
        llc_id;
        llc_banks = p.Params.llc_banks;
        sets;
        ways;
        mshrs = p.Params.mshrs;
        sb_capacity = p.Params.sb_capacity;
        hit_latency = p.Params.hit_latency;
        coalesce_window = p.Params.coalesce_window;
        max_reqv_retries = p.Params.max_reqv_retries;
        atomics_at_llc;
        region_of;
        policy;
      }
  in
  ( Denovo_l1.port l1,
    {
      c_name = Printf.sprintf "denovo_l1.%d" id;
      c_quiescent = (fun () -> (Denovo_l1.port l1).Port.quiescent ());
      c_pending = (fun () -> (Denovo_l1.port l1).Port.describe_pending ());
      c_stats = Denovo_l1.stats l1;
      c_metrics =
        Denovo_l1.register_metrics l1
          ~device:(Printf.sprintf "denovo_l1.%d" id);
      c_fingerprint = Denovo_l1.fingerprint l1;
    },
    {
      view_id = id;
      view_name = Printf.sprintf "denovo_l1.%d" id;
      view_owned = (fun ~line -> Denovo_l1.owned_mask l1 ~line);
      view_peek = Denovo_l1.peek_word l1;
    } )

let build_mesi engine net (p : Params.t) ~id ~llc_id ~notify =
  let sets, ways = cache_geometry ~bytes:p.Params.l1_bytes ~ways:p.Params.l1_ways in
  let l1 =
    Mesi_l1.create engine net
      {
        Mesi_l1.id;
        llc_id;
        llc_banks = p.Params.llc_banks;
        sets;
        ways;
        mshrs = p.Params.mshrs;
        sb_capacity = p.Params.sb_capacity;
        hit_latency = p.Params.hit_latency;
        coalesce_window = p.Params.coalesce_window;
        notify_home_on_fwd_getm = notify;
      }
  in
  ( Mesi_l1.port l1,
    {
      c_name = Printf.sprintf "mesi_l1.%d" id;
      c_quiescent = (fun () -> (Mesi_l1.port l1).Port.quiescent ());
      c_pending = (fun () -> (Mesi_l1.port l1).Port.describe_pending ());
      c_stats = Mesi_l1.stats l1;
      c_metrics =
        Mesi_l1.register_metrics l1 ~device:(Printf.sprintf "mesi_l1.%d" id);
      c_fingerprint = Mesi_l1.fingerprint l1;
    },
    {
      view_id = id;
      view_name = Printf.sprintf "mesi_l1.%d" id;
      view_owned = (fun ~line -> Mesi_l1.owned_mask l1 ~line);
      view_peek = Mesi_l1.peek_word l1;
    } )

let build_gpucoh engine net (p : Params.t) ~id ~llc_id =
  let sets, ways = cache_geometry ~bytes:p.Params.l1_bytes ~ways:p.Params.l1_ways in
  let l1 =
    Gpu_l1.create engine net
      {
        Gpu_l1.id;
        llc_id;
        llc_banks = p.Params.llc_banks;
        sets;
        ways;
        mshrs = p.Params.mshrs;
        sb_capacity = p.Params.sb_capacity;
        hit_latency = p.Params.hit_latency;
        coalesce_window = p.Params.coalesce_window;
        max_reqv_retries = p.Params.max_reqv_retries;
      }
  in
  ( Gpu_l1.port l1,
    {
      c_name = Printf.sprintf "gpu_l1.%d" id;
      c_quiescent = (fun () -> (Gpu_l1.port l1).Port.quiescent ());
      c_pending = (fun () -> (Gpu_l1.port l1).Port.describe_pending ());
      c_stats = Gpu_l1.stats l1;
      c_metrics =
        Gpu_l1.register_metrics l1 ~device:(Printf.sprintf "gpu_l1.%d" id);
      c_fingerprint = Gpu_l1.fingerprint l1;
    },
    {
      view_id = id;
      view_name = Printf.sprintf "gpu_l1.%d" id;
      (* A GPU-coherence L1 never takes ownership of words. *)
      view_owned = (fun ~line:_ -> Spandex_util.Mask.empty);
      view_peek = Gpu_l1.peek_word l1;
    } )

let build ?(params = Params.default) ~(config : Config.t) (w : Workload.t) =
  Workload.validate w;
  Txn.reset ();
  let p = params in
  (* Allocation accounting covers the whole simulation — build + run — so
     bench harnesses can watch for allocation regressions alongside
     wall-clock.  Not part of bit-identity (GC counters are per-domain and
     scheduling-dependent). *)
  let gc0 = Gc.quick_stat () in
  (* Device ids: CPUs, then GPU CUs, then LLC/dir, L2 front, L2 back. *)
  let cpu_id i = i in
  let gpu_id j = p.Params.cpu_cores + j in
  let banks = p.Params.llc_banks in
  let home_id = p.Params.cpu_cores + p.Params.gpu_cus in
  let l2_front_id = home_id + banks in
  let l2_back_id = l2_front_id + banks in
  (* --- sharding plan ------------------------------------------------------ *)
  (* The partition (DESIGN.md §9): every self-contained component is a
     placement unit — each core (with its L1), each home bank (an LLC or
     directory bank plus its DRAM channel), and, hierarchical configs, the
     GPU-L2 complex (L2 banks + MESI client backside, whose shared
     MSHR/recall state forbids splitting).  [Params.pdes_partition] maps
     each group to shards; the default round-robins everything, so no
     shard is a component-pinned "home complex" any more.  Structural caps
     keep the partition sound:
     - barrier wakes are 1-cycle events on the barrier's engine, far
       below the network lookahead, so barrier workloads co-locate every
       core on one shard (the cores collapse to one unit);
     - more shards than placement units would leave empty shards.
     Fault plans no longer cap: per-(src, dst) link RNG streams make
     injection decisions shard-count-invariant (see [Fault]). *)
  let requested_shards =
    match p.Params.engine_backend with
    | Engine.Pdes_backend { shards } -> shards
    | Engine.Wheel_backend -> 1
  in
  let n_cores =
    Array.length w.Workload.cpu_programs + Array.length w.Workload.gpu_programs
  in
  let has_barriers = Array.length w.Workload.barrier_parties > 0 in
  let hierarchical = config.Config.llc = Config.H_mesi in
  let core_units = if has_barriers then 1 else n_cores in
  let unit_count = core_units + banks + if hierarchical then 1 else 0 in
  let shard_cap = max 1 unit_count in
  let shards = max 1 (min requested_shards shard_cap) in
  let cap_reason =
    if requested_shards <= shards then None
    else
      let units =
        Printf.sprintf "%d core unit%s + %d home bank%s%s = %d placement units"
          core_units
          (if core_units = 1 then "" else "s")
          banks
          (if banks = 1 then "" else "s")
          (if hierarchical then " + 1 GPU-L2 complex" else "")
          unit_count
      in
      if has_barriers then
        Some
          (Printf.sprintf
             "barrier workload: barrier wakes are 1-cycle events below the \
              network lookahead, so all %d cores co-locate on one shard (%s)"
             n_cores units)
      else Some (Printf.sprintf "bank/component count: %s" units)
  in
  let partition_spec = p.Params.pdes_partition in
  let place (pl : Params.placement) ~unit_base u =
    if shards = 1 then 0
    else
      match pl with
      | Params.Pin s -> ((s mod shards) + shards) mod shards
      | Params.Spread -> (unit_base + u) mod shards
  in
  let bank_shard b = place partition_spec.Params.home_banks ~unit_base:0 b in
  let core_shard id =
    match (has_barriers, partition_spec.Params.cores) with
    (* The collapsed core unit is by far the heaviest (every core, L1 and
       pipeline event lands on it); give it the last shard so shard 0
       keeps only its round-robin share of home banks instead of
       re-becoming the hotspot the banked partition exists to break up. *)
    | true, Params.Spread -> shards - 1
    | true, (Params.Pin _ as pl) -> place pl ~unit_base:0 0
    | false, pl -> place pl ~unit_base:banks id
  in
  let gpu_shard =
    place partition_spec.Params.gpu_complex ~unit_base:(banks + core_units) 0
  in
  let shard_of id =
    if id < home_id then core_shard id
    else if id < l2_front_id then bank_shard (id - home_id)
    else gpu_shard
  in
  let trace =
    match p.Params.trace with
    | None -> Trace.disabled
    | Some spec -> Trace.create spec
  in
  (* One trace sink per shard — a sink is single-domain; they merge
     deterministically on export. *)
  let traces =
    Array.init shards (fun s ->
        if s = 0 then trace
        else
          match p.Params.trace with
          | None -> Trace.disabled
          | Some spec -> Trace.create spec)
  in
  let engines =
    Array.init shards (fun s ->
        Engine.create ~trace:traces.(s) ())
  in
  let engine = engines.(0) in
  (* One metrics registry per shard, mirroring the trace sinks: every
     probe registered on shard [s]'s registry reads only state owned by
     shard [s]'s domain, and the registries merge after the run. *)
  let mregs =
    Array.init shards (fun _ ->
        match p.Params.metrics with
        | None -> Metrics.disabled
        | Some spec -> Metrics.create spec)
  in
  (* Human-readable endpoint names for trace export ("who is track 12?"). *)
  let device_names =
    Array.init (l2_back_id + 1) (fun id ->
        if id < p.Params.cpu_cores then
          match config.Config.cpu with
          | Config.Cpu_mesi -> Printf.sprintf "mesi_l1.%d" id
          | Config.Cpu_denovo -> Printf.sprintf "denovo_l1.%d" id
        else if id < home_id then (
          let j = id - p.Params.cpu_cores in
          match config.Config.gpu with
          | Config.Gpu_coh -> Printf.sprintf "gpu_l1.%d" j
          | Config.Gpu_denovo | Config.Gpu_adaptive | Config.Gpu_adaptive_rw ->
            Printf.sprintf "gpu_denovo_l1.%d" j)
        else if id < l2_front_id then (
          let b = id - home_id in
          match config.Config.llc with
          | Config.Spandex_flat -> Printf.sprintf "llc.b%d" b
          | Config.H_mesi -> Printf.sprintf "dir.b%d" b)
        else if id < l2_back_id then
          Printf.sprintf "gpu_l2.b%d" (id - l2_front_id)
        else "mesi_client")
  in
  let topo =
    match config.Config.llc with
    | Config.Spandex_flat ->
      Network.flat_topology ~latency:p.Params.flat_net_latency
    | Config.H_mesi ->
      let group_of id =
        if id = l2_back_id then 2
        else if id >= p.Params.cpu_cores && id < home_id then 1
        else if id >= l2_front_id && id < l2_back_id then 1
        else 0
      in
      Network.grouped_topology ~group_of
        ~local_latency:p.Params.local_net_latency
        ~cross_latency:p.Params.cross_net_latency
  in
  let pdes =
    if shards > 1 then
      Some
        (Pdes.create ~clock:Unix.gettimeofday
           ~lookahead:topo.Network.min_latency engines)
    else None
  in
  let net =
    match pdes with
    | None -> Network.create ?fault:p.Params.fault engine topo
    | Some pd ->
      Network.create_sharded ?fault:p.Params.fault engines topo ~shard_of
        ~cross:(fun ~src_shard ~dst_shard ~time ~t0 ~tie msg ep ->
          Pdes.push pd ~src_shard ~dst_shard ~time ~t0 ~tie msg ep)
  in
  (* Completion checks and the watchdog run on the topology's min-latency
     grid in every backend, so a sharded PDES run — which can only evaluate
     them at lookahead-aligned horizons — sees the identical boundary
     sequence and finishes at the identical cycle. *)
  Array.iter
    (fun e -> Engine.set_lookahead e topo.Network.min_latency)
    engines;
  (* One DRAM channel per home bank, each on its bank's shard engine: a
     bank only touches lines ≡ bank (mod banks), which route to exactly
     its channel, so memory timing state is bank-local.  The sequential
     backends build the identical banked structure (all channels on the
     one engine), keeping pdes == wheel bit-identity. *)
  let home_bank_engines = Array.init banks (fun b -> engines.(bank_shard b)) in
  let dram =
    Dram.create_banked home_bank_engines ~latency:p.Params.mem_latency
      ~service_interval:p.Params.mem_interval
  in
  (* Components tagged with their owning shard, for per-shard metrics. *)
  let components = ref [] in
  let add ?(shard = 0) c = components := (shard, c) :: !components in
  let all_components () = List.map snd !components in
  let kind_of id =
    if id < p.Params.cpu_cores then
      match config.Config.cpu with
      | Config.Cpu_mesi -> Llc.Kind_mesi
      | Config.Cpu_denovo -> Llc.Kind_denovo
    else
      match config.Config.gpu with
      | Config.Gpu_coh -> Llc.Kind_gpu
      | Config.Gpu_denovo | Config.Gpu_adaptive | Config.Gpu_adaptive_rw ->
        Llc.Kind_denovo
  in
  (* --- home level(s) ------------------------------------------------------ *)
  let cpu_home, gpu_home, llc_view =
    match config.Config.llc with
    | Config.Spandex_flat ->
      let sets, ways = cache_geometry ~bytes:p.Params.llc_bytes ~ways:p.Params.llc_ways in
      let llc =
        Llc.create ~bank_engines:home_bank_engines
          ~bank_backings:
            (Array.map (fun e -> Backing.dram e dram) home_bank_engines)
          engine net
          (Backing.dram engine dram)
          {
            Llc.llc_id = home_id;
            banks;
            sets;
            ways;
            (* The flat LLC replaces the intermediate level and sits at its
               distance (Table VI). *)
            access_latency = p.Params.l2_access;
            kind_of;
            reqs_policy = p.Params.reqs_policy;
          }
      in
      (* One component per bank, all named "spandex_llc": the merged stats
         sum back to the aggregate, and each bank's metrics and quiescence
         run on its own shard.  The fingerprint (settled points only) is
         emitted once, from bank 0's slot. *)
      for b = 0 to banks - 1 do
        add ~shard:(bank_shard b)
          {
            c_name = "spandex_llc";
            c_quiescent = (fun () -> Llc.bank_quiescent llc b);
            c_pending = (fun () -> Llc.bank_describe_pending llc b);
            c_stats = Llc.bank_stats llc b;
            c_metrics =
              (fun reg -> Llc.bank_register_metrics llc ~device:"spandex_llc" b reg);
            c_fingerprint =
              (if b = 0 then Llc.fingerprint llc else fun _ -> ());
          }
      done;
      ( home_id,
        home_id,
        Some
          {
            lv_owner_of = Llc.owner_of llc;
            lv_owned_mask = (fun ~line -> Llc.owned_mask llc ~line);
            lv_peek = Llc.peek_word llc;
          } )
    | Config.H_mesi ->
      let dsets, dways = cache_geometry ~bytes:p.Params.llc_bytes ~ways:p.Params.llc_ways in
      let dir =
        Mesi_dir.create ~bank_engines:home_bank_engines engine net dram
          { Mesi_dir.dir_id = home_id; banks; sets = dsets; ways = dways;
            access_latency = p.Params.llc_access }
      in
      for b = 0 to banks - 1 do
        add ~shard:(bank_shard b)
          {
            c_name = "mesi_dir";
            c_quiescent = (fun () -> Mesi_dir.bank_quiescent dir b);
            c_pending = (fun () -> Mesi_dir.bank_describe_pending dir b);
            c_stats = Mesi_dir.bank_stats dir b;
            c_metrics =
              (fun reg ->
                Mesi_dir.bank_register_metrics dir ~device:"mesi_dir" b reg);
            c_fingerprint =
              (if b = 0 then Mesi_dir.fingerprint dir else fun _ -> ());
          }
      done;
      (* The GPU-L2 complex — L2 banks plus the MESI client backside —
         shares MSHR and recall state through direct closure calls, so it
         is one placement unit on [gpu_shard]. *)
      let gpu_engine = engines.(gpu_shard) in
      let client =
        Mesi_client.create gpu_engine net
          { Mesi_client.id = l2_back_id; dir_id = home_id; dir_banks = banks;
            hit_latency = p.Params.hit_latency }
      in
      let l2sets, l2ways =
        cache_geometry ~bytes:p.Params.gpu_l2_bytes ~ways:p.Params.gpu_l2_ways
      in
      let l2 =
        Llc.create
          ~bank_engines:(Array.make banks gpu_engine)
          gpu_engine net
          (Mesi_client.backing client)
          {
            Llc.llc_id = l2_front_id;
            banks;
            sets = l2sets;
            ways = l2ways;
            access_latency = p.Params.l2_access;
            kind_of;
            reqs_policy = p.Params.reqs_policy;
          }
      in
      for b = 0 to banks - 1 do
        add ~shard:gpu_shard
          {
            c_name = "gpu_l2";
            c_quiescent = (fun () -> Llc.bank_quiescent l2 b);
            c_pending = (fun () -> Llc.bank_describe_pending l2 b);
            c_stats = Llc.bank_stats l2 b;
            c_metrics =
              (fun reg -> Llc.bank_register_metrics l2 ~device:"gpu_l2" b reg);
            c_fingerprint = (if b = 0 then Llc.fingerprint l2 else fun _ -> ());
          }
      done;
      add ~shard:gpu_shard
        {
          c_name = "mesi_client";
          c_quiescent = (fun () -> (Mesi_client.backing client).Backing.quiescent ());
          c_pending = (fun () -> (Mesi_client.backing client).Backing.describe_pending ());
          c_stats = Mesi_client.stats client;
          c_metrics =
            Mesi_client.register_metrics client ~device:"mesi_client";
          c_fingerprint = Mesi_client.fingerprint client;
        };
      (home_id, l2_front_id, None)
  in
  (* --- L1s ------------------------------------------------------------------ *)
  (* Each L1 is created on its core's shard engine: the core drives its
     port directly and the L1 schedules its own latency/retry events, all
     of which must run on the owning shard's clock. *)
  let cpu_port eng i =
    match config.Config.cpu with
    | Config.Cpu_mesi ->
      build_mesi eng net p ~id:(cpu_id i) ~llc_id:cpu_home
        ~notify:(config.Config.llc = Config.H_mesi)
    | Config.Cpu_denovo ->
      build_denovo eng net p ~id:(cpu_id i) ~llc_id:cpu_home
        ~atomics_at_llc:config.Config.cpu_atomics_at_llc
        ~region_of:w.Workload.region_of
        ~policy:Spandex_l1.Spandex_policy.Static_own
  in
  let gpu_port eng j =
    match config.Config.gpu with
    | Config.Gpu_coh -> build_gpucoh eng net p ~id:(gpu_id j) ~llc_id:gpu_home
    | Config.Gpu_denovo | Config.Gpu_adaptive | Config.Gpu_adaptive_rw ->
      build_denovo eng net p ~id:(gpu_id j) ~llc_id:gpu_home
        ~atomics_at_llc:false ~region_of:w.Workload.region_of
        ~policy:
          (match config.Config.gpu with
          | Config.Gpu_adaptive -> Spandex_l1.Spandex_policy.adaptive_writes
          | Config.Gpu_adaptive_rw -> Spandex_l1.Spandex_policy.adaptive_full
          | Config.Gpu_coh | Config.Gpu_denovo ->
            Spandex_l1.Spandex_policy.Static_own)
  in
  (* --- cores ----------------------------------------------------------------- *)
  (* One check log per core: the per-core logs partition the global check
     stream, so a sharded run (cores on different domains) records exactly
     what a sequential run records — totals sum and failure lists
     concatenate in core order, independent of event interleave. *)
  let check_logs = ref [] in
  let new_check_log () =
    let log = Check_log.create () in
    check_logs := log :: !check_logs;
    log
  in
  (* Barrier workloads co-locate every core on one shard (see the shard
     plan above), so the barrier's wake events run on that shard. *)
  let barrier_engine = engines.(core_shard 0) in
  let barriers =
    Array.map
      (fun parties -> Barrier.create barrier_engine ~parties)
      w.Workload.barrier_parties
  in
  let cores = ref [] in
  let views = ref [] in
  Array.iteri
    (fun i program ->
      if i >= p.Params.cpu_cores then
        invalid_arg "workload uses more CPU cores than configured";
      let s = core_shard (cpu_id i) in
      let port, comp, view = cpu_port engines.(s) i in
      add ~shard:s comp;
      views := view :: !views;
      let core =
        Core.create engines.(s) ~port ~barriers ~check_log:(new_check_log ())
          ~core_id:(cpu_id i)
          ~clock:p.Params.cpu_clock ~programs:[| program |]
      in
      cores := core :: !cores)
    w.Workload.cpu_programs;
  Array.iteri
    (fun j warps ->
      if j >= p.Params.gpu_cus then
        invalid_arg "workload uses more GPU CUs than configured";
      let s = core_shard (gpu_id j) in
      let port, comp, view = gpu_port engines.(s) j in
      add ~shard:s comp;
      views := view :: !views;
      let core =
        Core.create engines.(s) ~port ~barriers ~check_log:(new_check_log ())
          ~core_id:(gpu_id j)
          ~clock:p.Params.gpu_clock ~programs:warps
      in
      cores := core :: !cores)
    w.Workload.gpu_programs;
  let cores = List.rev !cores in
  let views = List.rev !views in
  let check_logs = List.rev !check_logs in
  List.iter Core.start cores;
  (* Periodic metric sampling runs inline in each shard engine's dispatch
     loop — it never enqueues events, so event counts and scheduling are
     identical with metrics on or off. *)
  if Metrics.on mregs.(0) then begin
    for s = 0 to shards - 1 do
      List.iter
        (fun (cs, c) -> if cs = s then c.c_metrics mregs.(s))
        (List.rev !components);
      Network.register_metrics net ~shard:s mregs.(s);
      Metrics.counter mregs.(s) ~name:"spandex_engine_events_total"
        ~labels:[ ("shard", string_of_int s) ]
        ~help:"engine events dispatched"
        (fun () -> Engine.events_processed engines.(s))
    done;
    (* Each DRAM channel's probes go on its owning bank's shard registry
       (probes must read only shard-local state). *)
    Array.iteri
      (fun b ch ->
        Dram.Channel.register_metrics ch
          ~labels:[ ("bank", string_of_int b) ]
          mregs.(bank_shard b))
      (Dram.channels dram);
    (* Depth gauges wrap every endpoint handler, so arm them only after
       all devices have registered; no-op on sharded networks. *)
    Network.enable_vc_depth_metrics net mregs.(0);
    for s = 0 to shards - 1 do
      let reg = mregs.(s) in
      Engine.set_sampler engines.(s) ~every:(Metrics.sample_every reg)
        (fun time -> Metrics.sample reg ~time)
    done
  end;
  (* Component -> shard table, in device-id order, for profiling output
     and the bench schema (only devices this workload instantiates). *)
  let partition_table =
    let used =
      List.init (Array.length w.Workload.cpu_programs) cpu_id
      @ List.init (Array.length w.Workload.gpu_programs) gpu_id
      @ List.init banks (fun b -> home_id + b)
      @
      if hierarchical then
        List.init banks (fun b -> l2_front_id + b) @ [ l2_back_id ]
      else []
    in
    Array.of_list (List.map (fun id -> (device_names.(id), shard_of id)) used)
  in
  (* --- run ----------------------------------------------------------------- *)
  let finished () =
    List.for_all Core.finished cores
    && List.for_all (fun c -> c.c_quiescent ()) (all_components ())
    && Network.in_flight net = 0
  in
  let pending_desc () =
    let core_desc =
      List.filter_map
        (fun c -> if Core.finished c then None else Some (Core.describe_pending c))
        cores
    in
    let comp_desc =
      List.filter_map
        (fun c -> if c.c_quiescent () then None else Some (c.c_pending ()))
        (all_components ())
    in
    String.concat " | "
      (core_desc @ comp_desc
      @ [ Printf.sprintf "net in-flight=%d" (Network.in_flight net) ])
  in
  (* Canonical architectural-state fingerprint: components in build order,
     then cores, barriers, and in-flight message count.  One fresh
     accumulator per call so transaction-id remapping is first-encounter
     canonical — two executions that reach the same architectural state
     through different schedules digest identically. *)
  let fingerprint () =
    let fp = Spandex_util.Fingerprint.create () in
    List.iter (fun c -> c.c_fingerprint fp) (List.rev (all_components ()));
    List.iter (fun core -> Core.fingerprint core fp) cores;
    Array.iter
      (fun b ->
        Spandex_util.Fingerprint.tag fp "bar";
        Spandex_util.Fingerprint.int fp (Barrier.waiting b);
        Spandex_util.Fingerprint.int fp (Barrier.generation b))
      barriers;
    Spandex_util.Fingerprint.tag fp "net";
    Spandex_util.Fingerprint.int fp (Network.in_flight net);
    Spandex_util.Fingerprint.digest fp
  in
  let sys_run () =
    (* Message pooling is scoped to the run: hand-driven harnesses that
       deliver into inbox lists (and the model checker, which drives
       [Engine.step] itself) keep the allocate-per-message default. *)
    let was_pooling = Msg.pooling_enabled () in
    Msg.set_pooling true;
    Fun.protect ~finally:(fun () -> Msg.set_pooling was_pooling) @@ fun () ->
    if p.Params.watchdog_cycles > 0 then
      Engine.set_watchdog engine ~interval:p.Params.watchdog_cycles
        ~progress:(fun () ->
          List.fold_left
            (fun acc c -> acc + Stats.get (Core.stats c) "ops")
            0 cores)
        ~describe:pending_desc;
    let cycles =
      match pdes with
      | None -> Engine.run engine ~until_done:finished ~pending_desc
      | Some pd -> Pdes.run pd ~until_done:finished ~pending_desc
    in
    let stats = Stats.create () in
    List.iter
      (fun c -> Stats.merge_into ~dst:stats ~prefix:c.c_name c.c_stats)
      (all_components ());
    List.iter
      (fun c ->
        Stats.merge_into ~dst:stats
          ~prefix:(Printf.sprintf "core.%d" (Core.core_id c))
          (Core.stats c))
      cores;
    Array.iter
      (fun s -> Stats.merge_into ~dst:stats ~prefix:"net" s)
      (Network.shard_stats net);
    let out_trace =
      if shards = 1 then trace else Trace.merge (Array.to_list traces)
    in
    let gc1 = Gc.quick_stat () in
    {
      cycles;
      total_flits = Network.total_flits net;
      traffic =
        List.map (fun c -> (c, Network.traffic_flits net c)) Msg.all_categories;
      messages = Network.messages_sent net;
      events =
        Array.fold_left (fun acc e -> acc + Engine.events_processed e) 0 engines;
      checks =
        List.fold_left (fun acc l -> acc + Check_log.checks l) 0 check_logs;
      failures = List.concat_map Check_log.failures check_logs;
      stats;
      minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
      major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
      latency = Trace.latency_summaries out_trace;
      trace = out_trace;
      device_names;
      shards;
      shard_events = Array.map Engine.events_processed engines;
      metrics = Metrics.merge (Array.to_list mregs);
      shard_profile = Option.map Pdes.profile pdes;
      partition = partition_table;
      cap_reason;
      dram_channel_peaks =
        Array.map Dram.Channel.peak_queue_depth (Dram.channels dram);
    }
  in
  {
    sys_engine = engine;
    sys_net = net;
    sys_check_logs = check_logs;
    sys_device_names = device_names;
    sys_finished = finished;
    sys_pending = pending_desc;
    sys_fingerprint = fingerprint;
    sys_views = views;
    sys_llc = llc_view;
    sys_run;
  }

let simulate ?params ~config w =
  let sys = build ?params ~config w in
  sys.sys_run ()

let assert_clean r =
  match r.failures with
  | [] -> ()
  | f :: _ ->
    failwith
      (Format.asprintf "data mismatch (%d total): %a" (List.length r.failures)
         Check_log.pp_failure f)
