(* PDES backend equivalence: [--engine pdes] must be bit-identical to the
   sequential wheel backend — cycles, flits, traffic breakdown, messages,
   events, checks and full merged stats — on every cell of the bench
   matrix, including fault-armed cells at shards > 1 (per-link fault RNG
   streams are shard-count-invariant) and traced cells (span/instant/send
   streams merge back to the sequential stream; counter samples are
   per-shard and excluded).  This is the acceptance gate for the
   conservative parallel backend and its banked home-complex partition. *)

module Config = Spandex_system.Config
module Params = Spandex_system.Params
module Run = Spandex_system.Run
module Sweep = Spandex_system.Sweep
module Report = Spandex_system.Report
module Registry = Spandex_workloads.Registry
module Engine = Spandex_sim.Engine
module Trace = Spandex_sim.Trace
module Stats = Spandex_util.Stats

let test = Helpers.test

let pdes_params ?(shards = 2) (p : Params.t) =
  { p with Params.engine_backend = Engine.Pdes_backend { shards } }

let matrix ~params names =
  let geom = Registry.geometry_of_params params in
  List.concat_map
    (fun n ->
      let wl = (Registry.find n).Registry.build ~scale:0.25 geom in
      List.map
        (fun config -> { Sweep.label = n; params; config; workload = wl })
        Config.all)
    names

let non_stress_names =
  List.filter_map
    (fun e ->
      if e.Registry.kind = `Stress then None else Some e.Registry.name)
    Registry.entries

let check_identical cells seq par =
  List.iteri
    (fun i ((j : Sweep.job), (s, p)) ->
      match Report.diff_result s p with
      | None -> ()
      | Some d ->
        Alcotest.failf "job %d (%s %s) diverged: %s" i j.Sweep.label
          j.Sweep.config.Config.name d)
    (List.combine cells (List.combine seq par))

(* ----- smoke: one cell, two shards ----------------------------------------- *)

let smoke_two_shards () =
  let params = Params.bench in
  let geom = Registry.geometry_of_params params in
  let wl = (Registry.find "rsct").Registry.build ~scale:0.25 geom in
  let config = List.hd Config.all in
  let seq = Run.simulate ~params ~config wl in
  let par = Run.simulate ~params:(pdes_params params) ~config wl in
  Run.assert_clean par;
  Alcotest.(check bool) "used >1 shard" true (par.Run.shards > 1);
  Alcotest.(check int)
    "shard events sum"
    par.Run.events
    (Array.fold_left ( + ) 0 par.Run.shard_events);
  (* The banked partition must actually distribute the home complex: with
     banks > shards, no single shard may own every home bank. *)
  let home_bank name =
    String.length name > 5
    && (String.sub name 0 5 = "llc.b" || String.sub name 0 5 = "dir.b")
  in
  let bank_shards =
    Array.to_list par.Run.partition
    |> List.filter_map (fun (name, s) -> if home_bank name then Some s else None)
  in
  Alcotest.(check bool) "home banks span shards" true
    (List.length (List.sort_uniq compare bank_shards) > 1);
  match Report.diff_result seq par with
  | None -> ()
  | Some d -> Alcotest.failf "pdes diverged from wheel: %s" d

(* ----- the full matrix ------------------------------------------------------ *)

let pdes_matches_wheel_all_cells () =
  let cells = matrix ~params:Params.bench non_stress_names in
  Alcotest.(check int) "matrix size" 60 (List.length cells);
  let wheel = Sweep.simulate_all ~jobs:1 cells in
  let pdes =
    Sweep.simulate_all ~jobs:1
      (List.map
         (fun j -> { j with Sweep.params = pdes_params j.Sweep.params })
         cells)
  in
  List.iter Run.assert_clean pdes;
  check_identical cells wheel pdes

let pdes_matches_wheel_many_shards () =
  (* Request more shards than the partition can use; the effective count
     is capped (core + home-bank + GPU-complex placement units) and the
     banked partition must still reproduce the wheel bit-for-bit. *)
  let cells = matrix ~params:Params.bench [ "rsct"; "bc" ] in
  let wheel = Sweep.simulate_all ~jobs:1 cells in
  List.iter
    (fun shards ->
      let pdes =
        Sweep.simulate_all ~jobs:1
          (List.map
             (fun j ->
               { j with Sweep.params = pdes_params ~shards j.Sweep.params })
             cells)
      in
      check_identical cells wheel pdes)
    [ 3; 64 ]

(* ----- fault-armed multi-shard runs ----------------------------------------- *)

let fault_plan ~seed =
  Spandex_net.Fault.uniform ~drop:0.02 ~dup:0.01 ~delay:0.03 ~reorder:0.03
    ~seed ()

let pdes_matches_wheel_under_faults () =
  (* Fault plans no longer cap the shard count: per-(src, dst) link RNG
     streams derive from the plan seed alone, so the same drops, dups and
     delays happen at any shard count and the wheel is reproduced
     bit-for-bit on multi-shard partitions. *)
  let params = { Params.bench with Params.fault = Some (fault_plan ~seed:7) } in
  let cells = matrix ~params [ "tqh" ] in
  let wheel = Sweep.simulate_all ~jobs:1 cells in
  List.iter
    (fun shards ->
      let pdes =
        Sweep.simulate_all ~jobs:1
          (List.map
             (fun j ->
               { j with Sweep.params = pdes_params ~shards j.Sweep.params })
             cells)
      in
      List.iter
        (fun (r : Run.result) ->
          Alcotest.(check bool) "fault run uses >1 shard" true
            (r.Run.shards > 1))
        pdes;
      check_identical cells wheel pdes)
    [ 2; 4 ]

let fault_keys =
  [ "fault.injected"; "fault.drop"; "fault.dup"; "fault.delay"; "fault.reorder" ]

let fault_rng_per_link_deterministic () =
  (* Same plan => same per-link decision streams, regardless of how many
     shards the sends are spread over: the summed fault counters (and the
     whole result) are invariant across shards in {1, 2, 4}. *)
  let params =
    { Params.bench with Params.fault = Some (fault_plan ~seed:11) }
  in
  let geom = Registry.geometry_of_params params in
  let wl = (Registry.find "tqh").Registry.build ~scale:0.25 geom in
  let config = List.hd Config.all in
  let counts (r : Run.result) =
    List.map (fun k -> (k, Stats.get r.Run.stats ("net." ^ k))) fault_keys
  in
  let base = Run.simulate ~params ~config wl in
  Alcotest.(check bool) "plan injects faults" true
    (Stats.get base.Run.stats "net.fault.injected" > 0);
  List.iter
    (fun shards ->
      let r = Run.simulate ~params:(pdes_params ~shards params) ~config wl in
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "fault decisions at %d shard(s)" shards)
        (counts base) (counts r);
      match Report.diff_result base r with
      | None -> ()
      | Some d ->
        Alcotest.failf "faulted pdes (%d shards) diverged: %s" shards d)
    [ 1; 2; 4 ]

(* ----- traced runs ---------------------------------------------------------- *)

(* The whole decoded trace stream.  Spans and sends carry txn ids, which
   are per-device allocations — identical across backends. *)
let trace_events tr =
  let evs = ref [] in
  Trace.iter tr ~f:(fun ev -> evs := ev :: !evs);
  List.rev !evs

(* The pre-partition placement (home complex pinned to shard 0, cores to
   shard 1): with it, the k-way trace merge's (time, shard) order happens
   to reproduce the wheel's same-cycle event order exactly. *)
let legacy_partition =
  {
    Params.home_banks = Params.Pin 0;
    gpu_complex = Params.Pin 0;
    cores = Params.Pin 1;
  }

let pdes_trace_matches_wheel () =
  let params =
    { Params.bench with Params.trace = Some Trace.default_spec }
  in
  let geom = Registry.geometry_of_params params in
  let wl = (Registry.find "rsct").Registry.build ~scale:0.25 geom in
  let config = List.hd Config.all in
  let seq = Run.simulate ~params ~config wl in
  (* Pinned legacy partition: the merged stream must equal the wheel's
     event-for-event. *)
  let pinned =
    Run.simulate
      ~params:
        (pdes_params { params with Params.pdes_partition = legacy_partition })
      ~config wl
  in
  Alcotest.(check bool) "used >1 shard" true (pinned.Run.shards > 1);
  (match Report.diff_result seq pinned with
  | None -> ()
  | Some d -> Alcotest.failf "traced pdes diverged from wheel: %s" d);
  let es = trace_events seq.Run.trace in
  let ep = trace_events pinned.Run.trace in
  Alcotest.(check int) "trace event count" (List.length es) (List.length ep);
  List.iteri
    (fun i (a, b) ->
      if a <> b then Alcotest.failf "trace event %d differs" i)
    (List.combine es ep);
  (* Spread (default) partition: same-cycle events from different shards
     merge by shard index, which need not match the wheel's same-cycle
     interleave — but the multiset of timestamped events must be
     identical. *)
  let spread = Run.simulate ~params:(pdes_params params) ~config wl in
  (match Report.diff_result seq spread with
  | None -> ()
  | Some d -> Alcotest.failf "traced spread pdes diverged from wheel: %s" d);
  let sorted evs = List.sort compare evs in
  let es' = sorted es and ep' = sorted (trace_events spread.Run.trace) in
  Alcotest.(check int)
    "spread trace event count" (List.length es') (List.length ep');
  List.iteri
    (fun i (a, b) ->
      if a <> b then Alcotest.failf "spread trace event %d differs (sorted)" i)
    (List.combine es' ep');
  let project =
    List.map (fun (n, s) ->
        ( n,
          ( s.Spandex_util.Hist.count,
            (s.Spandex_util.Hist.p50, s.Spandex_util.Hist.p99),
            s.Spandex_util.Hist.max ) ))
  in
  Alcotest.(check (list (pair string (triple int (pair int int) int))))
    "latency summaries" (project seq.Run.latency) (project pinned.Run.latency)

(* ----- per-shard allocation accounting --------------------------------- *)

let shard_minor_words_exact () =
  (* Every shard that dispatched events allocated on its own domain, so
     its profile must report a nonzero minor-word count — a count taken
     from stale GC statistics reads 0 on a domain that has not yet run a
     minor collection. *)
  let params = Params.bench in
  let geom = Registry.geometry_of_params params in
  let wl = (Registry.find "trns").Registry.build ~scale:0.25 geom in
  let r =
    Run.simulate ~params:(pdes_params params) ~config:(Config.by_name "SMD") wl
  in
  Run.assert_clean r;
  match r.Run.shard_profile with
  | None -> Alcotest.fail "pdes run has no shard profile"
  | Some profs ->
    Alcotest.(check int) "two shards" 2 (Array.length profs);
    Array.iteri
      (fun s (p : Spandex_sim.Pdes.shard_profile) ->
        if p.sp_events > 0 && p.sp_minor_words <= 0. then
          Alcotest.failf "shard %d ran %d events but reports %.0f minor words"
            s p.sp_events p.sp_minor_words)
      profs

let tests =
  [
    test "pdes: smoke, two shards == wheel" smoke_two_shards;
    test "pdes: all 60 cells == wheel" pdes_matches_wheel_all_cells;
    test "pdes: over-requested shards capped, == wheel"
      pdes_matches_wheel_many_shards;
    test "pdes: fault-armed multi-shard cells == wheel"
      pdes_matches_wheel_under_faults;
    test "pdes: fault RNG is per-link deterministic across shard counts"
      fault_rng_per_link_deterministic;
    test "pdes: traced run == wheel (spans/instants/sends)"
      pdes_trace_matches_wheel;
    test "pdes: per-shard minor words are exact" shard_minor_words_exact;
  ]
