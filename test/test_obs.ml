(* Time-series metrics and the PDES shard profiler: series sampling and
   merge semantics, OpenMetrics/CSV/Chrome exporter well-formedness, the
   profiler's accounting identities, and the load-bearing invariant that
   enabling metrics never changes simulated results — on the full 60-cell
   bench matrix and under the PDES backend. *)

module Metrics = Spandex_obs.Metrics
module Pdes_prof = Spandex_obs.Pdes_prof
module Pdes = Spandex_sim.Pdes
module Trace = Spandex_sim.Trace
module Config = Spandex_system.Config
module Params = Spandex_system.Params
module Run = Spandex_system.Run
module Sweep = Spandex_system.Sweep
module Report = Spandex_system.Report
module Registry = Spandex_workloads.Registry

let test = Helpers.test
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ----- registry: sampling, kinds, merge -------------------------------------- *)

let disabled_is_noop () =
  let reg = Metrics.disabled in
  check_bool "off" false (Metrics.on reg);
  Metrics.counter reg ~name:"x_total" (fun () -> Alcotest.fail "probed");
  Metrics.sample reg ~time:0;
  check_int "no series" 0 (Metrics.num_series reg);
  check_int "no samples" 0 (Metrics.num_samples reg)

let sampling_records_typed_series () =
  let reg = Metrics.create { Metrics.sample_every = 4 } in
  let ops = ref 0 and depth = ref 5 in
  Metrics.counter reg ~name:"t_ops_total"
    ~labels:[ ("shard", "0") ]
    ~help:"ops" (fun () -> !ops);
  Metrics.gauge reg ~name:"t_depth" (fun () -> !depth);
  Metrics.ratio reg ~name:"t_hit_ratio" (fun () -> (!ops, !depth));
  Metrics.sample reg ~time:0;
  ops := 3;
  depth := 6;
  Metrics.sample reg ~time:4;
  check_int "series" 3 (Metrics.num_series reg);
  check_int "samples" 6 (Metrics.num_samples reg);
  match Metrics.dump reg with
  | [ (cn, cl, ck, cs); (gn, _, gk, gs); (rn, _, rk, rs) ] ->
    check_string "counter name" "t_ops_total" cn;
    check_bool "counter labels" true (cl = [ ("shard", "0") ]);
    check_bool "counter kind" true (ck = Metrics.Counter);
    check_bool "counter points" true (cs = [| (0, 0, 1); (4, 3, 1) |]);
    check_string "gauge name" "t_depth" gn;
    check_bool "gauge kind" true (gk = Metrics.Gauge);
    check_bool "gauge points" true (gs = [| (0, 5, 1); (4, 6, 1) |]);
    check_string "ratio name" "t_hit_ratio" rn;
    check_bool "ratio kind" true (rk = Metrics.Ratio);
    check_bool "ratio points" true (rs = [| (0, 0, 5); (4, 3, 6) |])
  | l -> Alcotest.failf "expected 3 series, got %d" (List.length l)

let rejects_bad_cadence () =
  match Metrics.create { Metrics.sample_every = 0 } with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let merge_combines_registries () =
  (* Distinct identities concatenate; the same (name, labels, kind)
     identity across registries merges its points in time order. *)
  let a = Metrics.create Metrics.default_spec in
  let b = Metrics.create Metrics.default_spec in
  let va = ref 1 and vb = ref 10 in
  Metrics.gauge a ~name:"m" ~labels:[ ("shard", "0") ] (fun () -> !va);
  Metrics.gauge a ~name:"shared" (fun () -> !va);
  Metrics.gauge b ~name:"m" ~labels:[ ("shard", "1") ] (fun () -> !vb);
  Metrics.gauge b ~name:"shared" (fun () -> !vb);
  Metrics.sample a ~time:0;
  Metrics.sample b ~time:64;
  va := 2;
  Metrics.sample a ~time:128;
  let m = Metrics.merge [ a; b; Metrics.disabled ] in
  check_int "distinct label sets stay separate" 3 (Metrics.num_series m);
  check_int "all samples survive" 6 (Metrics.num_samples m);
  let shared =
    List.find_opt (fun (n, _, _, _) -> n = "shared") (Metrics.dump m)
  in
  (match shared with
  | Some (_, _, _, pts) ->
    check_bool "same-identity series merged by time" true
      (pts = [| (0, 1, 1); (64, 10, 1); (128, 2, 1) |])
  | None -> Alcotest.fail "shared series missing");
  check_bool "all-disabled merges to disabled" false
    (Metrics.on (Metrics.merge [ Metrics.disabled ]))

(* ----- exporters -------------------------------------------------------------- *)

let exporter_registry () =
  let reg = Metrics.create Metrics.default_spec in
  let ops = ref 0 in
  Metrics.counter reg ~name:"t_ops_total"
    ~labels:[ ("device", "llc.b0"); ("odd label", "a\"b") ]
    ~help:"operations" (fun () -> !ops);
  Metrics.gauge reg ~name:"t depth" (fun () -> 7) (* name needs sanitizing *);
  Metrics.ratio reg ~name:"t_ratio" (fun () -> (1, 2));
  Metrics.sample reg ~time:0;
  ops := 5;
  Metrics.sample reg ~time:64;
  ops := 6;
  Metrics.sample reg ~time:128;
  reg

let name_charset_ok name =
  let ok i c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || c = '_' || c = ':'
    || (i > 0 && c >= '0' && c <= '9')
  in
  name <> ""
  && List.for_all
       (fun i -> ok i name.[i])
       (List.init (String.length name) Fun.id)

let openmetrics_wellformed () =
  let reg = exporter_registry () in
  let buf = Buffer.create 256 in
  Metrics.export_openmetrics reg buf;
  let lines =
    String.split_on_char '\n' (String.trim (Buffer.contents buf))
  in
  check_string "terminator" "# EOF" (List.nth lines (List.length lines - 1));
  let samples =
    List.filter
      (fun l -> l <> "" && not (String.length l >= 1 && l.[0] = '#'))
      lines
  in
  check_int "one line per sample" (Metrics.num_samples reg)
    (List.length samples);
  (* Counter families drop the _total suffix in the TYPE declaration; the
     samples keep it. *)
  check_bool "counter TYPE strips _total" true
    (contains (Buffer.contents buf) "# TYPE t_ops counter");
  check_bool "counter samples keep _total" true
    (contains (Buffer.contents buf) "t_ops_total{");
  check_bool "help line" true
    (contains (Buffer.contents buf) "# HELP t_ops operations");
  check_bool "ratio exports as gauge" true
    (contains (Buffer.contents buf) "# TYPE t_ratio gauge");
  check_bool "ratio value is the quotient" true
    (contains (Buffer.contents buf) "t_ratio 0.5 0");
  (* Every sample line is 'name{labels} value cycle' with a sane metric
     name, a numeric value, and an integer cycle timestamp. *)
  List.iter
    (fun l ->
      match String.split_on_char ' ' l with
      | [ series; value; cycle ] ->
        let name =
          match String.index_opt series '{' with
          | Some i -> String.sub series 0 i
          | None -> series
        in
        check_bool ("metric name charset: " ^ name) true (name_charset_ok name);
        check_bool ("numeric value: " ^ value) true
          (float_of_string_opt value <> None);
        check_bool ("integer cycle: " ^ cycle) true
          (int_of_string_opt cycle <> None)
      | _ -> Alcotest.failf "malformed sample line: %s" l)
    samples;
  (* Label values are escaped, keys sanitized. *)
  check_bool "label escaping" true
    (contains (Buffer.contents buf) "odd_label=\"a\\\"b\"")

let csv_wellformed () =
  let reg = exporter_registry () in
  let buf = Buffer.create 256 in
  Metrics.export_csv reg buf;
  let lines =
    String.split_on_char '\n' (String.trim (Buffer.contents buf))
  in
  check_string "header" "cycle,metric,labels,kind,value,delta"
    (List.hd lines);
  check_int "one row per sample" (Metrics.num_samples reg)
    (List.length lines - 1);
  (* The counter's delta column is the per-interval difference. *)
  let counter_rows =
    List.filter (fun l -> contains l ",t_ops_total,") lines
  in
  let deltas =
    List.map
      (fun l ->
        match List.rev (String.split_on_char ',' l) with
        | d :: _ -> d
        | [] -> assert false)
      counter_rows
  in
  check_bool "counter deltas" true (deltas = [ "0"; "5"; "1" ]);
  (* Gauge rows leave the delta empty. *)
  List.iter
    (fun l ->
      if contains l ",gauge," || contains l ",ratio," then
        check_bool ("empty delta: " ^ l) true
          (String.length l > 0 && l.[String.length l - 1] = ','))
    (List.tl lines)

let chrome_counters_json_valid () =
  let reg = exporter_registry () in
  let events = ref [] in
  Metrics.chrome_counter_events reg ~emit:(fun s -> events := s :: !events);
  check_int "one event per sample" (Metrics.num_samples reg)
    (List.length !events);
  List.iter
    (fun e ->
      check_bool ("counter event parses: " ^ e) true (Helpers.json_valid e);
      check_bool "is a counter phase" true (contains e "\"ph\":\"C\""))
    !events

(* ----- end-to-end: a simulated run with metrics on ---------------------------- *)

let bench_cell () =
  let params = Params.bench in
  let geom = Registry.geometry_of_params params in
  ((Registry.find "bc").Registry.build ~scale:0.25 geom, Config.smd)

let simulated_run_collects_series () =
  let wl, config = bench_cell () in
  let params =
    { Params.bench with Params.metrics = Some Metrics.default_spec }
  in
  let r = Run.simulate ~params ~config wl in
  Run.assert_clean r;
  let m = r.Run.metrics in
  check_bool "registry live" true (Metrics.on m);
  check_bool "collected series" true (Metrics.num_series m > 0);
  check_bool "collected samples" true (Metrics.num_samples m > 0);
  let names = List.map (fun (n, _, _, _) -> n) (Metrics.dump m) in
  List.iter
    (fun expected ->
      check_bool ("series registered: " ^ expected) true
        (List.mem expected names))
    [
      "spandex_llc_bank_lines";
      "spandex_l1_mshr_occupancy";
      "spandex_net_in_flight";
      "spandex_net_flits_total";
      "spandex_net_vc_depth";
      "spandex_dram_queue_depth";
      "spandex_engine_events_total";
    ];
  (* The engine-events counter's last sample cannot exceed the run's
     event total, and must be monotone. *)
  (match
     List.find_opt
       (fun (n, _, _, _) -> n = "spandex_engine_events_total")
       (Metrics.dump m)
   with
  | Some (_, _, _, pts) ->
    check_bool "events counter sampled" true (Array.length pts > 0);
    let mono = ref true and prev = ref min_int in
    Array.iter
      (fun (_, v, _) ->
        if v < !prev then mono := false;
        prev := v)
      pts;
    check_bool "monotone" true !mono;
    let _, last, _ = pts.(Array.length pts - 1) in
    check_bool "bounded by run events" true (last <= r.Run.events)
  | None -> Alcotest.fail "engine events series missing");
  (* The whole Chrome document with metric counter tracks merged in must
     still parse. *)
  let tparams = { params with Params.trace = Some Trace.default_spec } in
  let rt = Run.simulate ~params:tparams ~config wl in
  let buf = Buffer.create (1 lsl 16) in
  Trace.export_chrome
    ~extra:(Metrics.chrome_counter_events rt.Run.metrics)
    rt.Run.trace
    ~device_name:(fun id -> rt.Run.device_names.(id))
    buf;
  check_bool "merged chrome export parses" true
    (Helpers.json_valid (String.trim (Buffer.contents buf)))

(* Counter-track families in a Chrome document: the metric name of every
   "ph":"C" event (labels stripped). *)
let chrome_counter_tracks doc =
  let prefix = "{\"ph\":\"C\",\"name\":\"" in
  let np = String.length prefix in
  String.split_on_char '\n' doc
  |> List.filter_map (fun l ->
         if String.length l > np && String.sub l 0 np = prefix then
           let rest = String.sub l np (String.length l - np) in
           let stop c = c = '{' || c = '"' in
           let rec len i = if stop rest.[i] then i else len (i + 1) in
           Some (String.sub rest 0 (len 0))
         else None)
  |> List.sort_uniq compare

let chrome_timeline_keeps_occupancy_tracks () =
  (* The Perfetto timeline takes its occupancy tracks from the metrics
     registry.  Each family replaces a trace-sink counter the simulator
     used to sample separately: spandex_l1_mshr_occupancy and
     spandex_l1_store_buffer_occupancy the chassis's "l1.<id>.mshr" /
     "l1.<id>.sb", spandex_llc_pending / spandex_llc_blocked the LLC
     banks' "llc.pending" / "llc.blocked", spandex_net_in_flight the
     network's "net.in_flight", and spandex_dir_pending /
     spandex_dir_blocked the MESI directory's "dir.pending" /
     "dir.blocked". *)
  let wl, _ = bench_cell () in
  let params =
    {
      Params.bench with
      Params.trace = Some Trace.default_spec;
      metrics = Some Metrics.default_spec;
    }
  in
  let common =
    [
      "spandex_l1_mshr_occupancy";
      "spandex_l1_store_buffer_occupancy";
      "spandex_llc_pending";
      "spandex_llc_blocked";
      "spandex_net_in_flight";
    ]
  in
  List.iter
    (fun (config, want) ->
      let r = Run.simulate ~params ~config wl in
      Run.assert_clean r;
      let buf = Buffer.create (1 lsl 16) in
      Report.export_chrome r buf;
      let doc = Buffer.contents buf in
      check_bool "timeline parses" true (Helpers.json_valid (String.trim doc));
      let tracks = chrome_counter_tracks doc in
      List.iter
        (fun name ->
          check_bool
            (Printf.sprintf "%s has %s track" config.Config.name name)
            true (List.mem name tracks))
        want)
    [
      (Config.smd, common);
      ( Config.by_name "HMG",
        common @ [ "spandex_dir_pending"; "spandex_dir_blocked" ] );
    ]

(* ----- the identity gate: metrics-on ≡ metrics-off ---------------------------- *)

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

let with_metrics (j : Sweep.job) =
  {
    j with
    Sweep.params =
      { j.Sweep.params with Params.metrics = Some Metrics.default_spec };
  }

let metrics_on_matches_off_all_cells () =
  (* The full 60-cell bench matrix, mirroring the trace_identical gate:
     every cell must report bit-identical results with the metric sampler
     armed.  The sampler runs inline in the dispatch loop and never
     enqueues events, so any divergence is a probe mutating simulation
     state. *)
  let cells = matrix ~params:Params.bench non_stress_names in
  check_int "matrix size" 60 (List.length cells);
  let off = Sweep.simulate_all ~jobs:1 cells in
  let on_ = Sweep.simulate_all ~jobs:1 (List.map with_metrics cells) in
  List.iter2
    (fun ((j : Sweep.job), o) m ->
      (match Report.diff_result o m with
      | None -> ()
      | Some d ->
        Alcotest.failf "%s %s diverged with metrics on: %s" j.Sweep.label
          j.Sweep.config.Config.name d);
      check_bool "metrics actually collected" true
        (Metrics.num_samples m.Run.metrics > 0))
    (List.combine cells off) on_

let metrics_on_matches_off_pdes () =
  (* Same identity under the sharded backend: per-shard registries sample
     from their own domains and merge after the run. *)
  let wl, config = bench_cell () in
  let params =
    {
      Params.bench with
      Params.engine_backend = Spandex_sim.Engine.Pdes_backend { shards = 2 };
    }
  in
  let off = Run.simulate ~params ~config wl in
  let on_ =
    Run.simulate
      ~params:{ params with Params.metrics = Some Metrics.default_spec }
      ~config wl
  in
  (match Report.diff_result off on_ with
  | None -> ()
  | Some d -> Alcotest.failf "pdes run diverged with metrics on: %s" d);
  check_bool "per-shard registries merged" true
    (Metrics.num_samples on_.Run.metrics > 0)

(* ----- PDES shard profiler ---------------------------------------------------- *)

let pdes_profile_sanity () =
  let wl, config = bench_cell () in
  let params =
    {
      Params.bench with
      Params.engine_backend = Spandex_sim.Engine.Pdes_backend { shards = 2 };
    }
  in
  let r = Run.simulate ~params ~config wl in
  Run.assert_clean r;
  match r.Run.shard_profile with
  | None -> Alcotest.fail "pdes run must carry a shard profile"
  | Some prof ->
    check_int "one profile per shard" r.Run.shards (Array.length prof);
    Array.iteri
      (fun i (s : Pdes.shard_profile) ->
        check_int
          (Printf.sprintf "shard %d events match shard_events" i)
          r.Run.shard_events.(i) s.Pdes.sp_events;
        check_bool "rounds positive" true (s.Pdes.sp_rounds > 0);
        check_bool "busy rounds bounded" true
          (s.Pdes.sp_busy_rounds >= 0
          && s.Pdes.sp_busy_rounds <= s.Pdes.sp_rounds);
        check_bool "wall split non-negative" true
          (s.Pdes.sp_exec_s >= 0.0
          && s.Pdes.sp_barrier_s >= 0.0
          && s.Pdes.sp_drain_s >= 0.0);
        (* The curve is capped at 512 buckets plus one partial tail. *)
        check_bool "load curve bounded" true
          (Array.length s.Pdes.sp_round_events <= 513);
        check_int
          (Printf.sprintf "shard %d load curve sums to its events" i)
          s.Pdes.sp_events
          (Array.fold_left ( + ) 0 s.Pdes.sp_round_events))
      prof;
    let f = Pdes_prof.barrier_wait_fraction prof in
    check_bool "barrier-wait fraction in [0,1]" true (f >= 0.0 && f <= 1.0);
    let rep = Pdes_prof.analyze prof in
    check_int "report total events" r.Run.events rep.Pdes_prof.r_total_events;
    check_bool "dominant shard valid" true
      (rep.Pdes_prof.r_dominant_shard >= 0
      && rep.Pdes_prof.r_dominant_shard < r.Run.shards);
    check_bool "max/mean >= 1" true (rep.Pdes_prof.r_load_max_mean >= 1.0);
    let s =
      Format.asprintf "%a" (Pdes_prof.pp ~partition:r.Run.partition) rep
    in
    check_bool "report names the dominant shard" true
      (contains s "dominant shard");
    check_bool "report prints the wall split header" true
      (contains s "barrier(s)")

let pdes_prof_add_pads_and_sums () =
  let wl, config = bench_cell () in
  let params =
    {
      Params.bench with
      Params.engine_backend = Spandex_sim.Engine.Pdes_backend { shards = 2 };
    }
  in
  let r = Run.simulate ~params ~config wl in
  let prof = Option.get r.Run.shard_profile in
  let double = Pdes_prof.add prof prof in
  check_int "same shard count" (Array.length prof) (Array.length double);
  Array.iteri
    (fun i (s : Pdes.shard_profile) ->
      check_int "events doubled" (2 * prof.(i).Pdes.sp_events) s.Pdes.sp_events;
      check_bool "aggregates drop the round curve" true
        (s.Pdes.sp_round_events = [||]))
    double;
  (* Different shard counts pad with zero-profiles. *)
  let padded = Pdes_prof.add prof (Array.sub prof 0 1) in
  check_int "padded to the wider array" (Array.length prof)
    (Array.length padded);
  check_int "padded tail keeps its events" prof.(1).Pdes.sp_events
    padded.(1).Pdes.sp_events;
  check_int "overlapping head sums" (2 * prof.(0).Pdes.sp_events)
    padded.(0).Pdes.sp_events

let tests =
  [
    test "disabled_is_noop" disabled_is_noop;
    test "sampling_records_typed_series" sampling_records_typed_series;
    test "rejects_bad_cadence" rejects_bad_cadence;
    test "merge_combines_registries" merge_combines_registries;
    test "openmetrics_wellformed" openmetrics_wellformed;
    test "csv_wellformed" csv_wellformed;
    test "chrome_counters_json_valid" chrome_counters_json_valid;
    test "simulated_run_collects_series" simulated_run_collects_series;
    test "chrome_timeline_keeps_occupancy_tracks"
      chrome_timeline_keeps_occupancy_tracks;
    test "metrics_on_matches_off_pdes" metrics_on_matches_off_pdes;
    test "pdes_profile_sanity" pdes_profile_sanity;
    test "pdes_prof_add_pads_and_sums" pdes_prof_add_pads_and_sums;
    test "metrics_on_matches_off_all_cells" metrics_on_matches_off_all_cells;
  ]
