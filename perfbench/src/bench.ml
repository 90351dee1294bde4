(* The two kinds of run and the metrics each reports.

   The measured run (no tracing) repeats passes of the workload for the
   requested seconds and reports host throughput, set-up time, allocation
   and memory as medians over its passes.  The traced run repeats a triple
   of passes over the same inputs — untraced wheel, traced wheel, two-shard
   PDES — and reports per-layer numbers: span totals from the traced pass,
   counts from the simulated results, PDES sync from the shard profile,
   and the tracing overhead as traced against untraced wheel time. *)

module Run = Spandex_system.Run
module Report = Spandex_system.Report
module Stats = Spandex_util.Stats
module Params = Spandex_system.Params
module Pdes = Spandex_sim.Pdes

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }
let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int

(* --- measured run ----------------------------------------------------------- *)

type measured = {
  first : Measure.pass;  (** the first timed pass, kept whole. *)
  passes : Measure.summary list;  (** every timed pass, in order. *)
  tally : Measure.tally;
}

(* Repeat [f] at least once, and again while another repetition as long
   as the last one still ends within [seconds] of the start. *)
let repeat_within ~seconds f =
  let start = Measure.clock () in
  let rec go acc =
    let t0 = Measure.clock () in
    let acc = f () :: acc in
    let now = Measure.clock () in
    if now +. (now -. t0) <= start +. seconds then go acc else List.rev acc
  in
  go []

let measured_run kind ~seed ~scale ~seconds =
  let tally = Measure.tally () in
  let first = ref None in
  let passes =
    repeat_within ~seconds
      (fun () ->
        let p = Measure.run_pass kind ~seed ~scale ~backend:Cells.wheel in
        (* Every later pass must equal the first (determinism). *)
        let references = Option.map Measure.outcomes !first in
        Measure.check tally ~kind ~seed ~what:"timed" ?references p;
        if Option.is_none !first then first := Some p;
        Measure.summarize p)
  in
  { first = Option.get !first; passes; tally }

let end_to_end r =
  let med f = Measure.median (List.map f r.passes) in
  let cell_med f = Measure.per_cell_median f r.passes in
  let ops = fi (List.hd r.passes).Measure.s_ops in
  [
    m "sim_ops_per_s" "ops/s" (ops /. cell_med (fun s -> s.Measure.s_cell_run_s));
    m "setup_s" "s"
      (med (fun s -> s.Measure.s_gen_s)
      +. cell_med (fun s -> s.Measure.s_cell_build_s));
    m "alloc_words_per_op" "words/op" (med Measure.words_per_op);
    m "peak_rss_mb" "MB" (Measure.peak_rss_mb ());
  ]

(* --- traced run --------------------------------------------------------------- *)

let cell_traces pass = List.filter_map (fun s -> s.Measure.trace) pass.Measure.sims

(* Per-layer span totals of one traced pass. *)
let layer_totals traces =
  let t = Spans.create () in
  List.iter (fun (ct : Spans.cell_trace) -> Spans.add ~into:t ct.Spans.totals) traces;
  t

(* PDES sync totals of one pass, summed over its cells. *)
type sync = {
  rounds : int;
  events : int;
  exec_s : float;
  barrier_s : float;
  drain_s : float;
  full_stalls : int;
  max_shard_events : int;  (** busiest shard's events, summed over cells. *)
  mean_shard_events : float;
}

let sync_totals pass =
  List.fold_left
    (fun a (r : Run.result) ->
      match r.Run.shard_profile with
      | None -> a
      | Some prof ->
        let prof = Array.to_list prof in
        let sumf f = Measure.sumf f prof
        and sumi f = Measure.sumi f prof
        and maxi f = List.fold_left (fun acc p -> max acc (f p)) 0 prof in
        let events = sumi (fun p -> p.Pdes.sp_events) in
        {
          rounds = a.rounds + maxi (fun p -> p.Pdes.sp_rounds);
          events = a.events + events;
          exec_s = a.exec_s +. sumf (fun p -> p.Pdes.sp_exec_s);
          barrier_s = a.barrier_s +. sumf (fun p -> p.Pdes.sp_barrier_s);
          drain_s = a.drain_s +. sumf (fun p -> p.Pdes.sp_drain_s);
          full_stalls = a.full_stalls + sumi (fun p -> p.Pdes.sp_full_stalls);
          max_shard_events = a.max_shard_events + maxi (fun p -> p.Pdes.sp_events);
          mean_shard_events =
            a.mean_shard_events +. (fi events /. fi (List.length prof));
        })
    {
      rounds = 0;
      events = 0;
      exec_s = 0.;
      barrier_s = 0.;
      drain_s = 0.;
      full_stalls = 0;
      max_shard_events = 0;
      mean_shard_events = 0.;
    }
    (Measure.results pass)

type triple = {
  untraced : Measure.summary;
  traced : Measure.summary;
  pdes : Measure.summary;
  layers : Spans.t;  (** span totals of the traced pass. *)
  residual_s : float;  (** traced run time no span covers. *)
  sync : sync;  (** of the PDES pass. *)
}

type traced = {
  triples : triple list;
  first_untraced : Measure.pass;  (** results the counts come from. *)
  traces : Spans.cell_trace list;  (** the first traced pass, per cell. *)
  traced_tally : Measure.tally;
}

let traced_run kind ~seed ~scale ~seconds =
  let tally = Measure.tally () in
  let tracer = Spans.create () in
  let first = ref None in
  let triples =
    repeat_within ~seconds
      (fun () ->
        let untraced = Measure.run_pass kind ~seed ~scale ~backend:Cells.wheel in
        let references = Option.map (fun (u, _) -> Measure.outcomes u) !first in
        Measure.check tally ~kind ~seed ~what:"untraced" ?references untraced;
        let references = Measure.outcomes untraced in
        let traced =
          Measure.run_pass ~tracer kind ~seed ~scale ~backend:Cells.wheel
        in
        Measure.check tally ~kind ~seed ~what:"traced" ~references traced;
        let pdes = Measure.run_pass kind ~seed ~scale ~backend:Cells.pdes in
        Measure.check tally ~kind ~seed ~what:"pdes" ~references pdes;
        let traces = cell_traces traced in
        if Option.is_none !first then first := Some (untraced, traces);
        {
          untraced = Measure.summarize untraced;
          traced = Measure.summarize traced;
          pdes = Measure.summarize pdes;
          layers = layer_totals traces;
          residual_s =
            fi (List.fold_left (fun acc ct -> acc + Spans.residual_ns ct) 0 traces)
            *. 1e-9;
          sync = sync_totals pdes;
        })
  in
  let first_untraced, traces = Option.get !first in
  { triples; first_untraced; traces; traced_tally = tally }

let med_over triples f = Measure.median (List.map f triples)

(* Wheel run time over PDES run time, both medians over this run's own
   passes on the same inputs. *)
let pdes_speedup triples =
  ratio
    (med_over triples (fun t -> t.untraced.Measure.s_run_s))
    (med_over triples (fun t -> t.pdes.Measure.s_run_s))

let trace_overhead triples =
  let u = med_over triples (fun t -> t.untraced.Measure.s_run_s) in
  ratio (med_over triples (fun t -> t.traced.Measure.s_run_s) -. u) u

(* Sum of a counter over every result, selected by its merged stats key
   split at dots. *)
let stat_sum results select =
  List.fold_left
    (fun acc (r : Run.result) ->
      List.fold_left
        (fun acc (k, v) ->
          if select (String.split_on_char '.' k) then acc + v else acc)
        acc
        (Stats.to_assoc r.Run.stats))
    0 results

(* L1 stats are merged under "<component>.<device id>.<counter>"; DeNovo
   L1s on GPU CUs share the "denovo_l1" component name with CPU ones and
   are told apart by id.  Values are [Spans.layers] indices. *)
let l1_protocols = [ ("mesi", 0); ("denovo", 1); ("gpu", 2); ("gpu_denovo", 3) ]

let l1_layer_of_key ~cpu_cores = function
  | [ "mesi_l1"; _; c ] -> Some (0, c)
  | [ "gpu_l1"; _; c ] -> Some (2, c)
  | [ "denovo_l1"; id; c ] -> (
    match int_of_string_opt id with
    | Some id -> Some ((if id < cpu_cores then 1 else 3), c)
    | None -> None)
  | _ -> None

let per_layer t =
  let triples = t.triples in
  let med f = med_over triples f in
  let u = t.first_untraced in
  let results = Measure.results u in
  let ops = fi (Measure.summarize u).Measure.s_ops in
  let sumr f = fi (List.fold_left (fun acc r -> acc + f r) 0 results) in
  let events = sumr (fun r -> r.Run.events) in
  let messages = sumr (fun r -> r.Run.messages) in
  (* Span counts repeat exactly, so they come from the first traced
     pass; times are medians over traced passes. *)
  let first = List.hd triples in
  let calls i = fi first.layers.Spans.calls.(i) in
  let self_s i = med (fun t -> fi t.layers.Spans.self_ns.(i) *. 1e-9) in
  let ns_per_call i =
    med (fun t -> ratio (fi t.layers.Spans.self_ns.(i)) (fi t.layers.Spans.calls.(i)))
  in
  let words_per_call i = ratio (fi first.layers.Spans.words.(i)) (calls i) in
  let span_metrics prefix i =
    [
      m (prefix ^ ".calls") "count" (calls i);
      m (prefix ^ ".self_s") "s" (self_s i);
      m (prefix ^ ".ns_per_call") "ns/call" (ns_per_call i);
      m (prefix ^ ".words_per_call") "words/call" (words_per_call i);
    ]
  in
  let params = (List.hd u.Measure.sims).Measure.cell.Cells.params in
  let cpu_cores = params.Params.cpu_cores in
  let l1_count layer counter =
    fi
      (stat_sum results (fun k ->
           l1_layer_of_key ~cpu_cores k = Some (layer, counter)))
  in
  let llc counter = fi (stat_sum results (fun k -> k = [ "spandex_llc"; counter ])) in
  let fault f =
    fi (List.fold_left (fun acc r -> acc + f (Report.fault_summary r)) 0 results)
  in
  let resends = fault (fun f -> f.Report.resends)
  and recovered = fault (fun f -> f.Report.recovered) in
  let sync = first.sync in
  let sync_time f = med (fun t -> f t.sync) in
  let send = Spans.net_send in
  [
    m "workloads.gen_s" "s"
      (Measure.median
         (List.concat_map
            (fun t -> [ t.untraced; t.traced; t.pdes ])
            triples
         |> List.map (fun s -> s.Measure.s_gen_s)));
    m "workloads.ops" "count" ops;
    m "system.build_s" "s" (med (fun t -> t.untraced.Measure.s_build_s));
    m "sim.events" "count" events;
    m "sim.events_per_op" "events/op" (ratio events ops);
    m "sim.events_per_s" "events/s"
      (ratio events (med (fun t -> t.untraced.Measure.s_run_s)));
    m "sim.words_per_event" "words/event"
      (ratio (med (fun t -> t.untraced.Measure.s_words)) events);
    m "sim.major_gcs" "count" (med (fun t -> fi t.untraced.Measure.s_major_gcs));
    m "sim.residual_s" "s" (med (fun t -> t.residual_s));
    m "net.messages" "count" messages;
    m "net.msgs_per_op" "msgs/op" (ratio messages ops);
    m "net.flits" "count" (sumr (fun r -> r.Run.total_flits));
    m "net.send_calls" "count" (calls send);
    m "net.send_s" "s" (self_s send);
    m "net.send_ns" "ns/call" (ns_per_call send);
    m "net.send_words" "words/call" (words_per_call send);
  ]
  (* Without a fault plan these are zero by construction, so only a
     workload that arms one reports them. *)
  @ (if Option.is_none params.Params.fault then []
     else
       [
         m "fault.injected" "count" (fault (fun f -> f.Report.injected));
         m "fault.dropped" "count" (fault (fun f -> f.Report.dropped));
         m "retry.resends" "count" resends;
         m "retry.recovered" "count" recovered;
         m "home.replays" "count" (fault (fun f -> f.Report.replayed));
         m "retry.recovered_frac" "frac" (ratio recovered resends);
       ])
  @ List.concat_map
      (fun (p, layer) ->
        let hits = l1_count layer "load_hit" and misses = l1_count layer "load_miss" in
        span_metrics ("l1." ^ p) layer
        @ [ m ("l1." ^ p ^ ".load_hit_frac") "frac" (ratio hits (hits +. misses)) ])
      l1_protocols
  @ List.concat_map
      (fun name -> span_metrics name (Option.get (Spans.layer_index name)))
      [ "llc"; "dir"; "mesi_client"; "gpu_l2" ]
  @ [
      m "llc.hit_frac" "frac" (ratio (llc "hit") (llc "hit" +. llc "miss"));
      m "llc.blocked" "count" (llc "blocked");
      m "pdes.rounds" "count" (fi sync.rounds);
      m "pdes.events_per_round" "events/round" (ratio (fi sync.events) (fi sync.rounds));
      m "pdes.exec_s" "s" (sync_time (fun s -> s.exec_s));
      m "pdes.barrier_wait_s" "s" (sync_time (fun s -> s.barrier_s));
      m "pdes.drain_s" "s" (sync_time (fun s -> s.drain_s));
      m "pdes.barrier_wait_frac" "frac"
        (sync_time (fun s -> ratio s.barrier_s (s.exec_s +. s.barrier_s +. s.drain_s)));
      m "pdes.imbalance" "x" (ratio (fi sync.max_shard_events) sync.mean_shard_events);
      m "pdes.full_stalls" "count" (fi sync.full_stalls);
      m "pdes.speedup" "x" (pdes_speedup triples);
      m "trace.overhead_frac" "frac" (trace_overhead triples);
    ]
