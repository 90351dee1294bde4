(* Benchmark entry point: one workload, one seed, one kind of run.

     main.exe --workload apps --seed 1 --seconds 10 --trace 0

   prints a line per pass, the simulated outputs (total cycles and flits
   with a digest of every cell's result), every failure, then every metric
   by name and unit, and as its last line one JSON object:
   {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
   metrics are the end-to-end ones, with --trace 1 the per-layer ones.
   The full record — host, metrics, per-cell digests and, traced, the
   per-(cell, layer) span totals — is written under perfbench-out/. *)

open Perfbench

let workload = ref ""
let seed = ref 1
let seconds = ref 10.
let trace = ref 0
let nproc = ref "unknown"
let commit = ref "unknown"
let out_dir = "perfbench-out"

let () =
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME  " ^ String.concat " | " (List.map fst Cells.names) );
      ("--seed", Arg.Set_int seed, "N  workload seed");
      ("--seconds", Arg.Set_float seconds, "S  how long to measure");
      ("--trace", Arg.Set_int trace, "0|1  measured run or traced run");
      ("--nproc", Arg.Set_string nproc, "N  host processor count, recorded");
      ("--commit", Arg.Set_string commit, "ID  source revision, recorded");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1"

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let metrics_json ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (x : Bench.metric) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.Bench.name
             (json_num x.Bench.value) x.Bench.unit_)
         ms)
  ^ "}"

let floats a = String.concat ", " (List.map json_num (Array.to_list a))

let pass_json (s : Measure.summary) =
  Printf.sprintf "{\"gen_s\": %s, \"cell_build_s\": [%s], \"cell_run_s\": [%s]}"
    (json_num s.Measure.s_gen_s) (floats s.Measure.s_cell_build_s)
    (floats s.Measure.s_cell_run_s)

let write_record ~kind ~metrics ~tally ~first ~passes ~traces =
  let host =
    Printf.sprintf
      "{\"nproc\": %S, \"recommended_domain_count\": %d, \"ocaml\": %S, \
       \"commit\": %S}"
      !nproc
      (Domain.recommended_domain_count ())
      Sys.ocaml_version !commit
  in
  let cells (p : Measure.pass) =
    String.concat ", "
      (List.map
         (fun (s : Measure.sim) ->
           match s.Measure.outcome with
           | Ok r ->
             Printf.sprintf
               "{\"cell\": %S, \"cycles\": %d, \"flits\": %d, \"events\": %d, \
                \"digest\": %S}"
               (Cells.label s.Measure.cell) r.Spandex_system.Run.cycles
               r.Spandex_system.Run.total_flits r.Spandex_system.Run.events
               (Measure.cell_digest r)
           | Error msg ->
             Printf.sprintf "{\"cell\": %S, \"error\": %S}"
               (Cells.label s.Measure.cell) msg)
         p.Measure.sims)
  in
  let body =
    Printf.sprintf
      "{\"workload\": %S, \"seed\": %d, \"seconds\": %s, \"trace\": %d, \
       \"host\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": %s, \
       \"cells\": [%s], \"passes\": [%s], \"spans\": [%s]}\n"
      (Cells.name kind) !seed (json_num !seconds) !trace host
      tally.Measure.attempted tally.Measure.failed (metrics_json metrics)
      (cells first)
      (String.concat ", " (List.map pass_json passes))
      (String.concat ", " (List.map Spans.to_json traces))
  in
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  let file =
    Filename.concat out_dir
      (Printf.sprintf "%s-seed%d-trace%d.json" (Cells.name kind) !seed !trace)
  in
  Out_channel.with_open_text file (fun oc -> output_string oc body);
  Printf.printf "record: %s\n" file

let print_pass i (s : Measure.summary) what =
  Printf.printf
    "pass %d %-8s setup %.3f s (gen %.3f s) | run %.3f s | %.0f ops/s | %.1f \
     words/op\n%!"
    i what (Measure.setup_s s) s.Measure.s_gen_s s.Measure.s_run_s
    (Measure.ops_per_s s) (Measure.words_per_op s)

let print_outputs (p : Measure.pass) =
  let rs = Measure.results p in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 rs in
  Printf.printf "outputs: sim_cycles=%d sim_flits=%d digest=%s (%d cells)\n"
    (sum (fun r -> r.Spandex_system.Run.cycles))
    (sum (fun r -> r.Spandex_system.Run.total_flits))
    (Measure.pass_digest p) (List.length p.Measure.sims)

let () =
  let kind =
    match Cells.of_name !workload with
    | Some k -> k
    | None ->
      Printf.eprintf "unknown workload %S (try: %s)\n" !workload
        (String.concat ", " (List.map fst Cells.names));
      exit 2
  in
  if !trace <> 0 && !trace <> 1 then (
    prerr_endline "--trace takes 0 or 1";
    exit 2);
  let scale = Cells.default_scale kind in
  Printf.printf "perfbench: workload=%s seed=%d seconds=%g trace=%d scale=%g\n"
    (Cells.name kind) !seed !seconds !trace scale;
  Printf.printf "host: nproc=%s recommended_domain_count=%d ocaml=%s commit=%s\n%!"
    !nproc
    (Domain.recommended_domain_count ())
    Sys.ocaml_version !commit;
  let metrics, tally, first, passes, traces =
    if !trace = 0 then begin
      let r = Bench.measured_run kind ~seed:!seed ~scale ~seconds:!seconds in
      List.iteri (fun i s -> print_pass (i + 1) s "timed") r.Bench.passes;
      (Bench.end_to_end r, r.Bench.tally, r.Bench.first, r.Bench.passes, [])
    end
    else begin
      let t = Bench.traced_run kind ~seed:!seed ~scale ~seconds:!seconds in
      List.iteri
        (fun i (x : Bench.triple) ->
          print_pass (i + 1) x.Bench.untraced "untraced";
          print_pass (i + 1) x.Bench.traced "traced";
          print_pass (i + 1) x.Bench.pdes "pdes")
        t.Bench.triples;
      ( Bench.per_layer t,
        t.Bench.traced_tally,
        t.Bench.first_untraced,
        List.map (fun (x : Bench.triple) -> x.Bench.untraced) t.Bench.triples,
        t.Bench.traces )
    end
  in
  print_outputs first;
  Printf.printf "failed_frac: %d/%d = %g\n" tally.Measure.failed
    tally.Measure.attempted
    (Bench.ratio (float_of_int tally.Measure.failed)
       (float_of_int tally.Measure.attempted));
  List.iter
    (fun (x : Bench.metric) ->
      Printf.printf "metric %-32s %16.6g %s\n" x.Bench.name x.Bench.value
        x.Bench.unit_)
    metrics;
  write_record ~kind ~metrics ~tally ~first ~passes ~traces;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n"
    (tally.Measure.failed = 0) tally.Measure.attempted tally.Measure.failed
    (metrics_json metrics)
