(* The benchmark's own checks: span accounting, failure counting, and
   where pdes.speedup takes its base from. *)

open Perfbench
module Run = Spandex_system.Run
module Config = Spandex_system.Config

let small = 0.1

let traced_pass kind =
  Measure.run_pass ~tracer:(Spans.create ()) kind ~seed:1 ~scale:small
    ~backend:Cells.wheel

let passes = lazy [ traced_pass Cells.Apps; traced_pass Cells.Indirection ]

let traced_sims () =
  List.concat_map (fun p -> p.Measure.sims) (Lazy.force passes)
  |> List.map (fun s ->
         match (s.Measure.trace, s.Measure.outcome) with
         | Some ct, Ok r -> (s, ct, r)
         | _ -> Alcotest.failf "%s: no trace or no result" (Cells.label s.Measure.cell))

let self_within_run_span () =
  List.iter
    (fun (s, ct, _) ->
      let self = Spans.sum ct.Spans.totals.Spans.self_ns in
      Array.iter
        (fun v -> if v < 0 then Alcotest.failf "%s: negative self time" ct.Spans.label)
        ct.Spans.totals.Spans.self_ns;
      if self > ct.Spans.run_ns then
        Alcotest.failf "%s: span self time %d ns exceeds run span %d ns"
          (Cells.label s.Measure.cell) self ct.Spans.run_ns)
    (traced_sims ())

let handler_calls_are_deliveries () =
  List.iter
    (fun (s, ct, (r : Run.result)) ->
      Alcotest.(check int)
        (Cells.label s.Measure.cell ^ " handler calls = messages delivered")
        r.Run.messages (Spans.handler_calls ct))
    (traced_sims ())

let soak_saa_seed1_fails () =
  let cells =
    Cells.cells
      ~params:(Cells.params Cells.Soak_faults ~seed:1)
      (Cells.inputs Cells.Soak_faults ~seed:1 ~scale:1.0)
  in
  let count config =
    let cell = List.find (fun c -> c.Cells.config == config) cells in
    let tally = Measure.tally () in
    Measure.check tally ~kind:Cells.Soak_faults ~seed:1 ~what:"test"
      { Measure.gen_s = 0.; sims = [ Measure.simulate cell ] };
    (tally.Measure.attempted, tally.Measure.failed)
  in
  Alcotest.(check (pair int int)) "SAA seed 1 counts as failed" (1, 1)
    (count Config.saa);
  Alcotest.(check (pair int int)) "HMG seed 1 counts as clean" (1, 0)
    (count Config.hmg)

let speedup_from_same_run () =
  let t = Bench.traced_run Cells.Apps ~seed:1 ~scale:small ~seconds:0. in
  Alcotest.(check int) "traced and PDES equal untraced" 0
    t.Bench.traced_tally.Measure.failed;
  let x =
    match t.Bench.triples with
    | [ x ] -> x
    | l -> Alcotest.failf "expected one triple, got %d" (List.length l)
  in
  let reported =
    (List.find (fun m -> m.Bench.name = "pdes.speedup") (Bench.per_layer t))
      .Bench.value
  in
  Alcotest.(check (float 1e-12)) "wheel / pdes run time of this run's passes"
    (x.Bench.untraced.Measure.s_run_s /. x.Bench.pdes.Measure.s_run_s)
    reported

let () =
  Alcotest.run "perfbench"
    [
      ( "spans",
        [
          Alcotest.test_case "self_within_run_span" `Quick self_within_run_span;
          Alcotest.test_case "handler_calls_are_deliveries" `Quick
            handler_calls_are_deliveries;
        ] );
      ( "checks",
        [
          Alcotest.test_case "soak_saa_seed1_fails" `Quick soak_saa_seed1_fails;
          Alcotest.test_case "speedup_from_same_run" `Quick speedup_from_same_run;
        ] );
    ]
