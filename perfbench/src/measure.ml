(* Passes over a workload's cells, with every output checked.

   A pass generates the workload's inputs, then builds and runs each cell
   in turn.  Generation and [Run.build] are set-up; [sys_run] is run time.
   Each simulation starts on an empty minor heap and its allocation is the
   [Gc.quick_stat] minor-word delta with the minor heap flushed on both
   sides: that reads the calling domain exactly, and the words of PDES
   shard domains, which have ended by the time [sys_run] returns, are
   folded in by the runtime.  Neither flush falls inside the timed
   window. *)

module Run = Spandex_system.Run
module Report = Spandex_system.Report
module Workload = Spandex_system.Workload
module Params = Spandex_system.Params
module Config = Spandex_system.Config
module Engine = Spandex_sim.Engine

let clock () = float_of_int (Spans.now_ns ()) *. 1e-9

type sim = {
  cell : Cells.cell;
  build_s : float;
  run_s : float;
  words : float;  (** minor words allocated by [sys_run], all domains. *)
  major_gcs : int;
  outcome : (Run.result, string) result;
  trace : Spans.cell_trace option;
}

type pass = { gen_s : float; sims : sim list }

let describe_exn = function
  | Engine.Deadlock m -> "deadlock: " ^ m
  | Engine.Stuck s -> Format.asprintf "stuck: %a" Engine.pp_stuck s
  | Engine.Livelock l -> Format.asprintf "livelock: %a" Engine.pp_livelock l
  | Failure m -> "failure: " ^ m
  | e -> Printexc.to_string e

let simulate ?tracer (c : Cells.cell) =
  let t0 = clock () in
  match Run.build ~params:c.Cells.params ~config:c.Cells.config c.Cells.workload with
  | exception e ->
    {
      cell = c;
      build_s = clock () -. t0;
      run_s = 0.;
      words = 0.;
      major_gcs = 0;
      outcome = Error ("build: " ^ describe_exn e);
      trace = None;
    }
  | sys ->
    let build_s = clock () -. t0 in
    Option.iter
      (fun tr ->
        Spans.reset tr;
        Spans.install tr sys)
      tracer;
    Gc.minor ();
    let g0 = Gc.quick_stat () in
    let w0 = Spans.words_now () in
    let ns0 = Spans.now_ns () in
    let outcome =
      match sys.Run.sys_run () with
      | r -> Ok r
      | exception e -> Error (describe_exn e)
    in
    let ns1 = Spans.now_ns () in
    let w1 = Spans.words_now () in
    Gc.minor ();
    let g1 = Gc.quick_stat () in
    {
      cell = c;
      build_s;
      run_s = float_of_int (ns1 - ns0) *. 1e-9;
      words = g1.Gc.minor_words -. g0.Gc.minor_words;
      major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
      outcome;
      trace =
        Option.map
          (fun tr ->
            Spans.snapshot tr ~cell:c.Cells.id ~label:(Cells.label c)
              ~run_ns:(ns1 - ns0) ~run_words:(w1 - w0))
          tracer;
    }

let run_pass ?tracer kind ~seed ~scale ~backend =
  let t0 = clock () in
  let inputs = Cells.inputs kind ~seed ~scale in
  let gen_s = clock () -. t0 in
  let params =
    { (Cells.params kind ~seed) with Params.engine_backend = backend }
  in
  { gen_s; sims = List.map (simulate ?tracer) (Cells.cells ~params inputs) }

(* --- checking ------------------------------------------------------------- *)

(* [None] when the simulation is clean and, given a reference result,
   identical to it; otherwise the first problem found. *)
let problem ?reference sim =
  match sim.outcome with
  | Error m -> Some m
  | Ok r -> (
    match Run.assert_clean r with
    | exception Failure m -> Some m
    | () -> (
      match reference with
      | Some (Ok ref) when not (Report.same_result ref r) ->
        Some
          ("diverged from reference: "
          ^ Option.value ~default:"?" (Report.diff_result ref r))
      | _ -> None))

type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

(* Check every simulation of [pass] (against [references], one per cell,
   when given), count it, and report each failure with its workload,
   config, seed and first mismatch. *)
let check tally ~kind ~seed ~what ?references pass =
  List.iteri
    (fun i sim ->
      tally.attempted <- tally.attempted + 1;
      let reference = Option.map (fun refs -> refs.(i)) references in
      match problem ?reference sim with
      | None -> ()
      | Some m ->
        tally.failed <- tally.failed + 1;
        Printf.printf "FAIL workload=%s config=%s program=%s seed=%d pass=%s: %s\n%!"
          (Cells.name kind) sim.cell.Cells.config.Config.name
          sim.cell.Cells.program seed what m)
    pass.sims

let outcomes pass = Array.of_list (List.map (fun s -> s.outcome) pass.sims)

(* --- pass totals ------------------------------------------------------------ *)

(* What a pass leaves once checked: later passes keep only this, so memory
   held by the benchmark does not grow with the number of passes. *)
type summary = {
  s_gen_s : float;
  s_build_s : float;
  s_run_s : float;
  s_ops : int;
  s_words : float;
  s_major_gcs : int;
  s_cell_build_s : float array;  (** per cell, in pass order. *)
  s_cell_run_s : float array;
}

let sumf f l = List.fold_left (fun acc x -> acc +. f x) 0. l
let sumi f l = List.fold_left (fun acc x -> acc + f x) 0 l

let summarize pass =
  let sims = pass.sims in
  {
    s_gen_s = pass.gen_s;
    s_build_s = sumf (fun s -> s.build_s) sims;
    s_run_s = sumf (fun s -> s.run_s) sims;
    s_ops = sumi (fun s -> Workload.total_ops s.cell.Cells.workload) sims;
    s_words = sumf (fun s -> s.words) sims;
    s_major_gcs = sumi (fun s -> s.major_gcs) sims;
    s_cell_build_s = Array.of_list (List.map (fun s -> s.build_s) sims);
    s_cell_run_s = Array.of_list (List.map (fun s -> s.run_s) sims);
  }

let setup_s s = s.s_gen_s +. s.s_build_s
let ops_per_s s = float_of_int s.s_ops /. s.s_run_s
let words_per_op s = s.s_words /. float_of_int s.s_ops

let median l =
  match List.sort compare l with
  | [] -> 0.
  | s ->
    let n = List.length s in
    if n mod 2 = 1 then List.nth s (n / 2)
    else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.

(* The median over passes, taken per cell and summed over the cells: a
   burst of host interference slows the cells it overlaps in one pass, and
   the per-cell median drops it where a median of pass totals would keep
   part of it. *)
let per_cell_median f summaries =
  match summaries with
  | [] -> 0.
  | s :: _ ->
    let cells = Array.length (f s) in
    let total = ref 0. in
    for i = 0 to cells - 1 do
      total := !total +. median (List.map (fun s -> (f s).(i)) summaries)
    done;
    !total

let results pass =
  List.filter_map
    (fun s -> match s.outcome with Ok r -> Some r | Error _ -> None)
    pass.sims

(* Each cell's (cycles, flits, events, stats) digest, and the workload's
   digest over them, so a speed-only change can show its simulation is
   unchanged. *)
let cell_digest (r : Run.result) =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "%d/%d/%d/%s" r.Run.cycles r.Run.total_flits r.Run.events
          (String.concat ","
             (List.map
                (fun (k, v) -> Printf.sprintf "%s=%d" k v)
                (Spandex_util.Stats.to_assoc r.Run.stats)))))

let pass_digest pass =
  Digest.to_hex
    (Digest.string
       (String.concat ";"
          (List.map
             (fun s ->
               match s.outcome with
               | Ok r -> cell_digest r
               | Error m -> "error:" ^ m)
             pass.sims)))

let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> 0.
  | status ->
    List.fold_left
      (fun acc line ->
        match Scanf.sscanf line "VmHWM: %d kB" Fun.id with
        | kb -> float_of_int kb /. 1024.
        | exception _ -> acc)
      0.
      (String.split_on_char '\n' status)
