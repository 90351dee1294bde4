(* The benchmark's workloads: the inputs each one generates and the
   (program, configuration) cells it runs them on.

   Inputs come only from the simulator's public generators ([Registry],
   [Stress.generate]).  The benchmark seed drives the stress programs and
   the fault plan of [soak-faults]; the app and microbenchmark generators
   use built-in seeds (graphs 42/43/44, indirection 0xBEEF/0xCAFE) that
   their interface does not expose, so [apps] and [indirection] run the
   same inputs for every seed.

   BENCHMARK.json drives [apps] and [indirection].  [soak-faults] runs the
   same way but is left out of it, because it fails on every seed through
   a protocol defect: SMD loses atomic-counter updates whenever drops are
   on, and at seed 1 SMG and SAA mismatch too (SAA: core 2 expected
   5035218, got 3058218 — the same with the fault plan off).  Reproduce
   with
     python3 perfbench/run.py --workload soak-faults --seed 1 --seconds 1
   *)

module Config = Spandex_system.Config
module Params = Spandex_system.Params
module Workload = Spandex_system.Workload
module Registry = Spandex_workloads.Registry
module Stress = Spandex_workloads.Stress
module Fault = Spandex_net.Fault
module Engine = Spandex_sim.Engine

type kind = Apps | Indirection | Soak_faults

let names =
  [
    ("apps", Apps);
    ("indirection", Indirection);
    ("soak-faults", Soak_faults);
  ]

let of_name s = List.assoc_opt s names
let name k = fst (List.find (fun (_, k') -> k' = k) names)

(* Shards of the parallel engine in the traced run: two, so the load
   stays within a two-core host. *)
let wheel = Engine.Wheel_backend
let pdes = Engine.Pdes_backend { shards = 2 }

(* Input sizes: one pass takes a few host seconds, and indirection keeps
   the miss-bound character it has at full size (1.2 messages per op; 0.8
   at half size, where the matrices start to fit the L1s).  The stress
   programs keep their default 512-word pool whatever the scale. *)
let default_scale = function
  | Apps | Soak_faults -> 1.0
  | Indirection -> 0.75

let soak_spec ~seed =
  { Stress.default_spec with Stress.seed; phases = 6; hot_fraction = 0.6 }

let soak_fault ~seed =
  Fault.uniform ~drop:0.02 ~dup:0.02 ~delay:0.05 ~reorder:0.05 ~seed ()

let params kind ~seed =
  match kind with
  | Apps | Indirection -> Params.bench
  | Soak_faults -> { Params.bench with Params.fault = Some (soak_fault ~seed) }

let geometry = Registry.geometry_of_params Params.bench

(* The programs of one pass: (program name, workload). *)
let inputs kind ~seed ~scale =
  match kind with
  | Apps ->
    List.filter_map
      (fun e ->
        if e.Registry.kind = `App then
          Some (e.Registry.name, e.Registry.build ~scale geometry)
        else None)
      Registry.entries
  | Indirection ->
    let e = Registry.find "indirection" in
    [ (e.Registry.name, e.Registry.build ~scale geometry) ]
  | Soak_faults ->
    [ ("stress", Stress.generate (soak_spec ~seed) geometry) ]

type cell = {
  id : int;  (** position in the pass, shared by every span of the cell. *)
  program : string;
  config : Config.t;
  params : Params.t;
  workload : Workload.t;
}

(* Every program on every swept configuration, in program-major order. *)
let cells ~params inputs =
  List.concat_map
    (fun (program, workload) ->
      List.map
        (fun config -> (program, config, workload))
        Config.extended)
    inputs
  |> List.mapi (fun id (program, config, workload) ->
         { id; program; config; params; workload })

let label c = Printf.sprintf "%s/%s" c.program c.config.Config.name
