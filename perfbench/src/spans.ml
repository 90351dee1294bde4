(* Outside-in span recorder for the traced run.

   After [Run.build], every registered endpoint handler is wrapped with
   [Network.wrap_handler] and the engine's egress hook is replaced, via
   [Engine.set_egress], by a span around [Network.send].  Each span
   records its layer, start and end (monotonic nanoseconds) and the
   calling domain's [Gc.minor_words] delta; the parent of every span is
   the cell's run span.  Spans are folded into per-(cell, layer) totals as
   they close, so tracing keeps a few integers per layer in memory and
   allocates nothing per span.  The layer of an endpoint is the prefix of
   its device name ("mesi_l1.3" -> "mesi_l1", "llc.b2" -> "llc"). *)

module Run = Spandex_system.Run
module Network = Spandex_net.Network
module Engine = Spandex_sim.Engine

let layers =
  [|
    "mesi_l1";
    "denovo_l1";
    "gpu_l1";
    "gpu_denovo_l1";
    "llc";
    "dir";
    "gpu_l2";
    "mesi_client";
    "net.send";
  |]

let n_layers = Array.length layers
let net_send = n_layers - 1

let layer_index name =
  let rec go i =
    if i >= n_layers then None else if layers.(i) = name then Some i
    else go (i + 1)
  in
  go 0

let layer_of_device name =
  match String.index_opt name '.' with
  | Some i -> layer_index (String.sub name 0 i)
  | None -> layer_index name

type t = { calls : int array; self_ns : int array; words : int array }

let create () =
  {
    calls = Array.make n_layers 0;
    self_ns = Array.make n_layers 0;
    words = Array.make n_layers 0;
  }

let reset t =
  Array.fill t.calls 0 n_layers 0;
  Array.fill t.self_ns 0 n_layers 0;
  Array.fill t.words 0 n_layers 0

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let words_now () = int_of_float (Gc.minor_words ())

let close t layer ~t0 ~w0 =
  t.calls.(layer) <- t.calls.(layer) + 1;
  t.self_ns.(layer) <- t.self_ns.(layer) + now_ns () - t0;
  t.words.(layer) <- t.words.(layer) + words_now () - w0

(* Handlers and egress hand-offs are both dispatched from the engine loop,
   never from inside one another, so every span is a leaf under the run
   span and its self time is its duration. *)
let span t layer f msg =
  let w0 = words_now () in
  let t0 = now_ns () in
  match f msg with
  | () -> close t layer ~t0 ~w0
  | exception e ->
    close t layer ~t0 ~w0;
    raise e

(* Wrap every registered endpoint of [sys] and its egress hook.  Only for
   sequential systems: a sharded system dispatches handlers on several
   domains and exposes only shard 0's engine. *)
let install t (sys : Run.system) =
  Array.iteri
    (fun id name ->
      match layer_of_device name with
      | None -> ()
      | Some layer -> (
        try
          Network.wrap_handler sys.Run.sys_net ~id (fun h msg ->
              span t layer h msg)
        with Failure _ -> (* not instantiated by this workload *) ()))
    sys.Run.sys_device_names;
  let send = Network.send sys.Run.sys_net in
  Engine.set_egress sys.Run.sys_engine (fun msg -> span t net_send send msg)

(* [into] += [t], layer by layer. *)
let add ~into t =
  for i = 0 to n_layers - 1 do
    into.calls.(i) <- into.calls.(i) + t.calls.(i);
    into.self_ns.(i) <- into.self_ns.(i) + t.self_ns.(i);
    into.words.(i) <- into.words.(i) + t.words.(i)
  done

(* One cell's closed trace: its run span and per-layer totals. *)
type cell_trace = {
  cell : int;
  label : string;
  run_ns : int;
  run_words : int;
  totals : t;
}

let snapshot t ~cell ~label ~run_ns ~run_words =
  let totals = create () in
  add ~into:totals t;
  { cell; label; run_ns; run_words; totals }

let sum a = Array.fold_left ( + ) 0 a
let handler_calls ct = sum ct.totals.calls - ct.totals.calls.(net_send)

(* Run time no span covers: dispatch, core issue, the L1 hit path, DRAM
   completions. *)
let residual_ns ct = ct.run_ns - sum ct.totals.self_ns

let to_json ct =
  let t = ct.totals in
  let layer i =
    Printf.sprintf "{\"layer\": %S, \"calls\": %d, \"self_ns\": %d, \"words\": %d}"
      layers.(i) t.calls.(i) t.self_ns.(i) t.words.(i)
  in
  Printf.sprintf
    "{\"cell\": %d, \"label\": %S, \"run_ns\": %d, \"run_words\": %d, \
     \"residual_ns\": %d, \"layers\": [%s]}"
    ct.cell ct.label ct.run_ns ct.run_words (residual_ns ct)
    (String.concat ", "
       (List.filter_map
          (fun i -> if t.calls.(i) > 0 then Some (layer i) else None)
          (List.init n_layers Fun.id)))
