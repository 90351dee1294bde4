(* Unit and property tests for the timing-wheel scheduler, mirroring the
   Pqueue suite: sort order, FIFO tie-break among equal cycles, the
   overflow-heap handoff for far-future times, clear/reuse, and agreement
   with the reference Pqueue on drained and on interleaved push/peek/pop
   sequences. *)

module Wheel = Spandex_util.Wheel
module Pqueue = Spandex_util.Pqueue
module Rng = Spandex_util.Rng
module Engine = Spandex_sim.Engine

let test = Helpers.test
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Tiny horizon so bounded random times routinely land in the overflow
   heap; correctness must not depend on which tier held an event. *)
let small_wheel () = Wheel.create ~horizon:16 ~dummy:(-1) ()

let wheel_ordering () =
  let q = Wheel.create ~dummy:"" () in
  Wheel.push q ~time:5 "c";
  Wheel.push q ~time:1 "a";
  Wheel.push q ~time:3 "b";
  check_int "peek" 1 (Wheel.peek_time q);
  let pop () = Option.map snd (Wheel.pop q) in
  Alcotest.(check (option string)) "first" (Some "a") (pop ());
  Alcotest.(check (option string)) "second" (Some "b") (pop ());
  Alcotest.(check (option string)) "third" (Some "c") (pop ());
  Alcotest.(check (option string)) "empty" None (pop ());
  check_int "peek empty" max_int (Wheel.peek_time q)

let wheel_fifo_ties () =
  let q = Wheel.create ~dummy:0 () in
  List.iter (fun v -> Wheel.push q ~time:7 v) [ 1; 2; 3; 4 ];
  let order = List.init 4 (fun _ -> snd (Option.get (Wheel.pop q))) in
  Alcotest.(check (list int)) "fifo among equal times" [ 1; 2; 3; 4 ] order

let wheel_empty_raises () =
  let q = Wheel.create ~dummy:0 () in
  Alcotest.check_raises "min_time empty"
    (Invalid_argument "Wheel.min_time: empty") (fun () ->
      ignore (Wheel.min_time q));
  Alcotest.check_raises "pop_min empty"
    (Invalid_argument "Wheel.pop_min: empty") (fun () ->
      ignore (Wheel.pop_min q))

let wheel_rejects_past () =
  let q = Wheel.create ~dummy:0 () in
  Wheel.push q ~time:10 1;
  ignore (Wheel.pop q);
  (* Cursor now sits at 10; scheduling into the past must be refused just
     like Engine.at refuses it. *)
  check_bool "past push raises" true
    (match Wheel.push q ~time:3 2 with
    | () -> false
    | exception Invalid_argument _ -> true)

let wheel_overflow_handoff () =
  (* Far-future events beyond the horizon go through the overflow heap and
     come back in order, interleaved with near events pushed later. *)
  let q = small_wheel () in
  Wheel.push q ~time:1000 1000;
  Wheel.push q ~time:40 40;
  check_int "both counted" 2 (Wheel.length q);
  check_int "overflow used" 2 (Wheel.overflow_pushes q);
  Wheel.push q ~time:3 3;
  let order =
    List.init 3 (fun _ ->
        let t = Wheel.min_time q in
        let v = Wheel.pop_min q in
        check_int "time matches value" t v;
        v)
  in
  Alcotest.(check (list int)) "sorted across tiers" [ 3; 40; 1000 ] order;
  check_bool "drained" true (Wheel.is_empty q)

let wheel_overflow_fifo_with_slots () =
  (* An overflow entry for cycle T always predates any direct slot push
     for T, so at T the overflow side must drain first. *)
  let q = small_wheel () in
  Wheel.push q ~time:100 1;  (* overflow: 100 >= 0 + 16 *)
  Wheel.push q ~time:90 0;   (* overflow *)
  ignore (Wheel.pop q);      (* pops 0 at 90; cursor at 90 *)
  Wheel.push q ~time:100 2;  (* slot: 100 - 90 < 16, pushed after 1 *)
  Alcotest.(check (list int))
    "overflow before slot at equal time" [ 1; 2 ]
    (List.init 2 (fun _ -> snd (Option.get (Wheel.pop q))))

let drain q =
  let rec go acc =
    if Wheel.is_empty q then List.rev acc
    else
      let t = Wheel.min_time q in
      let v = Wheel.pop_min q in
      go ((t, v) :: acc)
  in
  go []

let drain_pqueue h =
  let rec go acc =
    match Pqueue.pop h with None -> List.rev acc | Some tv -> go (tv :: acc)
  in
  go []

let wheel_props =
  let open QCheck2 in
  [
    Test.make ~name:"wheel_sorts_with_overflow"
      Gen.(list_size (int_bound 300) (int_bound 1000))
      (fun times ->
        let q = small_wheel () in
        List.iter (fun t -> Wheel.push q ~time:t t) times;
        List.map fst (drain q) = List.sort compare times);
    Test.make ~name:"wheel_fifo_tie_break"
      (* Few distinct times -> many ties; drained order must be the stable
         sort of the submissions, i.e. FIFO among equal times. *)
      Gen.(list_size (int_bound 300) (int_bound 4))
      (fun times ->
        let q = Wheel.create ~dummy:(-1) () in
        List.iteri (fun i t -> Wheel.push q ~time:t i) times;
        let expected =
          List.stable_sort
            (fun (a, _) (b, _) -> compare a b)
            (List.mapi (fun i t -> (t, i)) times)
        in
        drain q = expected);
    Test.make ~name:"wheel_matches_pqueue"
      (* The wheel and the reference heap must agree on every
         (time, value) sequence, whatever mix of tiers the times hit. *)
      Gen.(list_size (int_bound 300) (int_bound 2000))
      (fun times ->
        let q = small_wheel () in
        let h = Pqueue.create () in
        List.iteri
          (fun i t ->
            Wheel.push q ~time:t i;
            Pqueue.push h ~time:t i)
          times;
        drain q = drain_pqueue h);
    Test.make ~name:"wheel_matches_pqueue_interleaved"
      (* Pushes, peeks and pops in random order, replayed on the wheel and
         on the reference heap: every pop and peek must agree.  Pushes are
         never in the past (the clock is the last popped time) and their
         offsets straddle the 16-cycle horizon.  Each peek is followed by
         a push at the present cycle, which must still be accepted. *)
      Gen.(list_size (int_bound 400) (pair (int_bound 2) (int_bound 40)))
      (fun ops ->
        let q = small_wheel () in
        let h = Pqueue.create () in
        let now = ref 0 and next = ref 0 in
        let push time =
          Wheel.push q ~time !next;
          Pqueue.push h ~time !next;
          incr next
        in
        List.for_all
          (fun (op, off) ->
            match op with
            | 0 ->
              push (!now + off);
              true
            | 1 ->
              let expect =
                if Pqueue.is_empty h then max_int else Pqueue.min_time h
              in
              let ok = Wheel.peek_time q = expect in
              push !now;
              ok
            | _ ->
              Pqueue.is_empty h = Wheel.is_empty q
              && (Pqueue.is_empty h
                 ||
                 let t = Wheel.min_time q in
                 let v = Wheel.pop_min q in
                 now := t;
                 t = Pqueue.min_time h && v = Pqueue.pop_min h))
          ops
        && drain q = drain_pqueue h);
    Test.make ~name:"wheel_clear_reuse"
      Gen.(
        pair
          (list_size (int_bound 200) (int_bound 1000))
          (list_size (int_bound 200) (int_bound 1000)))
      (fun (first, second) ->
        let q = small_wheel () in
        List.iter (fun t -> Wheel.push q ~time:t t) first;
        Wheel.clear q;
        Wheel.is_empty q
        &&
        (List.iter (fun t -> Wheel.push q ~time:t t) second;
         List.map fst (drain q) = List.sort compare second));
  ]

let wheel_interleaved () =
  (* Interleave pushes and pops; popped times must be non-decreasing given
     pushes never go into the past.  Push offsets straddle the horizon so
     both tiers stay busy. *)
  let rng = Rng.create ~seed:3 in
  let q = small_wheel () in
  let now = ref 0 in
  for _ = 1 to 1000 do
    if Rng.bool rng || Wheel.is_empty q then
      Wheel.push q ~time:(!now + Rng.int rng 50) 0
    else begin
      let t, _ = Option.get (Wheel.pop q) in
      check_bool "monotone" true (t >= !now);
      now := t
    end
  done;
  check_bool "overflow exercised" true (Wheel.overflow_pushes q > 0)

let engine_overflow_order () =
  (* Far-future thunks (watchdog-beat distances) interleave correctly with
     a dense near-term stream. *)
  let e = Engine.create () in
  let log = ref [] in
  let mark label () = log := label :: !log in
  Engine.schedule e ~delay:100_000 (mark "far");
  Engine.schedule e ~delay:50_000 (mark "mid");
  for i = 0 to 9 do
    Engine.schedule e ~delay:i (mark (Printf.sprintf "near%d" i))
  done;
  ignore (Engine.run_all e : int);
  Alcotest.(check (list string))
    "overflow events last, in order"
    (List.init 10 (Printf.sprintf "near%d") @ [ "mid"; "far" ])
    (List.rev !log)

(* The delivery queue must pop in (arrival, send time, tie) order.  Each
   delivery goes to an endpoint of its own, so the engine grants it inline
   the moment it pops and handler order is pop order.  Pushes and pops
   interleave at random, and the pushes cover what a running simulation
   produces: send times out of order (as cross-shard [inject] gives them),
   equal (arrival, send time) keys from different sources, and arrivals
   thousands of cycles ahead, past the queue's initial 64-cycle ring. *)
let netq_pops_in_key_order =
  QCheck2.Test.make ~name:"netq_pops_in_key_order"
    QCheck2.Gen.(
      list_size (int_bound 400)
        (quad (int_bound 2) (int_bound 3) (int_bound 40) (int_bound 9)))
    (fun ops ->
      let e = Engine.create () in
      let seqs = Array.make 4 0 in
      let pending = ref [] and granted = ref [] and next_id = ref 0 in
      let push ~src ~time ~t0 =
        let tie = (src lsl 40) lor seqs.(src) in
        seqs.(src) <- seqs.(src) + 1;
        let id = !next_id in
        incr next_id;
        let ep =
          {
            Engine.handler =
              (fun _ -> granted := (Engine.now e, id) :: !granted);
            ingress_free = 0;
            in_flight = ref 0;
          }
        in
        Engine.inject e ~time ~t0 ~tie Spandex_proto.Msg.dummy ep;
        pending := (time, t0, tie, id) :: !pending
      in
      (* Stepping until a handler runs grants the reference's minimum. *)
      let pop () =
        match List.sort compare !pending with
        | [] -> not (Engine.step e)
        | (time, _, _, id) :: rest ->
          pending := rest;
          granted := [];
          while !granted = [] && Engine.step e do
            ()
          done;
          !granted = [ (time, id) ]
      in
      let rec go = function
        | [] -> true
        | (0, _, _, _) :: ops -> pop () && go ops
        | (_, src, off, far) :: ops ->
          let now = Engine.now e in
          let time = if far = 0 then now + 1000 + (100 * off) else now + off in
          push ~src ~time ~t0:(now - (off mod 5));
          go ops
      in
      let rec drain () = !pending = [] || (pop () && drain ()) in
      go ops && drain () && not (Engine.step e))

let tests =
  [
    test "wheel_ordering" wheel_ordering;
    test "wheel_fifo_ties" wheel_fifo_ties;
    test "wheel_empty_raises" wheel_empty_raises;
    test "wheel_rejects_past" wheel_rejects_past;
    test "wheel_overflow_handoff" wheel_overflow_handoff;
    test "wheel_overflow_fifo_with_slots" wheel_overflow_fifo_with_slots;
    test "wheel_interleaved" wheel_interleaved;
    test "engine_overflow_order" engine_overflow_order;
  ]
  @ List.map
      (QCheck_alcotest.to_alcotest ~long:false)
      (wheel_props @ [ netq_pops_in_key_order ])
