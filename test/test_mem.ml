(* Unit tests for spandex_mem: cache frames, MSHRs, store buffer, DRAM. *)

module Cache_frame = Spandex_mem.Cache_frame
module Mshr = Spandex_mem.Mshr
module Store_buffer = Spandex_mem.Store_buffer
module Dram = Spandex_mem.Dram
module Addr = Spandex_proto.Addr
module Mask = Spandex_util.Mask
module Engine = Spandex_sim.Engine

let test = Helpers.test
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ----- Cache_frame ------------------------------------------------------------ *)

let frame_insert_find () =
  let f = Cache_frame.create ~sets:4 ~ways:2 in
  check_int "capacity" 8 (Cache_frame.capacity f);
  (match Cache_frame.insert f ~line:0 "a" ~can_evict:(fun ~line:_ _ -> true) with
  | Cache_frame.Inserted -> ()
  | _ -> Alcotest.fail "expected Inserted");
  Alcotest.(check (option string)) "find" (Some "a") (Cache_frame.find f ~line:0);
  Alcotest.(check (option string)) "miss" None (Cache_frame.find f ~line:4);
  check_int "count" 1 (Cache_frame.count f)

let frame_lru_eviction () =
  let f = Cache_frame.create ~sets:1 ~ways:2 in
  let ins line v = ignore (Cache_frame.insert f ~line v ~can_evict:(fun ~line:_ _ -> true)) in
  ins 0 "a";
  ins 1 "b";
  Cache_frame.touch f ~line:0;
  (* line 1 is now LRU. *)
  (match Cache_frame.insert f ~line:2 "c" ~can_evict:(fun ~line:_ _ -> true) with
  | Cache_frame.Evicted (1, "b") -> ()
  | Cache_frame.Evicted (l, _) -> Alcotest.failf "evicted line %d, expected 1" l
  | _ -> Alcotest.fail "expected eviction");
  check_bool "victim gone" true (Cache_frame.find f ~line:1 = None);
  check_bool "touched survives" true (Cache_frame.find f ~line:0 <> None)

let frame_pinning () =
  let f = Cache_frame.create ~sets:1 ~ways:2 in
  let ins line v p =
    Cache_frame.insert f ~line v ~can_evict:(fun ~line:l _ -> not (List.mem l p))
  in
  ignore (ins 0 "a" []);
  ignore (ins 1 "b" []);
  (* Both pinned: no room. *)
  (match ins 2 "c" [ 0; 1 ] with
  | Cache_frame.No_room -> ()
  | _ -> Alcotest.fail "expected No_room");
  (* Only line 0 evictable. *)
  (match ins 2 "c" [ 1 ] with
  | Cache_frame.Evicted (0, "a") -> ()
  | _ -> Alcotest.fail "expected eviction of line 0")

let frame_sets_disjoint () =
  (* Lines mapping to different sets never evict each other. *)
  let f = Cache_frame.create ~sets:4 ~ways:1 in
  let ins line = ignore (Cache_frame.insert f ~line line ~can_evict:(fun ~line:_ _ -> true)) in
  ins 0;
  ins 1;
  ins 2;
  ins 3;
  check_int "all resident" 4 (Cache_frame.count f);
  (match Cache_frame.insert f ~line:4 4 ~can_evict:(fun ~line:_ _ -> true) with
  | Cache_frame.Evicted (0, _) -> () (* 4 mod 4 = set 0 *)
  | _ -> Alcotest.fail "expected conflict eviction of line 0");
  check_bool "other sets untouched" true
    (Cache_frame.find f ~line:1 <> None
    && Cache_frame.find f ~line:2 <> None
    && Cache_frame.find f ~line:3 <> None)

let frame_remove_iter () =
  let f = Cache_frame.create ~sets:2 ~ways:2 in
  let ins line = ignore (Cache_frame.insert f ~line line ~can_evict:(fun ~line:_ _ -> true)) in
  ins 0;
  ins 1;
  ins 2;
  Cache_frame.remove f ~line:1;
  check_int "count after remove" 2 (Cache_frame.count f);
  let sum = Cache_frame.fold f ~init:0 ~f:(fun acc ~line:_ v -> acc + v) in
  check_int "fold" 2 sum;
  Cache_frame.remove f ~line:1 (* idempotent *);
  check_int "still 2" 2 (Cache_frame.count f)

let frame_hit_path_allocation_free () =
  (* Every L1/LLC action looks a line up in a tag array: lookup, LRU touch,
     removal and an insert into a free way must touch no heap. *)
  let f = Cache_frame.create ~sets:4 ~ways:4 in
  let meta = "m" in
  let can_evict ~line:_ _ = true in
  for line = 0 to 7 do
    ignore (Cache_frame.insert f ~line meta ~can_evict)
  done;
  let n = 10_000 in
  let hits = ref 0 in
  let w0 = Gc.minor_words () in
  for i = 1 to n do
    let line = i land 7 in
    if Cache_frame.find_exn f ~line == meta then incr hits;
    Cache_frame.touch f ~line;
    Cache_frame.remove f ~line;
    match Cache_frame.insert f ~line meta ~can_evict with
    | Cache_frame.Inserted -> ()
    | _ -> Alcotest.fail "expected a free way"
  done;
  let words = Gc.minor_words () -. w0 in
  check_int "hits" n !hits;
  check_int "count" 8 (Cache_frame.count f);
  if words /. float_of_int n >= 0.01 then
    Alcotest.failf
      "find_exn/touch/remove/insert allocated %.2f minor words per round"
      (words /. float_of_int n)

let frame_evicting_insert_allocation () =
  (* A full set evicts on every insert; the only allocation is the
     [Evicted (line, meta)] box handed back to the caller (3 words). *)
  let ways = 4 in
  let f = Cache_frame.create ~sets:1 ~ways in
  let meta = "m" in
  let can_evict ~line:_ _ = true in
  for line = 0 to ways - 1 do
    ignore (Cache_frame.insert f ~line meta ~can_evict)
  done;
  let n = 10_000 in
  let w0 = Gc.minor_words () in
  for line = ways to ways + n - 1 do
    match Cache_frame.insert f ~line meta ~can_evict with
    | Cache_frame.Evicted (v, _) when v = line - ways -> ()
    | _ -> Alcotest.fail "expected the LRU line to be evicted"
  done;
  let per_insert = (Gc.minor_words () -. w0) /. float_of_int n in
  if per_insert > 3.01 then
    Alcotest.failf "evicting insert allocated %.2f minor words (box is 3)"
      per_insert

(* Random insert/touch/remove/find/lru_matching sequences against a
   list-based LRU model: each set is a list of (line, meta), most recently
   used first.  Lines are 0..15 and a pin mask marks lines [can_evict] /
   [f] reject. *)
type frame_op =
  | F_insert of int * int  (** line, pin mask *)
  | F_touch of int
  | F_remove of int
  | F_find of int
  | F_lru of int * int  (** set line, pin mask *)

let frame_op_gen =
  let open QCheck2.Gen in
  let line = int_bound 15 and pins = int_bound 0xFFFF in
  frequency
    [
      (4, map2 (fun l p -> F_insert (l, p)) line pins);
      (2, map (fun l -> F_touch l) line);
      (2, map (fun l -> F_remove l) line);
      (1, map (fun l -> F_find l) line);
      (1, map2 (fun l p -> F_lru (l, p)) line pins);
    ]

let pp_frame_op = function
  | F_insert (l, p) -> Printf.sprintf "insert %d pins=%x" l p
  | F_touch l -> Printf.sprintf "touch %d" l
  | F_remove l -> Printf.sprintf "remove %d" l
  | F_find l -> Printf.sprintf "find %d" l
  | F_lru (l, p) -> Printf.sprintf "lru %d pins=%x" l p

let unpinned pins line = pins land (1 lsl line) = 0

(* LRU-most entry of a MRU-first list accepted by [ok]. *)
let model_lru ok set =
  List.fold_left (fun acc (l, m) -> if ok l then Some (l, m) else acc) None set

let frame_matches_model =
  QCheck2.Test.make ~name:"frame_matches_lru_model" ~count:300
    ~print:(fun (sets, ways, ops) ->
      Printf.sprintf "sets=%d ways=%d [%s]" sets ways
        (String.concat "; " (List.map pp_frame_op ops)))
    QCheck2.Gen.(
      triple (int_range 1 4) (int_range 1 4)
        (list_size (int_bound 200) frame_op_gen))
    (fun (sets, ways, ops) ->
      let f = Cache_frame.create ~sets ~ways in
      let model = Array.make sets [] in
      let present line = List.mem_assoc line model.(line mod sets) in
      let step i op =
        match op with
        | F_insert (line, pins) when not (present line) ->
          let s = line mod sets in
          let got =
            Cache_frame.insert f ~line i ~can_evict:(fun ~line _ ->
                unpinned pins line)
          in
          let want =
            if List.length model.(s) < ways then begin
              model.(s) <- (line, i) :: model.(s);
              Cache_frame.Inserted
            end
            else
              match model_lru (unpinned pins) model.(s) with
              | None -> Cache_frame.No_room
              | Some (v, vm) ->
                model.(s) <- (line, i) :: List.remove_assoc v model.(s);
                Cache_frame.Evicted (v, vm)
          in
          got = want
        | F_insert _ -> true
        | F_touch line ->
          Cache_frame.touch f ~line;
          let s = line mod sets in
          (match List.assoc_opt line model.(s) with
          | Some m -> model.(s) <- (line, m) :: List.remove_assoc line model.(s)
          | None -> ());
          true
        | F_remove line ->
          Cache_frame.remove f ~line;
          let s = line mod sets in
          model.(s) <- List.remove_assoc line model.(s);
          true
        | F_find line ->
          Cache_frame.find f ~line = List.assoc_opt line model.(line mod sets)
          && Cache_frame.mem f ~line = present line
        | F_lru (set_line, pins) ->
          Cache_frame.lru_matching f ~set_line ~f:(fun ~line _ ->
              unpinned pins line)
          = model_lru (unpinned pins) model.(set_line mod sets)
      in
      let contents () =
        List.sort compare
          (Cache_frame.fold f ~init:[] ~f:(fun acc ~line m -> (line, m) :: acc))
      in
      let model_contents () =
        List.sort compare (List.concat (Array.to_list model))
      in
      List.for_all Fun.id
        (List.mapi
           (fun i op ->
             step i op
             && Cache_frame.count f = List.length (model_contents ()))
           ops)
      && contents () = model_contents ())

let frame_size_lines () =
  let sets, ways = Cache_frame.size_lines ~bytes:(32 * 1024) ~ways:8 in
  check_int "sets" 64 sets;
  check_int "ways" 8 ways

(* ----- Mshr --------------------------------------------------------------------- *)

let mshr_alloc_free () =
  let m = Mshr.create ~capacity:2 () in
  let t1 = Mshr.alloc m "a" in
  let t2 = Mshr.alloc m "b" in
  check_bool "full" true (Mshr.is_full m);
  check_bool "alloc fails when full" true (Mshr.alloc m "c" = -1);
  Alcotest.(check (option string)) "find" (Some "a") (Mshr.find m ~txn:t1);
  Mshr.free m ~txn:t1;
  check_bool "not full" false (Mshr.is_full m);
  Alcotest.(check (option string)) "freed" None (Mshr.find m ~txn:t1);
  Mshr.free m ~txn:t2;
  check_int "empty" 0 (Mshr.count m)

let mshr_find_first_oldest () =
  let m = Mshr.create ~capacity:8 () in
  let _t1 = Mshr.alloc m 10 in
  let t2 = Mshr.alloc m 20 in
  let _t3 = Mshr.alloc m 21 in
  (match Mshr.find_first m ~f:(fun v -> v >= 20) with
  | Some (txn, 20) -> check_int "oldest matching" t2 txn
  | _ -> Alcotest.fail "expected to find 20")

(* ----- Store_buffer --------------------------------------------------------------- *)

let sb_coalesce () =
  let sb = Store_buffer.create ~capacity:4 in
  let a w = Addr.make ~line:3 ~word:w in
  check_bool "new" true (Store_buffer.push sb ~addr:(a 0) ~value:1 ~now:0 = `New);
  check_bool "coalesced" true (Store_buffer.push sb ~addr:(a 5) ~value:2 ~now:0 = `Coalesced);
  check_bool "overwrite coalesces" true (Store_buffer.push sb ~addr:(a 0) ~value:9 ~now:0 = `Coalesced);
  check_int "one entry" 1 (Store_buffer.count sb);
  Alcotest.(check (option int)) "forward latest" (Some 9)
    (Store_buffer.forward sb ~addr:(a 0));
  Alcotest.(check (option int)) "no forward for unwritten" None
    (Store_buffer.forward sb ~addr:(a 1))

let sb_capacity_and_fifo () =
  let sb = Store_buffer.create ~capacity:2 in
  let a line = Addr.make ~line ~word:0 in
  ignore (Store_buffer.push sb ~addr:(a 0) ~value:1 ~now:0);
  ignore (Store_buffer.push sb ~addr:(a 1) ~value:2 ~now:0);
  check_bool "full" true (Store_buffer.push sb ~addr:(a 2) ~value:3 ~now:0 = `Full);
  check_bool "coalescing still allowed when full" true
    (Store_buffer.push sb ~addr:(Addr.make ~line:0 ~word:3) ~value:4 ~now:0 = `Coalesced);
  let e = Option.get (Store_buffer.take_oldest sb) in
  check_int "fifo order" 0 e.Store_buffer.line;
  check_int "coalesced mask" 2 (Mask.count e.Store_buffer.mask);
  let e2 = Option.get (Store_buffer.take_oldest sb) in
  check_int "second" 1 e2.Store_buffer.line;
  check_bool "drained" true (Store_buffer.is_empty sb)

let sb_peek_and_remove () =
  let sb = Store_buffer.create ~capacity:4 in
  ignore (Store_buffer.push sb ~addr:(Addr.make ~line:7 ~word:1) ~value:5 ~now:0);
  (match Store_buffer.peek_oldest sb with
  | Some e -> check_int "peek line" 7 e.Store_buffer.line
  | None -> Alcotest.fail "expected entry");
  check_int "peek does not remove" 1 (Store_buffer.count sb);
  Store_buffer.remove sb ~line:7;
  check_bool "removed" true (Store_buffer.is_empty sb)

(* ----- Dram ------------------------------------------------------------------------- *)

let dram_read_write () =
  let engine = Engine.create () in
  let dram = Dram.create engine ~latency:10 ~service_interval:0 in
  let got = ref None in
  Dram.read_line dram ~line:5 ~k:(fun values -> got := Some values.(3));
  ignore (Engine.run_all engine);
  check_int "initial contents" (Spandex_proto.Linedata.init_word ~line:5 ~word:3)
    (Option.get !got);
  Dram.write_words dram ~line:5 ~mask:(Mask.singleton 3) ~values:[| 42 |];
  check_int "peek after write" 42 (Dram.peek_word dram (Addr.make ~line:5 ~word:3));
  check_int "reads counted" 1 (Dram.reads dram);
  check_int "writes counted" 1 (Dram.writes dram)

let dram_latency_and_bandwidth () =
  let engine = Engine.create () in
  let dram = Dram.create engine ~latency:10 ~service_interval:4 in
  let t1 = ref 0 and t2 = ref 0 in
  Dram.read_line dram ~line:0 ~k:(fun _ -> t1 := Engine.now engine);
  Dram.read_line dram ~line:1 ~k:(fun _ -> t2 := Engine.now engine);
  ignore (Engine.run_all engine);
  check_int "first after latency" 10 !t1;
  check_int "second queued behind service interval" 14 !t2

let dram_copy_isolated () =
  (* The callback receives a copy; mutating it must not corrupt memory. *)
  let engine = Engine.create () in
  let dram = Dram.create engine ~latency:1 ~service_interval:0 in
  Dram.read_line dram ~line:2 ~k:(fun values -> values.(0) <- 12345);
  ignore (Engine.run_all engine);
  check_bool "backing unchanged" true
    (Dram.peek_word dram (Addr.make ~line:2 ~word:0) <> 12345)

let tests =
  [
    test "frame_insert_find" frame_insert_find;
    test "frame_lru_eviction" frame_lru_eviction;
    test "frame_pinning" frame_pinning;
    test "frame_sets_disjoint" frame_sets_disjoint;
    test "frame_remove_iter" frame_remove_iter;
    test "frame_size_lines" frame_size_lines;
    test "frame_hit_path_allocation_free" frame_hit_path_allocation_free;
    test "frame_evicting_insert_allocation" frame_evicting_insert_allocation;
    test "mshr_alloc_free" mshr_alloc_free;
    test "mshr_find_first_oldest" mshr_find_first_oldest;
    test "sb_coalesce" sb_coalesce;
    test "sb_capacity_and_fifo" sb_capacity_and_fifo;
    test "sb_peek_and_remove" sb_peek_and_remove;
    test "dram_read_write" dram_read_write;
    test "dram_latency_and_bandwidth" dram_latency_and_bandwidth;
    test "dram_copy_isolated" dram_copy_isolated;
  ]
  @ [ QCheck_alcotest.to_alcotest ~long:false frame_matches_model ]
