(* Tests for the TU response collector (paper III-D). *)

module Tu = Spandex.Tu
module Msg = Spandex_proto.Msg
module Mask = Spandex_util.Mask
module Addr = Spandex_proto.Addr

let test = Helpers.test
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let rsp ?payload ~kind ~mask () =
  Msg.make ~txn:1 ~kind:(Msg.Rsp kind) ~line:0 ~mask ?payload ~src:2 ~dst:3 ()

let data_rsp ~mask values = rsp ~kind:Msg.RspV ~mask ~payload:(Msg.Data values) ()

let single_response_completes () =
  let t = Tu.create ~demand:(Mask.singleton 3) in
  match Tu.absorb t (data_rsp ~mask:(Mask.singleton 3) [| 33 |]) with
  | Some r ->
    check_int "value" 33 r.Tu.values.(3);
    check_bool "mask" true (Mask.equal r.Tu.data_mask (Mask.singleton 3))
  | None -> Alcotest.fail "expected completion"

let partial_responses_accumulate () =
  (* "A device that can issue multi-word requests must be able to handle
     multiple partial word granularity responses." *)
  let t = Tu.create ~demand:Addr.full_mask in
  check_bool "low half pending" true
    (Tu.absorb t (data_rsp ~mask:0x00FF (Array.init 8 (fun i -> i))) = None);
  match Tu.absorb t (data_rsp ~mask:0xFF00 (Array.init 8 (fun i -> 8 + i))) with
  | Some r ->
    check_int "word 0" 0 r.Tu.values.(0);
    check_int "word 15" 15 r.Tu.values.(15)
  | None -> Alcotest.fail "expected completion"

let opportunistic_words_folded_in () =
  (* Demand one word; a response covering more completes and keeps all. *)
  let t = Tu.create ~demand:(Mask.singleton 2) in
  match Tu.absorb t (data_rsp ~mask:0x000F [| 10; 11; 12; 13 |]) with
  | Some r ->
    check_int "demanded" 12 r.Tu.values.(2);
    check_int "extra" 13 r.Tu.values.(3);
    check_int "four words of data" 4 (Mask.count r.Tu.data_mask)
  | None -> Alcotest.fail "expected completion"

let acks_count_toward_completion () =
  let t = Tu.create ~demand:(Mask.of_list [ 0; 1 ]) in
  check_bool "pending" true
    (Tu.absorb t (rsp ~kind:Msg.RspO ~mask:(Mask.singleton 0) ()) = None);
  match Tu.absorb t (rsp ~kind:Msg.RspO ~mask:(Mask.singleton 1) ()) with
  | Some r ->
    check_bool "acked words" true (Mask.equal r.Tu.acked (Mask.of_list [ 0; 1 ]));
    check_bool "no data" true (Mask.is_empty r.Tu.data_mask)
  | None -> Alcotest.fail "expected completion"

let nacks_reported () =
  let t = Tu.create ~demand:(Mask.of_list [ 4; 5 ]) in
  check_bool "pending" true
    (Tu.absorb t (data_rsp ~mask:(Mask.singleton 4) [| 7 |]) = None);
  match Tu.absorb t (rsp ~kind:Msg.Nack ~mask:(Mask.singleton 5) ()) with
  | Some r ->
    check_bool "nacked word visible" true (Mask.equal r.Tu.nacked (Mask.singleton 5));
    check_int "data still there" 7 r.Tu.values.(4)
  | None -> Alcotest.fail "expected completion"

let mixed_sources () =
  (* LLC answers some words, two distinct owners the rest. *)
  let t = Tu.create ~demand:(Mask.of_list [ 0; 7; 15 ]) in
  check_bool "llc part" true (Tu.absorb t (data_rsp ~mask:(Mask.singleton 0) [| 1 |]) = None);
  check_bool "owner A" true (Tu.absorb t (data_rsp ~mask:(Mask.singleton 7) [| 2 |]) = None);
  match Tu.absorb t (data_rsp ~mask:(Mask.singleton 15) [| 3 |]) with
  | Some r ->
    check_int "a" 1 r.Tu.values.(0);
    check_int "b" 2 r.Tu.values.(7);
    check_int "c" 3 r.Tu.values.(15)
  | None -> Alcotest.fail "expected completion"

let data_less_acks_leave_values_empty () =
  (* Data-less grants (ReqO, ReqWT) never write the line array, so the
     collector does not allocate it. *)
  let t = Tu.create ~demand:(Mask.of_list [ 0; 1 ]) in
  check_bool "pending" true
    (Tu.absorb t (rsp ~kind:Msg.RspO ~mask:(Mask.singleton 0) ()) = None);
  check_int "no line array yet" 0 (Array.length (Tu.peek t).Tu.values);
  match Tu.absorb t (rsp ~kind:Msg.RspWT ~mask:(Mask.singleton 1) ()) with
  | Some r ->
    check_int "no line array" 0 (Array.length r.Tu.values);
    check_bool "no data" true (Mask.is_empty r.Tu.data_mask)
  | None -> Alcotest.fail "expected completion"

let first_data_fills_exactly_data_mask () =
  let t = Tu.create ~demand:(Mask.of_list [ 0; 5; 9 ]) in
  check_bool "ack first" true
    (Tu.absorb t (rsp ~kind:Msg.RspO ~mask:(Mask.singleton 0) ()) = None);
  check_int "no line array after the ack" 0 (Array.length (Tu.peek t).Tu.values);
  match Tu.absorb t (data_rsp ~mask:(Mask.of_list [ 5; 9 ]) [| 55; 99 |]) with
  | Some r ->
    check_bool "data mask" true
      (Mask.equal r.Tu.data_mask (Mask.of_list [ 5; 9 ]));
    check_int "full line" Addr.words_per_line (Array.length r.Tu.values);
    for i = 0 to Addr.words_per_line - 1 do
      let expected = if i = 5 then 55 else if i = 9 then 99 else 0 in
      check_int (Printf.sprintf "word %d" i) expected r.Tu.values.(i)
    done
  | None -> Alcotest.fail "expected completion"

let completion_prop =
  QCheck2.Test.make ~name:"tu_completes_iff_demand_covered"
    QCheck2.Gen.(pair (int_bound 0xFFFF) (list_size (int_bound 8) (int_bound 0xFFFF)))
    (fun (demand, masks) ->
      let demand = if demand = 0 then 1 else demand in
      let t = Tu.create ~demand in
      let rec feed covered = function
        | [] -> true (* never completed, and demand never covered *)
        | m :: rest -> (
          let m = if m = 0 then 1 else m in
          let payload = Msg.Data (Array.make (Mask.count m) 0) in
          match Tu.absorb t (rsp ~kind:Msg.RspV ~mask:m ~payload ()) with
          | Some _ -> Mask.subset demand (Mask.union covered m)
          | None ->
            let covered = Mask.union covered m in
            if Mask.subset demand covered then false (* should have completed *)
            else feed covered rest)
      in
      feed Mask.empty masks)

let tests =
  [
    test "single_response_completes" single_response_completes;
    test "partial_responses_accumulate" partial_responses_accumulate;
    test "opportunistic_words_folded_in" opportunistic_words_folded_in;
    test "acks_count_toward_completion" acks_count_toward_completion;
    test "nacks_reported" nacks_reported;
    test "mixed_sources" mixed_sources;
    test "data_less_acks_leave_values_empty" data_less_acks_leave_values_empty;
    test "first_data_fills_exactly_data_mask" first_data_fills_exactly_data_mask;
  ]
  @ [ QCheck_alcotest.to_alcotest ~long:false completion_prop ]
