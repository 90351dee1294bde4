(* Unit and property tests for spandex_proto. *)

module Addr = Spandex_proto.Addr
module Amo = Spandex_proto.Amo
module Msg = Spandex_proto.Msg
module Linedata = Spandex_proto.Linedata
module Txn = Spandex_proto.Txn
module State = Spandex_proto.State
module Mask = Spandex_util.Mask

let test = Helpers.test
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ----- Addr ----------------------------------------------------------------- *)

let addr_geometry () =
  check_int "line bytes" 64 Addr.line_bytes;
  check_int "words per line" 16 Addr.words_per_line;
  let a = Addr.of_byte 132 in
  check_int "line" 2 a.Addr.line;
  check_int "word" 1 a.Addr.word;
  check_int "roundtrip" 132 (Addr.to_byte (Addr.of_byte 132));
  let b = Addr.line_of_word_index 35 in
  check_int "flat line" 2 b.Addr.line;
  check_int "flat word" 3 b.Addr.word

let addr_compare () =
  let a = Addr.make ~line:1 ~word:5 and b = Addr.make ~line:1 ~word:6 in
  check_bool "lt" true (Addr.compare a b < 0);
  check_bool "eq" true (Addr.equal a a);
  check_bool "line dominates" true
    (Addr.compare (Addr.make ~line:0 ~word:15) (Addr.make ~line:1 ~word:0) < 0)

let addr_invalid () =
  Alcotest.check_raises "word out of range" (Assert_failure ("lib/proto/addr.ml", 10, 2))
    (fun () -> ignore (Addr.make ~line:0 ~word:16))

(* ----- Amo ------------------------------------------------------------------ *)

let amo_semantics () =
  check_int "add new" 7 (fst (Amo.apply (Amo.Add 3) 4));
  check_int "add returns old" 4 (snd (Amo.apply (Amo.Add 3) 4));
  check_int "exch new" 9 (fst (Amo.apply (Amo.Exch 9) 4));
  check_int "exch old" 4 (snd (Amo.apply (Amo.Exch 9) 4));
  check_int "max up" 8 (fst (Amo.apply (Amo.Max 8) 4));
  check_int "max keeps" 9 (fst (Amo.apply (Amo.Max 4) 9));
  check_int "read keeps" 4 (fst (Amo.apply Amo.Read 4));
  check_int "cas hit" 5 (fst (Amo.apply (Amo.Cas { expected = 4; desired = 5 }) 4));
  check_int "cas miss" 4 (fst (Amo.apply (Amo.Cas { expected = 3; desired = 5 }) 4));
  check_int "cas returns old" 4 (snd (Amo.apply (Amo.Cas { expected = 4; desired = 5 }) 4))

(* ----- Msg ------------------------------------------------------------------ *)

let msg_flits () =
  let mk ?payload mask =
    Msg.make ~txn:1 ~kind:(Msg.Req Msg.ReqV) ~line:0 ~mask ?payload ~src:0
      ~dst:1 ()
  in
  check_int "control is 1 flit" 1 (Msg.flits (mk (Mask.singleton 0)));
  let data n = Msg.Data (Array.make n 0) in
  check_int "1 word data" 2 (Msg.flits (mk ~payload:(data 1) (Mask.singleton 0)));
  check_int "4 words = 16B = 1 data flit" 2
    (Msg.flits (mk ~payload:(data 4) (Mask.of_list [ 0; 1; 2; 3 ])));
  check_int "5 words = 2 data flits" 3
    (Msg.flits (mk ~payload:(data 5) (Mask.of_list [ 0; 1; 2; 3; 4 ])));
  check_int "full line = 4 data flits" 5
    (Msg.flits (mk ~payload:(data 16) Addr.full_mask))

let msg_categories () =
  let cat k = Msg.category k in
  Alcotest.(check bool) "reqv" true (cat (Msg.Req Msg.ReqV) = Msg.Cat_ReqV);
  Alcotest.(check bool) "nack counts as reqv" true (cat (Msg.Rsp Msg.Nack) = Msg.Cat_ReqV);
  Alcotest.(check bool) "wt and wt+data together" true
    (cat (Msg.Req Msg.ReqWT) = cat (Msg.Req Msg.ReqWTdata));
  Alcotest.(check bool) "o and o+data together" true
    (cat (Msg.Req Msg.ReqO) = cat (Msg.Req Msg.ReqOdata));
  Alcotest.(check bool) "probes with acks" true
    (cat (Msg.Probe Msg.Inv) = cat (Msg.Rsp Msg.Ack));
  Alcotest.(check bool) "rvko rsp is probe traffic" true
    (cat (Msg.Rsp Msg.RspRvkO) = Msg.Cat_Probe);
  check_int "six categories" 6 (List.length Msg.all_categories)

let msg_validation () =
  (* Payload length must match the mask. *)
  let bad () =
    ignore
      (Msg.make ~txn:1 ~kind:(Msg.Rsp Msg.RspV) ~line:0
         ~mask:(Mask.of_list [ 0; 1 ])
         ~payload:(Msg.Data [| 1 |])
         ~src:0 ~dst:1 ())
  in
  (try
     bad ();
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ());
  (* Demand must be a subset of the mask. *)
  (try
     ignore
       (Msg.make ~txn:1 ~kind:(Msg.Req Msg.ReqV) ~line:0
          ~mask:(Mask.singleton 1) ~demand:(Mask.singleton 2) ~src:0 ~dst:1 ());
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let msg_defaults () =
  let m =
    Msg.make ~txn:9 ~kind:(Msg.Req Msg.ReqO) ~line:3 ~mask:(Mask.singleton 2)
      ~src:4 ~dst:5 ()
  in
  check_int "requestor defaults to src" 4 m.Msg.requestor;
  check_bool "demand defaults to mask" true (Mask.equal m.Msg.demand m.Msg.mask);
  check_bool "not forwarded" false m.Msg.fwd

let rsp_pairing () =
  List.iter
    (fun (req, rsp) -> check_bool "pairing" true (Msg.rsp_of_req req = rsp))
    [
      (Msg.ReqV, Msg.RspV);
      (Msg.ReqS, Msg.RspS);
      (Msg.ReqWT, Msg.RspWT);
      (Msg.ReqO, Msg.RspO);
      (Msg.ReqWTdata, Msg.RspWTdata);
      (Msg.ReqOdata, Msg.RspOdata);
      (Msg.ReqWB, Msg.RspWB);
    ]

(* ----- Linedata ------------------------------------------------------------- *)

let linedata_pack_unpack () =
  let full = Array.init 16 (fun i -> 100 + i) in
  let mask = Mask.of_list [ 1; 5; 13 ] in
  let packed = Linedata.pack ~mask ~full in
  Alcotest.(check (array int)) "packed order" [| 101; 105; 113 |] packed;
  let dst = Array.make 16 0 in
  Linedata.unpack_into ~mask ~values:packed ~full:dst;
  check_int "unpacked 5" 105 dst.(5);
  check_int "untouched" 0 dst.(0);
  check_int "value_at" 113 (Linedata.value_at ~mask ~values:packed ~word:13)

let linedata_extract () =
  let mask = Mask.of_list [ 0; 3; 8; 9 ] in
  let values = [| 10; 13; 18; 19 |] in
  let sub = Mask.of_list [ 3; 9 ] in
  Alcotest.(check (array int)) "extract" [| 13; 19 |]
    (Linedata.extract ~mask ~values ~sub)

let linedata_roundtrip_prop =
  QCheck2.Test.make ~name:"pack_unpack_roundtrip"
    QCheck2.Gen.(int_bound 0xFFFF)
    (fun mask ->
      let full = Array.init 16 (fun i -> i * 31) in
      let packed = Linedata.pack ~mask ~full in
      let dst = Array.make 16 (-1) in
      Linedata.unpack_into ~mask ~values:packed ~full:dst;
      Mask.fold mask ~init:true ~f:(fun acc w -> acc && dst.(w) = full.(w)))

let linedata_init_deterministic () =
  check_int "stable" (Linedata.init_word ~line:7 ~word:3)
    (Linedata.init_word ~line:7 ~word:3);
  check_bool "distinct words differ" true
    (Linedata.init_word ~line:7 ~word:3 <> Linedata.init_word ~line:7 ~word:4);
  Alcotest.(check (array int)) "fresh_line matches init_word"
    (Array.init 16 (fun w -> Linedata.init_word ~line:9 ~word:w))
    (Linedata.fresh_line ~line:9)

(* ----- State / Txn ----------------------------------------------------------- *)

let state_mapping () =
  check_bool "E maps to O" true (State.device_of_mesi State.M_E = State.O);
  check_bool "M maps to O" true (State.device_of_mesi State.M_M = State.O);
  check_bool "S maps to S" true (State.device_of_mesi State.M_S = State.S);
  check_bool "I maps to I" true (State.device_of_mesi State.M_I = State.I);
  check_bool "V readable" true (State.device_readable State.V);
  check_bool "I not readable" false (State.device_readable State.I);
  check_bool "only O writable" true
    (State.device_writable State.O
    && (not (State.device_writable State.V))
    && not (State.device_writable State.S))

let txn_unique () =
  Txn.reset ();
  let a = Txn.fresh () and b = Txn.fresh () in
  check_bool "distinct" true (a <> b);
  Txn.reset ();
  check_int "reset restarts" a (Txn.fresh ())

(* ----- message pool aliasing ------------------------------------------------ *)

(* The recycle/reuse contract behind [Run]'s message pooling: a recycled
   record (and a recycled owned payload array) may be handed out again,
   but never while a live reference exists — [keep] pins a record and its
   payload out of the pool forever.  Physical equality is the oracle. *)

let with_pool f =
  let was_pool = Msg.pooling_enabled () in
  let was_checks = Msg.checks_enabled () in
  Msg.set_pooling true;
  Msg.set_checks true;
  Fun.protect
    ~finally:(fun () ->
      Msg.set_pooling was_pool;
      Msg.set_checks was_checks)
    f

let mk ?(mask = Mask.singleton 0) ?(payload = Msg.No_data) () =
  Msg.make ~txn:(Txn.fresh ()) ~kind:(Msg.Req Msg.ReqV) ~mask ~line:1 ~payload
    ~src:0 ~dst:1 ()

let payload_arr m =
  match m.Msg.payload with
  | Msg.Data_pooled a -> a
  | _ -> Alcotest.fail "expected pooled payload"

let pool_recycles_records () =
  with_pool @@ fun () ->
  let m1 = mk () in
  Msg.recycle m1;
  let m2 = mk () in
  check_bool "recycled record is reused" true (m1 == m2);
  let m3 = mk () in
  check_bool "live records never alias" true (not (m2 == m3));
  Msg.recycle m2;
  Msg.recycle m3

let pool_never_reuses_kept_records () =
  with_pool @@ fun () ->
  let m1 = mk () in
  Msg.keep m1;
  Msg.recycle m1;
  (* A kept record must not come back even after a recycle call. *)
  let m2 = mk () in
  check_bool "kept record stays out of the pool" true (not (m1 == m2));
  (* keep is sticky: a second recycle still cannot free it. *)
  Msg.recycle m1;
  let m3 = mk () in
  check_bool "keep is sticky" true (not (m1 == m3));
  Msg.recycle m2;
  Msg.recycle m3

let pool_recycles_owned_payloads () =
  with_pool @@ fun () ->
  let full = Array.init Addr.words_per_line (fun i -> i) in
  let m1 = mk ~mask:(Mask.full ~words:4)
      ~payload:(Msg.pooled_pack ~mask:(Mask.full ~words:4) ~full)
      () in
  let a1 = payload_arr m1 in
  Msg.recycle m1;
  (* The next same-size pooled payload takes the recycled array... *)
  let m2 = mk ~mask:(Mask.full ~words:4)
      ~payload:(Msg.pooled_pack ~mask:(Mask.full ~words:4) ~full)
      () in
  check_bool "recycled payload array is reused" true (a1 == payload_arr m2);
  (* ...but two live messages never share one. *)
  let m3 = mk ~mask:(Mask.full ~words:4)
      ~payload:(Msg.pooled_pack ~mask:(Mask.full ~words:4) ~full)
      () in
  check_bool "live payloads never alias" true
    (not (payload_arr m2 == payload_arr m3));
  Msg.recycle m2;
  Msg.recycle m3

let pool_never_reuses_kept_payloads () =
  with_pool @@ fun () ->
  let full = Array.init Addr.words_per_line (fun i -> 7 * i) in
  let m1 = mk ~mask:(Mask.full ~words:3)
      ~payload:(Msg.pooled_pack ~mask:(Mask.full ~words:3) ~full)
      () in
  let a1 = payload_arr m1 in
  Msg.keep m1;
  Msg.recycle m1;
  let m2 = mk ~mask:(Mask.full ~words:3)
      ~payload:(Msg.pooled_pack ~mask:(Mask.full ~words:3) ~full)
      () in
  check_bool "kept payload array stays out of the pool" true
    (not (a1 == payload_arr m2));
  check_bool "kept payload survives later allocations" true
    (a1.(1) = full.(1));
  Msg.recycle m2

let kind_wrappers_static () =
  (* [Msg.req]/[rsp]/[probe] stand in for [Req k] etc. on a kind held in a
     variable, which would allocate a block per call. *)
  let reqs = Array.of_list Msg.all_req_kinds in
  let rsps =
    [| Msg.RspV; Msg.RspS; Msg.RspWT; Msg.RspO; Msg.RspWTdata; Msg.RspOdata;
       Msg.RspWB; Msg.RspRvkO; Msg.Ack; Msg.Nack |]
  in
  let probes = [| Msg.RvkO; Msg.Inv |] in
  Array.iter
    (fun k ->
      check_bool "req equals Req" true (Msg.req k = Msg.Req k);
      check_bool "req is shared" true (Msg.req k == Msg.req k))
    reqs;
  Array.iter
    (fun k ->
      check_bool "rsp equals Rsp" true (Msg.rsp k = Msg.Rsp k);
      check_bool "rsp is shared" true (Msg.rsp k == Msg.rsp k))
    rsps;
  Array.iter
    (fun k ->
      check_bool "probe equals Probe" true (Msg.probe k = Msg.Probe k);
      check_bool "probe is shared" true (Msg.probe k == Msg.probe k))
    probes;
  let n = 10_000 in
  let w0 = Gc.minor_words () in
  for i = 1 to n do
    ignore (Sys.opaque_identity (Msg.req reqs.(i mod Array.length reqs)));
    ignore (Sys.opaque_identity (Msg.rsp rsps.(i mod Array.length rsps)));
    ignore
      (Sys.opaque_identity (Msg.probe probes.(i mod Array.length probes)))
  done;
  let words = Gc.minor_words () -. w0 in
  if words > 0.0 then
    Alcotest.failf "%d rounds of req/rsp/probe allocated %.0f minor words" n
      words

let tests =
  [
    test "addr_geometry" addr_geometry;
    test "addr_compare" addr_compare;
    test "amo_semantics" amo_semantics;
    test "msg_flits" msg_flits;
    test "msg_categories" msg_categories;
    test "msg_validation" msg_validation;
    test "msg_defaults" msg_defaults;
    test "rsp_pairing" rsp_pairing;
    test "kind_wrappers_static" kind_wrappers_static;
    test "linedata_pack_unpack" linedata_pack_unpack;
    test "linedata_extract" linedata_extract;
    test "linedata_init_deterministic" linedata_init_deterministic;
    test "state_mapping" state_mapping;
    test "txn_unique" txn_unique;
    test "pool_recycles_records" pool_recycles_records;
    test "pool_never_reuses_kept_records" pool_never_reuses_kept_records;
    test "pool_recycles_owned_payloads" pool_recycles_owned_payloads;
    test "pool_never_reuses_kept_payloads" pool_never_reuses_kept_payloads;
  ]
  @ [ QCheck_alcotest.to_alcotest ~long:false linedata_roundtrip_prop ]
