module Mask = Spandex_util.Mask
module Stats = Spandex_util.Stats
module Engine = Spandex_sim.Engine
module Msg = Spandex_proto.Msg
module Addr = Spandex_proto.Addr
module Amo = Spandex_proto.Amo
module State = Spandex_proto.State
module Linedata = Spandex_proto.Linedata
module Network = Spandex_net.Network
module Cache_frame = Spandex_mem.Cache_frame
module Mshr = Spandex_mem.Mshr
module Store_buffer = Spandex_mem.Store_buffer
module Port = Spandex_device.Port
module Tu = Spandex.Tu
module Chassis = Spandex_l1.Chassis
module Policy = Spandex_l1.Policy
module Spandex_policy = Spandex_l1.Spandex_policy

type config = {
  id : Msg.device_id;
  llc_id : Msg.device_id;
  llc_banks : int;
  sets : int;
  ways : int;
  mshrs : int;
  sb_capacity : int;
  hit_latency : int;
  coalesce_window : int;
  max_reqv_retries : int;
  atomics_at_llc : bool;
  region_of : int -> int;
      (* software-provided region classification by line (paper II-C:
         DeNovo regions); [fun _ -> 0] when the program has no regions. *)
  policy : Spandex_policy.spec;
}

type line = {
  data : int array;
  mutable valid : Mask.t;  (* V words: self-invalidated at acquires. *)
  mutable owned : Mask.t;  (* O words: survive acquires. *)
}

type read_miss = {
  r_line : int;
  r_collector : Tu.t;
  mutable r_waiters : (int * (int -> unit)) list;
  r_epoch : int;
  mutable r_retries : int;
  r_own_mask : Mask.t;
      (* words requested with ReqO+data — after Nack conversion (III-C) or
         by policy promotion: the grant carries ownership, which must be
         installed as Owned — the LLC registers this cache as their owner. *)
}

(* A drained store-buffer entry waiting for its ReqO grant.  The values are
   the truth for these words from the moment the LLC serializes the grant,
   so external requests are answered from here ("up-to-date data is
   available: the pending request is a ReqO", §III-C case 1). *)
type own_req = {
  o_line : int;
  o_mask : Mask.t;
  o_entry : Store_buffer.entry;
      (* the drained entry itself, its [values] the pending data: this
         record owns it until the grant commits, then releases it to the
         store buffer. *)
  o_collector : Tu.t;
  mutable o_stolen : Mask.t;  (* downgraded away before local commit. *)
  o_through : bool;
      (* issued as a write-through (adaptive policy): completion leaves the
         words Valid, not Owned, and externals are never forwarded here. *)
  mutable o_txn : int;
      (* the request's transaction id, set once allocated: commit order is
         not issue order, and a commit must not be overwritten by an older
         pending store to the same words. *)
}

(* A pending ReqO+data for a local RMW: externals that need the word's data
   must wait for it to arrive (§III-C case 1). *)
type rmw_req = {
  w_line : int;
  w_word : int;
  w_amo : Amo.t;
  w_collector : Tu.t;
  mutable w_stolen : bool;  (* a data-less fwd ReqO took the word. *)
  mutable w_queued : Msg.t list;  (* delayed externals, FIFO. *)
  w_k : int -> unit;
}

type atomic_req = { at_k : int -> unit }

(* A replaced-Owned write-back: data retained until RspWB (§III-A). *)
type wb_req = { b_line : int; b_mask : Mask.t; b_values : int array }

type outstanding =
  | Read of read_miss
  | Own of own_req
  | Rmw of rmw_req
  | Atomic of atomic_req

(* Lookup key and results for the MSHR and write-back scans.  The
   predicates that read it are built once in [create], so a lookup writes
   its key here instead of allocating a closure over it.  [external_req]'s
   single pass collects the words of [s_line] pending per transaction
   kind; the write-back visitor records the last overlapping record in
   [s_wb] ([no_wb] when none) and the union of their masks in
   [s_wb_words]. *)
type scan = {
  mutable s_line : int;
  mutable s_word : int;
  mutable s_epoch : int;
  mutable s_mask : Mask.t;
  mutable s_own : Mask.t;
  mutable s_rmw : Mask.t;
  mutable s_read : Mask.t;
  mutable s_wb : wb_req;
  mutable s_wb_words : Mask.t;
}

type t = {
  ch : outstanding Chassis.t;
  cfg : config;
  frame : line Cache_frame.t;
  (* Write-backs in flight, keyed by transaction id; outside the MSHR file
     because the record must exist from the instant the words leave the
     frame (cf. Mesi_l1.wb_records). *)
  wb_records : (int, wb_req) Hashtbl.t;
  wb_lines : int array;
      (* write-backs in flight per [line land wb_hash_mask]: lookups skip
         the (allocating) [Hashtbl.iter] when no record can hold the line. *)
  (* Per-request classification (the Spandex flexibility knob): static for
     classic DeNovo, reuse-predicted for the adaptive configurations. *)
  policy : Policy.t;
  k_store_hit_owned : Stats.key;
  k_wt_chosen : Stats.key;
  k_reqo_issued : Stats.key;
  k_reqo_words : Stats.key;
  k_wb_issued : Stats.key;
  scan : scan;
  (* Prebuilt lookup predicates over [scan]'s key (see [create]). *)
  own_covers : outstanding -> bool;
  fwd_own_covers : outstanding -> bool;
  rmw_covers : outstanding -> bool;
  read_coalesces : outstanding -> bool;
  line_writes : outstanding -> bool;
  wb_visit : int -> wb_req -> unit;
  mutable epoch : int;
}

let send t msg = Chassis.send t.ch msg

let request t ~txn ~kind ~line ~mask ?demand ?payload ?amo () =
  Chassis.request t.ch ~txn ~kind ~line ~mask ?demand ?payload ?amo ()

let free_txn t ~txn = Chassis.free_txn t.ch ~txn

let reply t (msg : Msg.t) ~kind ~dst ~mask ?payload () =
  Chassis.reply t.ch msg ~kind ~dst ~mask ?payload ()

(* Copy the [mask] words of [src] into [dst]: a top-level loop, where a
   [Mask.iter] closure over both arrays would allocate. *)
let rec copy_words ~mask ~src ~dst w =
  if w < Addr.words_per_line then begin
    if Mask.mem mask w then dst.(w) <- src.(w);
    copy_words ~mask ~src ~dst (w + 1)
  end

(* ----- frame management ----------------------------------------------------- *)

let wb_hash_mask = 63

let send_wb t ~line ~mask ~values =
  let txn = Chassis.fresh_txn t.ch in
  Hashtbl.replace t.wb_records txn { b_line = line; b_mask = mask; b_values = values };
  let h = line land wb_hash_mask in
  t.wb_lines.(h) <- t.wb_lines.(h) + 1;
  Stats.bump t.ch.Chassis.stats t.k_wb_issued;
  request t ~txn ~kind:Msg.ReqWB ~line ~mask
    ~payload:(Msg.pooled_pack ~mask ~full:values)
    ()

let get_or_alloc t line_id =
  match Cache_frame.find_exn t.frame ~line:line_id with
  | l -> l
  | exception Not_found -> (
    let fresh =
      {
        data = Array.make Addr.words_per_line 0;
        valid = Mask.empty;
        owned = Mask.empty;
      }
    in
    match
      Cache_frame.insert t.frame ~line:line_id fresh ~can_evict:(fun ~line:_ _ ->
          true)
    with
    | Cache_frame.Inserted -> fresh
    | Cache_frame.Evicted (vline, vmeta) ->
      Stats.incr t.ch.Chassis.stats "evictions";
      if not (Mask.is_empty vmeta.owned) then
        send_wb t ~line:vline ~mask:vmeta.owned
          ~values:(Array.copy vmeta.data);
      fresh
    | Cache_frame.No_room -> assert false)

(* ----- write-through of the store buffer as ownership requests -------------- *)

let count_write n = function
  | Own _ | Atomic _ -> n + 1
  | Read _ | Rmw _ -> n

let writes_pending t =
  Mshr.fold t.ch.Chassis.outstanding ~init:0 ~f:count_write

let rec drain t =
  match Store_buffer.peek_oldest_exn t.ch.Chassis.sb with
  | exception Not_found -> Chassis.check_release t.ch
  | e ->
    if not (Chassis.entry_ready t.ch e.Store_buffer.line) then
      Chassis.arm_drain t.ch ~delay:(max 1 t.cfg.coalesce_window)
    else if Mshr.is_full t.ch.Chassis.outstanding then ()
    else begin
      let e = Store_buffer.take_oldest_exn t.ch.Chassis.sb in
      let through =
        t.policy.Policy.classify_write ~line:e.Store_buffer.line
        = Policy.Write_through
      in
      let record =
        {
          o_line = e.Store_buffer.line;
          o_mask = e.Store_buffer.mask;
          o_entry = e;
          o_collector = Tu.create ~demand:e.Store_buffer.mask;
          o_stolen = Mask.empty;
          o_through = through;
          o_txn = -1;
        }
      in
      let txn = Mshr.alloc t.ch.Chassis.outstanding (Own record) in
      assert (txn >= 0);
      record.o_txn <- txn;
      if through then begin
        Stats.bump t.ch.Chassis.stats t.k_wt_chosen;
        t.policy.Policy.on_write_through ~line:e.Store_buffer.line;
        request t ~txn ~kind:Msg.ReqWT ~line:e.Store_buffer.line
          ~mask:e.Store_buffer.mask
          ~payload:
            (Msg.pooled_pack ~mask:e.Store_buffer.mask
               ~full:e.Store_buffer.values)
          ()
      end
      else begin
        Stats.bump t.ch.Chassis.stats t.k_reqo_issued;
        Stats.bump_by t.ch.Chassis.stats t.k_reqo_words
          (Mask.count e.Store_buffer.mask);
        (* Ownership without data: every requested word is overwritten. *)
        request t ~txn ~kind:Msg.ReqO ~line:e.Store_buffer.line
          ~mask:e.Store_buffer.mask ()
      end;
      Chassis.wake_stalled t.ch;
      drain t
    end

(* An older pending store to the line must not overwrite the words [o]
   commits: the drain issues same-line ReqOs back to back, and their grants
   may return out of order. *)
let supersede (o : own_req) = function
  | Own p when p.o_line = o.o_line && p.o_txn < o.o_txn ->
    p.o_stolen <- Mask.union p.o_stolen (Mask.diff o.o_mask o.o_stolen);
    o
  | Own _ | Read _ | Rmw _ | Atomic _ -> o

let commit_own t (o : own_req) =
  let commit = Mask.diff o.o_mask o.o_stolen in
  if not (Mask.is_empty commit) then begin
    ignore (Mshr.fold t.ch.Chassis.outstanding ~init:o ~f:supersede);
    let l = get_or_alloc t o.o_line in
    copy_words ~mask:commit ~src:o.o_entry.Store_buffer.values ~dst:l.data 0;
    if o.o_through then
      (* Write-through completion: the LLC holds the data; our copy is a
         Valid replica. *)
      l.valid <- Mask.union l.valid commit
    else begin
      l.owned <- Mask.union l.owned commit;
      l.valid <- Mask.diff l.valid commit
    end
  end

(* ----- pending-write lookup (for local loads and external requests) --------- *)

(* The predicates and the write-back visitor [create] builds over the
   scan record.  Each lookup below sets the key, then scans. *)
let own_record_covers s o =
  o.o_line = s.s_line && Mask.mem (Mask.diff o.o_mask o.o_stolen) s.s_word

let own_covers s = function
  | Own o -> own_record_covers s o
  | Read _ | Rmw _ | Atomic _ -> false

(* [own_covers] without write-throughs: externals are never served from a
   ReqWT (the LLC already holds its data). *)
let fwd_own_covers s = function
  | Own o -> (not o.o_through) && own_record_covers s o
  | Read _ | Rmw _ | Atomic _ -> false

let rmw_covers s = function
  | Rmw r -> r.w_line = s.s_line && r.w_word = s.s_word && not r.w_stolen
  | Read _ | Own _ | Atomic _ -> false

let read_coalesces s = function
  | Read m -> m.r_line = s.s_line && m.r_epoch = s.s_epoch
  | Own _ | Rmw _ | Atomic _ -> false

let line_writes s = function
  | Own o -> o.o_line = s.s_line
  | Rmw r -> r.w_line = s.s_line
  | Read _ | Atomic _ -> false

(* [Hashtbl.iter] order, so the last overlapping record wins. *)
let wb_visit s _txn (b : wb_req) =
  if b.b_line = s.s_line && not (Mask.is_empty (Mask.inter b.b_mask s.s_mask))
  then begin
    s.s_wb <- b;
    s.s_wb_words <- Mask.union s.s_wb_words b.b_mask
  end

let set_key t ~line ~word =
  t.scan.s_line <- line;
  t.scan.s_word <- word

(* The newest pending store covering the word: a local load must see the
   program-order-last value, and the drain may have issued several stores
   to one word before any is granted. *)
let newest_own_exn t ~line ~word =
  if Mshr.count t.ch.Chassis.outstanding = 0 then raise Not_found;
  set_key t ~line ~word;
  match Mshr.find_last_exn t.ch.Chassis.outstanding ~f:t.own_covers with
  | Own o -> o
  | Read _ | Rmw _ | Atomic _ -> assert false

(* The oldest pending (non-write-through) store covering the word: the LLC
   serialized forwarded requests after its grant and before any later one's. *)
let oldest_fwd_own_exn t ~line ~word =
  set_key t ~line ~word;
  match Mshr.find_first_exn t.ch.Chassis.outstanding ~f:t.fwd_own_covers with
  | Own o -> o
  | Read _ | Rmw _ | Atomic _ -> assert false

let own_pending t ~line ~word =
  Mshr.count t.ch.Chassis.outstanding > 0
  && begin
    set_key t ~line ~word;
    Mshr.exists t.ch.Chassis.outstanding ~f:t.own_covers
  end

let rmw_pending t ~line ~word =
  Mshr.count t.ch.Chassis.outstanding > 0
  && begin
    set_key t ~line ~word;
    Mshr.exists t.ch.Chassis.outstanding ~f:t.rmw_covers
  end

let rmw_exn t ~line ~word =
  set_key t ~line ~word;
  match Mshr.find_first_exn t.ch.Chassis.outstanding ~f:t.rmw_covers with
  | Rmw r -> r
  | Read _ | Own _ | Atomic _ -> assert false

(* A record no write-back lookup returns: "none in flight". *)
let no_wb = { b_line = -1; b_mask = Mask.empty; b_values = [||] }

(* Visit the write-backs of [line] overlapping [mask]; the results land in
   [t.scan.s_wb] and [t.scan.s_wb_words]. *)
let scan_wbs t ~line ~mask =
  let s = t.scan in
  s.s_wb <- no_wb;
  s.s_wb_words <- Mask.empty;
  if Hashtbl.length t.wb_records > 0 && t.wb_lines.(line land wb_hash_mask) > 0
  then begin
    s.s_line <- line;
    s.s_mask <- mask;
    Hashtbl.iter t.wb_visit t.wb_records
  end

(* The write-back holding the word, or [no_wb]. *)
let wb_covering t ~line ~word =
  scan_wbs t ~line ~mask:(Mask.singleton word);
  t.scan.s_wb

(* Any write-side transaction alive for [line]: a promoted (ReqO+data) read
   issued beside one could be answered with a data-less self-grant. *)
let line_write_pending t ~line =
  (Mshr.count t.ch.Chassis.outstanding > 0
  && begin
    t.scan.s_line <- line;
    Mshr.exists t.ch.Chassis.outstanding ~f:t.line_writes
  end)
  || begin
    scan_wbs t ~line ~mask:Addr.full_mask;
    t.scan.s_wb != no_wb
  end

(* ----- serving external requests -------------------------------------------- *)

(* The frame line [external_req] classifies when the line is absent.  Its
   masks are empty, so nothing is ever served from it or written to it. *)
let no_line = { data = [||]; valid = Mask.empty; owned = Mask.empty }

let scan_entry s = function
  | Own o when o.o_line = s.s_line && not o.o_through ->
    s.s_own <- Mask.union s.s_own (Mask.diff o.o_mask o.o_stolen);
    s
  | Rmw r when r.w_line = s.s_line && not r.w_stolen ->
    s.s_rmw <- Mask.add s.s_rmw r.w_word;
    s
  | Read m when m.r_line = s.s_line ->
    (* Words a converted or promoted read (ReqO+data) is mid-granting: the
       LLC already lists this cache as their owner, but the data is still
       on the wire. *)
    s.s_read <- Mask.union s.s_read m.r_own_mask;
    s
  | Own _ | Rmw _ | Read _ | Atomic _ -> s

(* Words of [line] covered by pending ownership stores (as
   [oldest_fwd_own_exn] sees them), by RMWs mid-grant (as [rmw_exn]) and by
   reads mid-grant, in one pass over the MSHR file. *)
let scan_mshrs t ~line =
  let s = t.scan in
  s.s_line <- line;
  s.s_own <- Mask.empty;
  s.s_rmw <- Mask.empty;
  s.s_read <- Mask.empty;
  Mshr.fold t.ch.Chassis.outstanding ~init:s ~f:scan_entry

(* Words of [line] held by write-backs in flight. *)
let wb_words t ~line =
  scan_wbs t ~line ~mask:Addr.full_mask;
  t.scan.s_wb_words

(* Every external but a forwarded ReqV takes the words it is served. *)
let takes_words (msg : Msg.t) =
  match msg.Msg.kind with Msg.Req Msg.ReqV -> false | _ -> true

let respond_words t (msg : Msg.t) ~kind ~dst ~words ~values =
  if not (Mask.is_empty words) then
    reply t msg ~kind ~dst ~mask:words
      ~payload:(Msg.pooled_pack ~mask:words ~full:values)
      ()

(* Answer [msg] for [words] whose truth is [values] (Table IV: expected O).
   The caller has already downgraded the words if [takes_words msg]. *)
let serve t (msg : Msg.t) ~words ~values =
  match msg.Msg.kind with
  | Msg.Req Msg.ReqV ->
    (* No state change (Table IV: expected O, next O). *)
    respond_words t msg ~kind:Msg.RspV ~dst:msg.Msg.requestor ~words ~values
  | Msg.Req Msg.ReqO ->
    reply t msg ~kind:Msg.RspO ~dst:msg.Msg.requestor ~mask:words ()
  | Msg.Req Msg.ReqOdata ->
    respond_words t msg ~kind:Msg.RspOdata ~dst:msg.Msg.requestor ~words
      ~values
  | Msg.Req Msg.ReqS ->
    (* DeNovo has no Shared state: surrender the data to both the
       requestor and the LLC and fall to Invalid. *)
    respond_words t msg ~kind:Msg.RspS ~dst:msg.Msg.requestor ~words ~values;
    respond_words t msg ~kind:Msg.RspRvkO ~dst:msg.Msg.src ~words ~values
  | Msg.Probe Msg.RvkO ->
    respond_words t msg ~kind:Msg.RspRvkO ~dst:msg.Msg.src ~words ~values
  | _ -> assert false

(* Serve each word of [words] (from index [w] up) from the oldest pending
   store covering it. *)
let rec serve_own t msg ~line words w =
  if w < Addr.words_per_line then begin
    if Mask.mem words w then begin
      let o = oldest_fwd_own_exn t ~line ~word:w in
      let one = Mask.singleton w in
      if takes_words msg then o.o_stolen <- Mask.union o.o_stolen one;
      serve t msg ~words:one ~values:o.o_entry.Store_buffer.values
    end;
    serve_own t msg ~line words (w + 1)
  end

let serve_wb t (msg : Msg.t) ~line words =
  scan_wbs t ~line ~mask:words;
  let b = t.scan.s_wb in
  assert (b != no_wb);
  match msg.Msg.kind with
  | Msg.Req Msg.ReqV ->
    respond_words t msg ~kind:Msg.RspV ~dst:msg.Msg.requestor ~words
      ~values:b.b_values
  | Msg.Req Msg.ReqO ->
    reply t msg ~kind:Msg.RspO ~dst:msg.Msg.requestor ~mask:words ()
  | Msg.Req Msg.ReqOdata ->
    respond_words t msg ~kind:Msg.RspOdata ~dst:msg.Msg.requestor ~words
      ~values:b.b_values
  | Msg.Req Msg.ReqS ->
    respond_words t msg ~kind:Msg.RspS ~dst:msg.Msg.requestor ~words
      ~values:b.b_values;
    (* Data already travels in the pending ReqWB (footnote 5). *)
    reply t msg ~kind:Msg.RspRvkO ~dst:msg.Msg.src ~mask:words ()
  | Msg.Probe Msg.RvkO ->
    reply t msg ~kind:Msg.RspRvkO ~dst:msg.Msg.src ~mask:words ()
  | _ -> assert false

(* ----- loads ---------------------------------------------------------------- *)

let install_fill t (m : read_miss) (r : Tu.result) =
  (* Ownership granted by a converted or promoted read is installed
     unconditionally: the LLC now lists this cache as the owner (and Owned
     data survives acquires, so the epoch guard does not apply to it). *)
  let granted = Mask.inter r.Tu.data_mask m.r_own_mask in
  if not (Mask.is_empty granted) then begin
    let l = get_or_alloc t m.r_line in
    copy_words ~mask:granted ~src:r.Tu.values ~dst:l.data 0;
    l.owned <- Mask.union l.owned granted;
    l.valid <- Mask.diff l.valid granted
  end;
  if m.r_epoch = t.epoch then begin
    let l = get_or_alloc t m.r_line in
    (* Only words still Invalid locally take the fill; Owned (and locally
       written Valid) words keep the local copy. *)
    let fresh =
      Mask.diff (Mask.diff r.Tu.data_mask granted) (Mask.union l.valid l.owned)
    in
    copy_words ~mask:fresh ~src:r.Tu.values ~dst:l.data 0;
    l.valid <- Mask.union l.valid fresh
  end
  else Stats.incr t.ch.Chassis.stats "stale_fill_dropped"

let rec load t (addr : Addr.t) ~k =
  (* The hit paths apply [k] through the engine's closure-free Apply event;
     [done_] is deliberately not a local closure so a load hit allocates
     nothing. *)
  let { Addr.line; word } = addr in
  match Store_buffer.forward t.ch.Chassis.sb ~addr with
  | Some v ->
    Stats.bump t.ch.Chassis.stats t.ch.Chassis.k_load_sb_fwd;
    Engine.apply_later t.ch.Chassis.engine ~delay:t.cfg.hit_latency k v
  | None -> (
    match newest_own_exn t ~line ~word with
    | o ->
      Stats.bump t.ch.Chassis.stats t.ch.Chassis.k_load_sb_fwd;
      Engine.apply_later t.ch.Chassis.engine ~delay:t.cfg.hit_latency k
        o.o_entry.Store_buffer.values.(word)
    | exception Not_found ->
      let b = wb_covering t ~line ~word in
      if b != no_wb then begin
        (* The word is mid-write-back: the LLC still lists us as owner, so a
           ReqV would be forwarded right back; serve the retained data. *)
        Stats.incr t.ch.Chassis.stats "load_wb_fwd";
        Engine.apply_later t.ch.Chassis.engine ~delay:t.cfg.hit_latency k
          b.b_values.(word)
      end
      else if rmw_pending t ~line ~word then begin
        (* Another context's RMW to this word is mid-grant; once it commits
           the load hits the owned word locally. *)
        Stats.incr t.ch.Chassis.stats "load_rmw_defer";
        Engine.schedule t.ch.Chassis.engine ~delay:3 (fun () -> load t addr ~k)
      end
      else load_frame t addr ~k)

and load_frame t (addr : Addr.t) ~k =
  let { Addr.line; word } = addr in
  match Cache_frame.find_exn t.frame ~line with
  | l when Mask.mem (Mask.union l.valid l.owned) word ->
    Stats.bump t.ch.Chassis.stats t.ch.Chassis.k_load_hit;
    Cache_frame.touch t.frame ~line;
    Engine.apply_later t.ch.Chassis.engine ~delay:t.cfg.hit_latency k
      l.data.(word)
  | _ | (exception Not_found) -> (
    Stats.bump t.ch.Chassis.stats t.ch.Chassis.k_load_miss;
    t.scan.s_line <- line;
    t.scan.s_epoch <- t.epoch;
    match Mshr.find_first_exn t.ch.Chassis.outstanding ~f:t.read_coalesces with
    | Read m ->
      Stats.incr t.ch.Chassis.stats "load_miss_coalesced";
      m.r_waiters <- (word, k) :: m.r_waiters
    | Own _ | Rmw _ | Atomic _ -> assert false
    | exception Not_found -> (
      let have =
        match Cache_frame.find_exn t.frame ~line with
        | l -> Mask.union l.valid l.owned
        | exception Not_found -> Mask.empty
      in
      let mask = Mask.diff Addr.full_mask have in
      (* Per-request read classification: repeated misses to a line may
         promote the ReqV to a ReqO+data whose fill installs as Owned and
         survives later acquires.  Promotion is suppressed while any
         write-side transaction is alive for the line — the LLC could answer
         with a data-less self-grant. *)
      let promote =
        match t.policy.Policy.classify_read ~line Policy.absent with
        | Policy.Read_own -> not (line_write_pending t ~line)
        | Policy.Read_valid | Policy.Read_shared -> false
      in
      let demand = if promote then mask else Mask.singleton word in
      let m =
        {
          r_line = line;
          r_collector = Tu.create ~demand;
          r_waiters = [ (word, k) ];
          r_epoch = t.epoch;
          r_retries = 0;
          r_own_mask = (if promote then mask else Mask.empty);
        }
      in
      if promote then Stats.incr t.ch.Chassis.stats "load_promoted_own";
      let txn = Mshr.alloc t.ch.Chassis.outstanding (Read m) in
      if txn < 0 then begin
        Stats.incr t.ch.Chassis.stats "mshr_stall";
        Engine.schedule t.ch.Chassis.engine ~delay:4 (fun () -> load t addr ~k)
      end
      else if promote then request t ~txn ~kind:Msg.ReqOdata ~line ~mask ()
      else
        (* Word-granularity demand, opportunistic line fill (Table II: ReqV
           "flexible"). *)
        request t ~txn ~kind:Msg.ReqV ~line ~mask ~demand ()))

and complete_read t ~txn (m : read_miss) (r : Tu.result) =
  free_txn t ~txn;
  install_fill t m r;
  fire_covered r m.r_waiters;
  (* Waiters whose word was not in this fill re-enter the load path. *)
  reload_uncovered t ~line:m.r_line r m.r_waiters;
  drain t

(* The waiter list is newest-first; both walks recurse before acting, so
   waiters are served oldest-first, without reversing or partitioning. *)
and fire_covered (r : Tu.result) = function
  | [] -> ()
  | (w, k) :: rest ->
    fire_covered r rest;
    if Mask.mem r.Tu.data_mask w then k r.Tu.values.(w)

and reload_uncovered t ~line (r : Tu.result) = function
  | [] -> ()
  | (w, k) :: rest ->
    reload_uncovered t ~line r rest;
    if not (Mask.mem r.Tu.data_mask w) then load t { Addr.line; word = w } ~k

and handle_read_nacks t ~txn (m : read_miss) (r : Tu.result) =
  Chassis.trace_nack t.ch ~txn ~count:(Mask.count r.Tu.nacked);
  if m.r_retries < t.cfg.max_reqv_retries then begin
    let m' =
      {
        m with
        r_collector = Tu.create ~demand:r.Tu.nacked;
        r_retries = m.r_retries + 1;
      }
    in
    match seed_collector m' r with
    | Some r' ->
      (* A retransmitted response already supplied data for every Nacked
         word: the fresh collector is complete before any retry goes out. *)
      complete_read t ~txn m' r'
    | None -> (
      Stats.incr t.ch.Chassis.stats "reqv_retry";
      free_txn t ~txn;
      let txn' = Mshr.alloc t.ch.Chassis.outstanding (Read m') in
      assert (txn' >= 0);
      request t ~txn:txn' ~kind:Msg.ReqV ~line:m.r_line ~mask:r.Tu.nacked
        ~demand:r.Tu.nacked ();
      Chassis.trace_chain t.ch ~txn ~txn')
  end
  else begin
    (* Convert to ReqO+data to enforce ordering (§III-C case 3). *)
    let m' =
      {
        m with
        r_collector = Tu.create ~demand:r.Tu.nacked;
        r_own_mask = r.Tu.nacked;
      }
    in
    match seed_collector m' r with
    | Some r' -> complete_read t ~txn m' r'
    | None -> (
      Stats.incr t.ch.Chassis.stats "reqv_converted";
      free_txn t ~txn;
      let txn' = Mshr.alloc t.ch.Chassis.outstanding (Read m') in
      assert (txn' >= 0);
      request t ~txn:txn' ~kind:Msg.ReqOdata ~line:m.r_line ~mask:r.Tu.nacked
        ();
      Chassis.trace_chain t.ch ~txn ~txn')
  end

and seed_collector (m : read_miss) (r : Tu.result) =
  if Mask.is_empty r.Tu.data_mask then None
  else
    Tu.absorb m.r_collector
      (Msg.make ~txn:0 ~kind:(Msg.Rsp Msg.RspV) ~line:m.r_line
         ~mask:r.Tu.data_mask
         ~payload:
           (Msg.pooled_pack ~mask:r.Tu.data_mask ~full:r.Tu.values)
         ~src:0 ~dst:0 ())

(* ----- stores --------------------------------------------------------------- *)

let rec store t (addr : Addr.t) ~value ~k =
  let { Addr.line; word } = addr in
  match Cache_frame.find_exn t.frame ~line with
  | l when Mask.mem l.owned word ->
    Stats.bump t.ch.Chassis.stats t.k_store_hit_owned;
    t.policy.Policy.on_store_hit_owned ~line;
    l.data.(word) <- value;
    Engine.schedule t.ch.Chassis.engine ~delay:t.cfg.hit_latency k
  | _ | (exception Not_found) -> (
    match
      Store_buffer.push t.ch.Chassis.sb ~addr ~value
        ~now:(Engine.now t.ch.Chassis.engine)
    with
    | `Coalesced | `New ->
      Stats.bump t.ch.Chassis.stats t.ch.Chassis.k_stores;
      Chassis.arm_drain t.ch ~delay:1;
      Engine.schedule t.ch.Chassis.engine ~delay:t.cfg.hit_latency k
    | `Full -> Chassis.stall_store t.ch (fun () -> store t addr ~value ~k))

(* ----- RMWs ----------------------------------------------------------------- *)

let rec finish_rmw t ~txn (r : rmw_req) ~value =
  let next, old = Amo.apply r.w_amo value in
  free_txn t ~txn;
  if (not r.w_stolen) && r.w_queued = [] then begin
    let l = get_or_alloc t r.w_line in
    l.data.(r.w_word) <- next;
    l.owned <- Mask.add l.owned r.w_word;
    l.valid <- Mask.remove l.valid r.w_word
  end
  else begin
    Stats.incr t.ch.Chassis.stats "rmw_intercepted";
    (* The word was (or is being) taken: serve the delayed externals with
       the post-RMW value, keeping nothing locally. *)
    let l = get_or_alloc t r.w_line in
    l.data.(r.w_word) <- next;
    if not r.w_stolen then l.owned <- Mask.add l.owned r.w_word;
    let queued = r.w_queued in
    r.w_queued <- [];
    List.iter (fun m -> external_req t m) queued
  end;
  r.w_k old;
  drain t

and rmw t (addr : Addr.t) amo ~k =
  let { Addr.line; word } = addr in
  if t.cfg.atomics_at_llc then begin
    Stats.incr t.ch.Chassis.stats "rmw_at_llc";
    (match Cache_frame.find_exn t.frame ~line with
    | l -> l.valid <- Mask.remove l.valid word
    | exception Not_found -> ());
    let txn = Mshr.alloc t.ch.Chassis.outstanding (Atomic { at_k = k }) in
    if txn >= 0 then
      request t ~txn ~kind:Msg.ReqWTdata ~line ~mask:(Mask.singleton word)
        ~amo ()
    else begin
      Stats.incr t.ch.Chassis.stats "mshr_stall";
      Engine.schedule t.ch.Chassis.engine ~delay:4 (fun () -> rmw t addr amo ~k)
    end
  end
  else
    match Cache_frame.find_exn t.frame ~line with
    | l when Mask.mem l.owned word ->
      Stats.incr t.ch.Chassis.stats "rmw_hit_owned";
      let next, old = Amo.apply amo l.data.(word) in
      l.data.(word) <- next;
      Engine.apply_later t.ch.Chassis.engine ~delay:t.cfg.hit_latency k old
    | _ | (exception Not_found) ->
      if
        rmw_pending t ~line ~word
        || own_pending t ~line ~word
        || wb_covering t ~line ~word != no_wb
      then begin
        (* Another context's write to this word is mid-grant, or the word is
           mid-write-back (the LLC would answer a ReqO+data with a data-less
           self-grant); wait and re-enter. *)
        Stats.incr t.ch.Chassis.stats "rmw_serialized";
        Engine.schedule t.ch.Chassis.engine ~delay:3 (fun () ->
            rmw t addr amo ~k)
      end
      else begin
        Stats.incr t.ch.Chassis.stats "rmw_miss";
        let r =
          {
            w_line = line;
            w_word = word;
            w_amo = amo;
            w_collector = Tu.create ~demand:(Mask.singleton word);
            w_stolen = false;
            w_queued = [];
            w_k = k;
          }
        in
        let txn = Mshr.alloc t.ch.Chassis.outstanding (Rmw r) in
        if txn >= 0 then
          request t ~txn ~kind:Msg.ReqOdata ~line ~mask:(Mask.singleton word)
            ()
        else begin
          Stats.incr t.ch.Chassis.stats "mshr_stall";
          Engine.schedule t.ch.Chassis.engine ~delay:4 (fun () ->
              rmw t addr amo ~k)
        end
      end

(* ----- external requests (the device-side of Table IV) ---------------------- *)

and external_req t (msg : Msg.t) =
  let { Msg.line; mask; _ } = msg in
  (* Partition the requested words by where their truth currently lives.
     The write-back record is consulted first: forwards arriving while it
     is alive were serialized before the write-back at the LLC and target
     the old ownership epoch (cf. Mesi_l1.external_req).  Then the frame,
     pending stores, RMWs mid-grant and reads mid-grant, in that order. *)
  let l =
    match Cache_frame.find_exn t.frame ~line with
    | l -> l
    | exception Not_found -> no_line
  in
  let s = scan_mshrs t ~line in
  let in_wb = Mask.inter mask (wb_words t ~line) in
  let rest = Mask.diff mask in_wb in
  let owned_here = Mask.inter rest l.owned in
  let rest = Mask.diff rest owned_here in
  let in_own = Mask.inter rest s.s_own in
  let rest = Mask.diff rest in_own in
  let in_rmw = Mask.inter rest s.s_rmw in
  let rest = Mask.diff rest in_rmw in
  let in_read = Mask.inter rest s.s_read in
  let absent = Mask.diff rest in_read in
  (* Words mid-RMW: data-needing requests wait for the fill; data-less
     downgrades steal immediately. *)
  if not (Mask.is_empty in_rmw) then begin
    if Msg.kind_needs_data msg.Msg.kind then begin
      Stats.incr t.ch.Chassis.stats "ext_delayed";
      Mask.iter in_rmw ~f:(fun w ->
          let r = rmw_exn t ~line ~word:w in
          (* The narrowed copy aliases [msg]'s payload; pin the original so
             recycling cannot hand its array to another message. *)
          Msg.keep msg;
          r.w_queued <- r.w_queued @ [ { msg with Msg.mask = Mask.singleton w } ])
    end
    else
      Mask.iter in_rmw ~f:(fun w ->
          let r = rmw_exn t ~line ~word:w in
          r.w_stolen <- true;
          reply t msg ~kind:Msg.RspO ~dst:msg.Msg.requestor
            ~mask:(Mask.singleton w) ())
  end;
  (* Owned in the frame: the normal case. *)
  if not (Mask.is_empty owned_here) then begin
    if takes_words msg then begin
      t.policy.Policy.on_downgrade ~line;
      l.owned <- Mask.diff l.owned owned_here
    end;
    serve t msg ~words:owned_here ~values:l.data
  end;
  (* Granted-but-uncommitted stores: answer from the pending values. *)
  if not (Mask.is_empty in_own) then serve_own t msg ~line in_own 0;
  (* Pending write-back: respond with the retained data; the LLC treats the
     in-flight ReqWB as the data carrier (§III-C case 2). *)
  if not (Mask.is_empty in_wb) then serve_wb t msg ~line in_wb;
  (* Words mid-grant to a converted or promoted read: the fill is in
     flight from the LLC (the response cannot be Nacked), so re-dispatch
     once it lands and the words are Owned in the frame. *)
  if not (Mask.is_empty in_read) then begin
    Stats.incr t.ch.Chassis.stats "ext_deferred_read";
    (* Snapshot now: by the time the closure fires the original may have
       been recycled and reused for an unrelated message.  The copy still
       aliases the payload, so pin both records. *)
    let deferred =
      {
        msg with
        Msg.mask = in_read;
        Msg.demand = Mask.inter msg.Msg.demand in_read;
      }
    in
    Msg.keep msg;
    Msg.keep deferred;
    Engine.schedule t.ch.Chassis.engine ~delay:3 (fun () ->
        external_req t deferred)
  end;
  (* Words we hold in no form. *)
  if not (Mask.is_empty absent) then begin
    match msg.Msg.kind with
    | Msg.Req Msg.ReqV ->
      (* Ownership moved on before the forwarded ReqV arrived: Nack the
         demanded words so the requestor's TU can retry (§III-C case 3);
         opportunistic words are silently dropped. *)
      let demanded = Mask.inter absent msg.Msg.demand in
      if not (Mask.is_empty demanded) then begin
        Stats.incr t.ch.Chassis.stats "nack_sent";
        reply t msg ~kind:Msg.Nack ~dst:msg.Msg.requestor ~mask:demanded ()
      end
    | Msg.Req Msg.ReqO ->
      reply t msg ~kind:Msg.RspO ~dst:msg.Msg.requestor ~mask:absent ()
    | _ ->
      failwith
        (Format.asprintf "Denovo_l1 %d: data-needing external for absent words %a"
           t.cfg.id Msg.pp msg)
  end

(* ----- synchronization ------------------------------------------------------ *)

(* Flash self-invalidation of Valid words, optionally restricted to one
   software region (paper II-C: "selectively invalidating only potentially
   stale data based on information from software").  Owned words always
   survive. *)
let acquire_matching t ~matches ~k =
  Stats.incr t.ch.Chassis.stats "acquire_flash";
  let empties =
    Cache_frame.fold t.frame ~init:[] ~f:(fun acc ~line l ->
        if matches line then begin
          l.valid <- Mask.empty;
          if Mask.is_empty l.owned then line :: acc else acc
        end
        else acc)
  in
  List.iter (fun line -> Cache_frame.remove t.frame ~line) empties;
  t.epoch <- t.epoch + 1;
  Engine.schedule t.ch.Chassis.engine ~delay:1 k

let acquire t ~k = acquire_matching t ~matches:(fun _ -> true) ~k

let acquire_region t ~region ~k =
  Stats.incr t.ch.Chassis.stats "acquire_region";
  acquire_matching t ~matches:(fun line -> t.cfg.region_of line = region) ~k

let release t ~k = Chassis.release t.ch ~k

(* ----- responses ------------------------------------------------------------ *)

let handle t (msg : Msg.t) =
  match msg.Msg.kind with
  | Msg.Req _ -> external_req t msg
  | Msg.Probe Msg.RvkO -> external_req t msg
  | Msg.Probe Msg.Inv ->
    (* No Shared state: silently acknowledge (§III-C case 3). *)
    send t
      (Msg.make ~txn:msg.Msg.txn ~kind:(Msg.Rsp Msg.Ack) ~line:msg.Msg.line
         ~mask:msg.Msg.mask ~src:t.cfg.id ~dst:msg.Msg.src ())
  | Msg.Rsp _ when Hashtbl.mem t.wb_records msg.Msg.txn ->
    (match msg.Msg.kind with
    | Msg.Rsp Msg.RspWB -> ()
    | _ -> failwith "Denovo_l1: unexpected write-back response");
    let h = (Hashtbl.find t.wb_records msg.Msg.txn).b_line land wb_hash_mask in
    t.wb_lines.(h) <- t.wb_lines.(h) - 1;
    Hashtbl.remove t.wb_records msg.Msg.txn;
    Chassis.retire t.ch ~txn:msg.Msg.txn;
    drain t
  | Msg.Rsp _ -> (
    match Mshr.find_exn t.ch.Chassis.outstanding ~txn:msg.Msg.txn with
    | exception Not_found -> Stats.incr t.ch.Chassis.stats "orphan_rsp"
    | Read m -> (
      match Tu.absorb m.r_collector msg with
      | None -> ()
      | Some r ->
        if Mask.is_empty r.Tu.nacked then complete_read t ~txn:msg.Msg.txn m r
        else handle_read_nacks t ~txn:msg.Msg.txn m r)
    | Own o -> (
      match Tu.absorb o.o_collector msg with
      | None -> ()
      | Some _ ->
        free_txn t ~txn:msg.Msg.txn;
        commit_own t o;
        Store_buffer.release t.ch.Chassis.sb o.o_entry;
        Chassis.check_release t.ch;
        drain t)
    | Rmw r -> (
      match Tu.absorb r.w_collector msg with
      | None -> ()
      | Some res ->
        assert (Mask.is_empty res.Tu.nacked);
        if Mask.mem res.Tu.data_mask r.w_word then
          finish_rmw t ~txn:msg.Msg.txn r ~value:res.Tu.values.(r.w_word)
        else begin
          (* Granted without data: the LLC believed we already owned the
             word. If we do, apply locally; if a racing local transaction
             holds the truth, retry from the top. *)
          match Cache_frame.find_exn t.frame ~line:r.w_line with
          | l when Mask.mem (Mask.union l.valid l.owned) r.w_word ->
            finish_rmw t ~txn:msg.Msg.txn r ~value:l.data.(r.w_word)
          | _ | (exception Not_found) ->
            Stats.incr t.ch.Chassis.stats "rmw_regranted";
            if r.w_queued <> [] then
              failwith "Denovo_l1: data-less RMW grant with queued externals";
            free_txn t ~txn:msg.Msg.txn;
            Engine.schedule t.ch.Chassis.engine ~delay:2 (fun () ->
                rmw t { Addr.line = r.w_line; word = r.w_word } r.w_amo
                  ~k:r.w_k)
        end)
    | Atomic a -> (
      match (msg.Msg.kind, msg.Msg.payload) with
      | Msg.Rsp Msg.RspWTdata, (Msg.Data values | Msg.Data_pooled values) ->
        free_txn t ~txn:msg.Msg.txn;
        a.at_k values.(0);
        Chassis.check_release t.ch;
        drain t
      | _ -> failwith "Denovo_l1: unexpected atomic response")
  )

(* ----- construction --------------------------------------------------------- *)

let quiescent t = Chassis.quiescent t.ch && Hashtbl.length t.wb_records = 0

let describe_pending t =
  let extra =
    Hashtbl.fold
      (fun txn (b : wb_req) acc ->
        (txn, Printf.sprintf "Wb line %d" b.b_line) :: acc)
      t.wb_records []
  in
  Chassis.describe_pending t.ch ~name:"denovo_l1"
    ~describe:(function
      | Read m -> Printf.sprintf "Read line %d" m.r_line
      | Own o -> Printf.sprintf "Own line %d" o.o_line
      | Rmw r -> Printf.sprintf "Rmw line %d.%d" r.w_line r.w_word
      | Atomic _ -> "Atomic")
    ~extra

let register_metrics t ~device reg =
  Chassis.register_metrics t.ch ~device reg

let create engine net cfg =
  let ch =
    Chassis.create engine net ~id:cfg.id ~home_id:cfg.llc_id
      ~home_banks:cfg.llc_banks ~hit_latency:cfg.hit_latency
      ~coalesce_window:cfg.coalesce_window ~mshrs:cfg.mshrs
      ~sb_capacity:cfg.sb_capacity ~level:"l1"
  in
  let scan =
    {
      s_line = -1;
      s_word = -1;
      s_epoch = -1;
      s_mask = Mask.empty;
      s_own = Mask.empty;
      s_rmw = Mask.empty;
      s_read = Mask.empty;
      s_wb = no_wb;
      s_wb_words = Mask.empty;
    }
  in
  let t =
    {
      ch;
      cfg;
      frame = Cache_frame.create ~sets:cfg.sets ~ways:cfg.ways;
      wb_records = Hashtbl.create 16;
      wb_lines = Array.make (wb_hash_mask + 1) 0;
      policy =
        Spandex_policy.make cfg.policy
          ~now:(fun () -> Engine.now engine)
          ~coalesce_window:cfg.coalesce_window;
      k_store_hit_owned = Stats.key ch.Chassis.stats "store_hit_owned";
      k_wt_chosen = Stats.key ch.Chassis.stats "wt_chosen";
      k_reqo_issued = Stats.key ch.Chassis.stats "reqo_issued";
      k_reqo_words = Stats.key ch.Chassis.stats "reqo_words";
      k_wb_issued = Stats.key ch.Chassis.stats "wb_issued";
      scan;
      own_covers = own_covers scan;
      fwd_own_covers = fwd_own_covers scan;
      rmw_covers = rmw_covers scan;
      read_coalesces = read_coalesces scan;
      line_writes = line_writes scan;
      wb_visit = wb_visit scan;
      epoch = 0;
    }
  in
  ch.Chassis.drain <- (fun () -> drain t);
  ch.Chassis.writes_pending <- (fun () -> writes_pending t);
  ch.Chassis.source_line <-
    (function
    | Read m -> m.r_line
    | Own o -> o.o_line
    | Rmw r -> r.w_line
    | Atomic _ -> -1);
  ch.Chassis.source_what <-
    (function
    | Read _ -> "Read miss"
    | Own _ -> "Own request"
    | Rmw _ -> "Rmw request"
    | Atomic _ -> "Atomic at LLC");
  Engine.register_pending_source engine (fun () ->
      Hashtbl.fold
        (fun txn (b : wb_req) acc ->
          {
            Engine.pw_device = Printf.sprintf "denovo_l1.%d" cfg.id;
            pw_txn = txn;
            pw_line = b.b_line;
            pw_what = "write-back awaiting RspWB";
          }
          :: acc)
        t.wb_records []);
  Network.register net ~id:cfg.id (fun msg -> handle t msg);
  t

let port t =
  {
    Port.load = (fun addr ~k -> load t addr ~k);
    store = (fun addr ~value ~k -> store t addr ~value ~k);
    rmw = (fun addr amo ~k -> rmw t addr amo ~k);
    acquire = (fun ~k -> acquire t ~k);
    acquire_region = (fun ~region ~k -> acquire_region t ~region ~k);
    release = (fun ~k -> release t ~k);
    quiescent = (fun () -> quiescent t);
    describe_pending = (fun () -> describe_pending t);
  }

let stats t = t.ch.Chassis.stats

let word_state t (addr : Addr.t) =
  match Cache_frame.find t.frame ~line:addr.Addr.line with
  | None -> State.I
  | Some l ->
    if Mask.mem l.owned addr.Addr.word then State.O
    else if Mask.mem l.valid addr.Addr.word then State.V
    else State.I

let peek_word t (addr : Addr.t) =
  match Cache_frame.find t.frame ~line:addr.Addr.line with
  | Some l when Mask.mem (Mask.union l.valid l.owned) addr.Addr.word ->
    Some l.data.(addr.Addr.word)
  | _ -> None

let count_words t f =
  Cache_frame.fold t.frame ~init:0 ~f:(fun acc ~line:_ l ->
      acc + Mask.count (f l))

let owned_words t = count_words t (fun l -> l.owned)
let valid_words t = count_words t (fun l -> l.valid)

(* ----- model-checker introspection ----------------------------------------- *)

module Fp = Spandex_util.Fingerprint

let fp_collector fp c =
  let r = Tu.peek c in
  Fp.int fp (r.Tu.data_mask :> int);
  Fp.int fp (r.Tu.acked :> int);
  Fp.int fp (r.Tu.nacked :> int);
  Fp.masked_array fp ~mask:r.Tu.data_mask r.Tu.values

let fp_waiters fp ws = Fp.list fp Fp.int (List.sort compare (List.map fst ws))

let fp_amo fp = function
  | Amo.Read -> Fp.int fp 0
  | Amo.Exch v ->
    Fp.int fp 1;
    Fp.int fp v
  | Amo.Add v ->
    Fp.int fp 2;
    Fp.int fp v
  | Amo.Max v ->
    Fp.int fp 3;
    Fp.int fp v
  | Amo.Cas { expected; desired } ->
    Fp.int fp 4;
    Fp.int fp expected;
    Fp.int fp desired

let fingerprint t fp =
  Fp.tag fp "denovo";
  Fp.int fp t.cfg.id;
  Fp.int fp t.epoch;
  let lines =
    Cache_frame.fold t.frame ~init:[] ~f:(fun acc ~line l -> (line, l) :: acc)
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  Fp.int fp (List.length lines);
  List.iter
    (fun (line, l) ->
      Fp.int fp line;
      Fp.int fp (l.valid :> int);
      Fp.int fp (l.owned :> int);
      Fp.masked_array fp ~mask:(Mask.union l.valid l.owned) l.data)
    lines;
  Chassis.fingerprint t.ch fp
    ~key:(function
      | Read m -> (m.r_line * 8) + 0
      | Own o -> (o.o_line * 8) + 1
      | Rmw r -> (r.w_line * 8) + 2
      | Atomic _ -> 3)
    ~payload:(fun fp -> function
      | Read m ->
        Fp.tag fp "R";
        Fp.int fp m.r_line;
        Fp.int fp (m.r_own_mask :> int);
        Fp.int fp m.r_retries;
        Fp.int fp (t.epoch - m.r_epoch);
        fp_waiters fp m.r_waiters;
        fp_collector fp m.r_collector
      | Own o ->
        Fp.tag fp "O";
        Fp.int fp o.o_line;
        Fp.int fp (o.o_mask :> int);
        Fp.masked_array fp ~mask:o.o_mask o.o_entry.Store_buffer.values;
        Fp.int fp (o.o_stolen :> int);
        Fp.bool fp o.o_through;
        fp_collector fp o.o_collector
      | Rmw r ->
        Fp.tag fp "W";
        Fp.int fp r.w_line;
        Fp.int fp r.w_word;
        fp_amo fp r.w_amo;
        Fp.bool fp r.w_stolen;
        Fp.list fp Msg.fingerprint r.w_queued;
        fp_collector fp r.w_collector
      | Atomic _ -> Fp.tag fp "A");
  let wbs =
    Hashtbl.fold (fun txn b acc -> (txn, b) :: acc) t.wb_records []
    |> List.sort (fun (t1, b1) (t2, b2) ->
           match
             compare (b1.b_line, (b1.b_mask :> int))
               (b2.b_line, (b2.b_mask :> int))
           with
           | 0 -> compare t1 t2
           | c -> c)
  in
  Fp.int fp (List.length wbs);
  List.iter
    (fun (txn, (b : wb_req)) ->
      Fp.txn fp txn;
      Fp.int fp b.b_line;
      Fp.int fp (b.b_mask :> int);
      Fp.masked_array fp ~mask:b.b_mask b.b_values)
    wbs

let owned_mask t ~line =
  match Cache_frame.find t.frame ~line with
  | Some l -> l.owned
  | None -> Mask.empty
