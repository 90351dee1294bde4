(** Miss status holding registers.

    A capacity-limited table of outstanding transactions, generic over the
    per-miss bookkeeping each protocol needs.  Entries are keyed by the
    transaction id of the request they track. *)

type 'a t

val create : ?fresh_txn:(unit -> int) -> capacity:int -> unit -> 'a t
(** [fresh_txn] (default {!Spandex_proto.Txn.fresh}) supplies transaction
    ids for {!alloc}; devices pass a per-device {!Spandex_proto.Txn.next}
    so ids stay interleave-independent under the PDES backend. *)

val alloc : 'a t -> 'a -> int
(** Allocate an entry under a fresh transaction id and return the id, or
    return [-1] (allocating nothing, drawing no id) if the table is full.
    Transaction ids are never negative, so callers test [txn < 0]; the
    plain [int] keeps the per-miss path free of a [Some] box. *)

val find : 'a t -> txn:int -> 'a option

val find_exn : 'a t -> txn:int -> 'a
(** Allocation-free {!find}; raises [Not_found] when absent.  For hot
    paths — pair with a [match ... with exception Not_found] handler. *)

val free : 'a t -> txn:int -> unit
val is_full : 'a t -> bool
val count : 'a t -> int
val capacity : 'a t -> int

val find_first : 'a t -> f:('a -> bool) -> (int * 'a) option
(** Entry with the smallest transaction id satisfying [f] — i.e. the oldest
    matching miss. *)

val find_first_exn : 'a t -> f:('a -> bool) -> 'a
(** Allocation-free {!find_first} when the txn id is not needed; raises
    [Not_found] when no entry matches. *)

val find_last_exn : 'a t -> f:('a -> bool) -> 'a
(** Entry with the largest transaction id satisfying [f] — the newest
    matching miss; raises [Not_found] when no entry matches. *)

val exists : 'a t -> f:('a -> bool) -> bool
(** Allocation-free [find_first ... <> None].  Unlike {!find_first} the
    scan may stop at the first match in slot order, so [f] must be pure. *)

val iter : 'a t -> f:(txn:int -> 'a -> unit) -> unit

val fold : 'a t -> init:'b -> f:('b -> 'a -> 'b) -> 'b
(** Fold over the live entries in slot order (not txn order), so [f] must
    not depend on the order.  Allocation-free when [f] is a top-level
    function. *)
