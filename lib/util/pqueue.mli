(** Binary-heap priority queue keyed by [(time, sequence)].

    The timing wheel's overflow tier, and the reference its property tests
    compare against.  Both need stable FIFO ordering among events scheduled
    for the same cycle, so each push records a monotonically increasing
    sequence number and ties are broken by it.

    The heap array holds boxed entries and uses the first pushed entry as
    its fill element for freed slots (no [Obj.magic] dummy), so at most one
    popped value is retained per queue lifetime. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** [capacity] pre-sizes the heap array (default 16); it grows by doubling
    regardless. *)

val is_empty : 'a t -> bool
val length : 'a t -> int

val push : 'a t -> time:int -> 'a -> unit
(** Insert with key [time]; FIFO among equal times. *)

val pop : 'a t -> (int * 'a) option
(** Remove and return the minimum-time element, or [None] when empty. *)

val min_time : 'a t -> int
(** Time of the minimum element.  O(1), no allocation.
    @raise Invalid_argument when empty. *)

val pop_min : 'a t -> 'a
(** Remove and return the minimum-time element's value.  Unlike {!pop}
    this allocates nothing; pair with {!min_time} in event loops.
    @raise Invalid_argument when empty. *)

val clear : 'a t -> unit
