(** Word bitmasks.

    A mask selects a subset of the words of a cache line (bit [i] set means
    word [i] is included).  Masks are plain ints; all Spandex multi-word
    requests carry one (paper §III-A). *)

type t = int

val empty : t
val is_empty : t -> bool

val full : words:int -> t
(** Mask selecting every word of a [words]-word line. *)

val singleton : int -> t
(** Mask selecting exactly word [i]. *)

val mem : t -> int -> bool
val add : t -> int -> t
val remove : t -> int -> t
val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
(** [diff a b] is the words in [a] but not [b]. *)

val subset : t -> t -> bool
(** [subset a b] is true when every word of [a] is in [b]. *)

val lowest : t -> int
(** Index of the lowest set word; raises [Not_found] on the empty mask.
    Allocation-free. *)

val count : t -> int
(** Population count. *)

val iter : t -> f:(int -> unit) -> unit
(** Visit set word indices in increasing order.  Allocation-free: only
    [f] itself can allocate. *)

val fold : t -> init:'a -> f:('a -> int -> 'a) -> 'a
(** Fold over set word indices in increasing order.  Allocation-free, like
    {!iter}. *)

val to_list : t -> int list
val of_list : int list -> t
val equal : t -> t -> bool
val pp : words:int -> Format.formatter -> t -> unit
