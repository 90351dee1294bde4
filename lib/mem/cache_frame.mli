(** Set-associative tag array with LRU replacement, generic over the
    per-line metadata a protocol attaches.

    Allocation is always at line granularity (paper §III-B); protocols that
    track word-granularity state keep it inside their metadata.

    Layout: three flat arrays of [sets * ways] slots — line tags ([-1] for
    an empty slot), metadata (created on the first insert) and last-use
    ticks.  Set [s] owns slots [\[s * ways, (s + 1) * ways)], and a line
    maps to set [line mod sets].  Lookups scan the set's ways; {!find_exn},
    {!mem}, {!touch}, {!remove} and an insert into a free way allocate
    nothing, and an evicting insert allocates only its [Evicted] box.

    A removed line's metadata stays reachable from its slot until the slot
    is reused, so a frame pins at most [sets * ways] metadata values. *)

type 'a t

val create : sets:int -> ways:int -> 'a t

val size_lines : bytes:int -> ways:int -> int * int
(** [size_lines ~bytes ~ways] is [(sets, ways)] for a cache of [bytes]
    capacity with 64-byte lines. *)

val find : 'a t -> line:int -> 'a option
(** Lookup without touching LRU state. *)

val find_exn : 'a t -> line:int -> 'a
(** Allocation-free {!find}; raises [Not_found] when absent.  For hot
    paths — pair with a [match ... with exception Not_found] handler. *)

val mem : 'a t -> line:int -> bool

val touch : 'a t -> line:int -> unit
(** Mark [line] most recently used. *)

val remove : 'a t -> line:int -> unit

type 'a insert_result =
  | Inserted
  | Evicted of int * 'a  (** victim line and its metadata; already removed. *)
  | No_room  (** every way of the set is pinned; caller must retry later. *)

val insert :
  'a t -> line:int -> 'a -> can_evict:(line:int -> 'a -> bool) -> 'a insert_result
(** Insert [line] (which must be non-negative and not present).  If the set
    is full, the least recently used line satisfying [can_evict] is
    evicted. *)

val lru_matching :
  'a t -> set_line:int -> f:(line:int -> 'a -> bool) -> (int * 'a) option
(** Least-recently-used line in the set [set_line] maps to that satisfies
    [f]; used to pick purge victims deterministically. *)

val iter : 'a t -> f:(line:int -> 'a -> unit) -> unit
(** Visit every resident line in slot order.  That order is an artefact
    of the layout; callers must not rely on it. *)

val fold : 'a t -> init:'b -> f:('b -> line:int -> 'a -> 'b) -> 'b
(** Fold over every resident line, in the same unspecified order as
    {!iter}. *)

val count : 'a t -> int
val capacity : 'a t -> int
