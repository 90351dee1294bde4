(* Flat slot arrays (layout in the .mli): a lookup scans at most [ways]
   ints and insert/touch/remove touch no heap.  [metas] is created on the
   first insert because ['a] has no default.  The scans are top-level
   recursive functions: a local [let rec] capturing [t] or [line] would
   allocate a closure per call. *)
type 'a t = {
  sets : int;
  ways : int;
  tags : int array;
  mutable metas : 'a array;
  last_use : int array;
  mutable count : int;
  mutable tick : int;
}

let create ~sets ~ways =
  assert (sets > 0 && ways > 0);
  {
    sets;
    ways;
    tags = Array.make (sets * ways) (-1);
    metas = [||];
    last_use = Array.make (sets * ways) 0;
    count = 0;
    tick = 0;
  }

let size_lines ~bytes ~ways =
  let lines = bytes / Spandex_proto.Addr.line_bytes in
  assert (lines mod ways = 0);
  (lines / ways, ways)

(* First slot in [i, stop) holding [tag], or -1.  With [tag = -1] this
   finds a free way. *)
let rec scan tags tag i stop =
  if i = stop then -1
  else if tags.(i) = tag then i
  else scan tags tag (i + 1) stop

let base t line = (line mod t.sets) * t.ways

let slot t line =
  let base = base t line in
  scan t.tags line base (base + t.ways)

let find t ~line =
  let i = slot t line in
  if i < 0 then None else Some t.metas.(i)

let find_exn t ~line =
  let i = slot t line in
  if i < 0 then raise Not_found else t.metas.(i)

let mem t ~line = slot t line >= 0

let use t i =
  t.tick <- t.tick + 1;
  t.last_use.(i) <- t.tick

let touch t ~line =
  let i = slot t line in
  if i >= 0 then use t i

let remove t ~line =
  let i = slot t line in
  if i >= 0 then begin
    t.tags.(i) <- -1;
    t.count <- t.count - 1
  end

type 'a insert_result = Inserted | Evicted of int * 'a | No_room

(* Least-recently-used occupied slot in [i, stop) whose line satisfies
   [f], or [best] (-1 for none).  Ticks are unique, so the result does not
   depend on scan order. *)
let rec lru_scan t f i stop best =
  if i = stop then best
  else
    let line = t.tags.(i) in
    let best =
      if
        line >= 0
        && (best < 0 || t.last_use.(i) < t.last_use.(best))
        && f ~line t.metas.(i)
      then i
      else best
    in
    lru_scan t f (i + 1) stop best

let fill t i ~line meta =
  t.tags.(i) <- line;
  t.metas.(i) <- meta;
  use t i

let insert t ~line meta ~can_evict =
  assert (line >= 0 && not (mem t ~line));
  if Array.length t.metas = 0 then t.metas <- Array.make (t.sets * t.ways) meta;
  let base = base t line in
  let stop = base + t.ways in
  let free = scan t.tags (-1) base stop in
  if free >= 0 then begin
    fill t free ~line meta;
    t.count <- t.count + 1;
    Inserted
  end
  else
    let v = lru_scan t can_evict base stop (-1) in
    if v < 0 then No_room
    else begin
      let vline = t.tags.(v) and vmeta = t.metas.(v) in
      fill t v ~line meta;
      Evicted (vline, vmeta)
    end

let lru_matching t ~set_line ~f =
  let base = base t set_line in
  let i = lru_scan t f base (base + t.ways) (-1) in
  if i < 0 then None else Some (t.tags.(i), t.metas.(i))

let rec iter_from t f i =
  if i < Array.length t.tags then begin
    let line = t.tags.(i) in
    if line >= 0 then f ~line t.metas.(i);
    iter_from t f (i + 1)
  end

let rec fold_from t f i acc =
  if i = Array.length t.tags then acc
  else
    let line = t.tags.(i) in
    fold_from t f (i + 1) (if line >= 0 then f acc ~line t.metas.(i) else acc)

let iter t ~f = iter_from t f 0
let fold t ~init ~f = fold_from t f 0 init
let count t = t.count
let capacity t = t.sets * t.ways
