type t = int

let empty = 0
let is_empty m = m = 0

let full ~words =
  assert (words >= 1 && words < Sys.int_size);
  (1 lsl words) - 1

let singleton i = 1 lsl i
let mem m i = m land (1 lsl i) <> 0
let add m i = m lor (1 lsl i)
let remove m i = m land lnot (1 lsl i)
let union a b = a lor b
let inter a b = a land b
let diff a b = a land lnot b
let subset a b = a land lnot b = 0

let lowest m =
  if m = 0 then raise Not_found;
  let rec go i m = if m land 1 <> 0 then i else go (i + 1) (m lsr 1) in
  go 0 m

let count m =
  let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
  go m 0

(* [iter] and [fold] are top-level loops taking [f] as an argument: a local
   [let rec] closing over [f], or a [ref] accumulator, would allocate on
   every call, and these run in every protocol handler. *)
let rec iter_from f i m =
  if m <> 0 then begin
    if m land 1 <> 0 then f i;
    iter_from f (i + 1) (m lsr 1)
  end

let rec fold_from f i m acc =
  if m = 0 then acc
  else fold_from f (i + 1) (m lsr 1) (if m land 1 <> 0 then f acc i else acc)

let iter m ~f = iter_from f 0 m
let fold m ~init ~f = fold_from f 0 m init

let to_list m = List.rev (fold m ~init:[] ~f:(fun acc i -> i :: acc))
let of_list l = List.fold_left add empty l
let equal = Int.equal

let pp ~words fmt m =
  for i = words - 1 downto 0 do
    Format.pp_print_char fmt (if mem m i then '1' else '0')
  done
