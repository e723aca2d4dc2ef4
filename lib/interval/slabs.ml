module Stats = Topk_em.Stats

type t = { coords : float array }

(* [Float.compare x y < 0] on unboxed floats: NaN sorts first. *)
let[@inline] lt (x : float) y = x < y || (x <> x && y = y)

(* Stable merge sort of a float array, monomorphic so no element is
   boxed: runs of [cutoff] are insertion-sorted in place, then merged
   bottom-up between [a] and one spare buffer. *)
let sort_floats a =
  let n = Array.length a in
  let cutoff = 16 in
  let lo = ref 0 in
  while !lo < n do
    let hi = min n (!lo + cutoff) in
    for i = !lo + 1 to hi - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= !lo && lt x a.(!j) do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done;
    lo := hi
  done;
  if n > cutoff then begin
    let src = ref a and dst = ref (Array.make n 0.) in
    let width = ref cutoff in
    while !width < n do
      let s = !src and d = !dst in
      let lo = ref 0 in
      while !lo < n do
        let mid = min n (!lo + !width) in
        let hi = min n (mid + !width) in
        let i = ref !lo and j = ref mid in
        for k = !lo to hi - 1 do
          if !i < mid && (!j >= hi || not (lt s.(!j) s.(!i))) then begin
            d.(k) <- s.(!i);
            incr i
          end
          else begin
            d.(k) <- s.(!j);
            incr j
          end
        done;
        lo := hi
      done;
      src := d;
      dst := s;
      width := 2 * !width
    done;
    if !src != a then Array.blit !src 0 a 0 n
  end

let of_endpoints raw =
  let sorted = Array.copy raw in
  sort_floats sorted;
  let m = Array.length sorted in
  if m = 0 then { coords = [||] }
  else begin
    let distinct = ref 1 in
    for i = 1 to m - 1 do
      if sorted.(i) <> sorted.(!distinct - 1) then begin
        sorted.(!distinct) <- sorted.(i);
        incr distinct
      end
    done;
    { coords = Array.sub sorted 0 !distinct }
  end

let slab_count t = (2 * Array.length t.coords) + 1

let coord_count t = Array.length t.coords

(* First index whose coordinate is not below [x]. *)
let lower_bound coords (x : float) =
  let lo = ref 0 and hi = ref (Array.length coords) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if lt coords.(mid) x then lo := mid + 1 else hi := mid
  done;
  !lo

let slab_of_point t q =
  let m = Array.length t.coords in
  (* One I/O per probed node of the (implicit) search tree. *)
  Stats.charge_ios (max 1 (int_of_float (Float.log2 (float_of_int (m + 2)))));
  let i = lower_bound t.coords q in
  if i < m && t.coords.(i) = q then (2 * i) + 1 else 2 * i

let slab_of_coord t x =
  let m = Array.length t.coords in
  let i = lower_bound t.coords x in
  if i < m && t.coords.(i) = x then (2 * i) + 1
  else invalid_arg "Slabs.slab_of_coord: not a coordinate"

let space_words t = Array.length t.coords

let leaves t =
  let target = slab_count t in
  let k = ref 1 in
  while !k < target do k := 2 * !k done;
  !k

let iter_canonical ~leaves l r f =
  let rec go node node_lo node_hi =
    if l <= node_lo && r >= node_hi - 1 then f node
    else begin
      let mid = (node_lo + node_hi) / 2 in
      if l < mid then go (2 * node) node_lo mid;
      if r >= mid then go ((2 * node) + 1) mid node_hi
    end
  in
  go 1 0 leaves
