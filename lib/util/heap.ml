type 'a t = {
  cmp : 'a -> 'a -> int;
  mutable data : 'a array;  (* slots [0, size) are live *)
  mutable size : int;
}

let create ~cmp () = { cmp; data = [||]; size = 0 }

let length t = t.size

let is_empty t = t.size = 0

(* Both sifts carry [x] down (or up) a hole instead of swapping: one
   write per level, and no allocation. *)
let rec sift_up t i x =
  if i = 0 then t.data.(0) <- x
  else begin
    let parent = (i - 1) / 2 in
    if t.cmp x t.data.(parent) < 0 then begin
      t.data.(i) <- t.data.(parent);
      sift_up t parent x
    end
    else t.data.(i) <- x
  end

let rec sift_down t i x =
  let l = (2 * i) + 1 in
  if l >= t.size then t.data.(i) <- x
  else begin
    let c =
      if l + 1 < t.size && t.cmp t.data.(l + 1) t.data.(l) < 0 then l + 1
      else l
    in
    if t.cmp t.data.(c) x < 0 then begin
      t.data.(i) <- t.data.(c);
      sift_down t c x
    end
    else t.data.(i) <- x
  end

let grow t x =
  let cap = Array.length t.data in
  if t.size >= cap then begin
    let ncap = max 8 (2 * cap) in
    let ndata = Array.make ncap x in
    Array.blit t.data 0 ndata 0 t.size;
    t.data <- ndata
  end

let push t x =
  grow t x;
  t.size <- t.size + 1;
  sift_up t (t.size - 1) x

let of_array ~cmp arr =
  let t = { cmp; data = Array.copy arr; size = Array.length arr } in
  for i = (t.size / 2) - 1 downto 0 do
    sift_down t i t.data.(i)
  done;
  t

let peek t = if t.size = 0 then None else Some t.data.(0)

let pop_exn t =
  if t.size = 0 then invalid_arg "Heap.pop_exn: empty heap";
  let top = t.data.(0) in
  t.size <- t.size - 1;
  if t.size > 0 then sift_down t 0 t.data.(t.size);
  top

let pop t = if t.size = 0 then None else Some (pop_exn t)

let min_exn t =
  if t.size = 0 then invalid_arg "Heap.min_exn: empty heap";
  t.data.(0)

let replace_min t x =
  if t.size = 0 then invalid_arg "Heap.replace_min: empty heap";
  sift_down t 0 x

let to_list_unordered t =
  let acc = ref [] in
  for i = t.size - 1 downto 0 do
    acc := t.data.(i) :: !acc
  done;
  !acc
