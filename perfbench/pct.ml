let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Nearest rank: the [ceil (p n / 100)]-th smallest sample.  [p *. n]
   is exact for the integer-valued [p] used here, so the rank never
   suffers the [0.99 *. 100. = 98.999...] rounding. *)
let rank ~p n =
  if n = 0 then invalid_arg "Pct: no samples";
  if p <= 0. || p > 100. then invalid_arg "Pct: p must be in (0, 100]";
  let r = int_of_float (Float.ceil (p *. float_of_int n /. 100.)) in
  max 1 (min n r)

let of_sorted a ~p = a.(rank ~p (Array.length a) - 1)

let percentile xs ~p = of_sorted (sorted xs) ~p

let median xs = percentile xs ~p:50.
