(* splitmix64: Steele, Lea & Flood, "Fast splittable pseudorandom number
   generators", OOPSLA 2014.  Small state, passes BigCrush, splittable. *)

type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create seed = { state = mix (Int64.of_int seed) }

let bits64 t =
  t.state <- Int64.add t.state golden;
  mix t.state

let mix64 x = mix (Int64.add x golden)

(* The raw-seed stream: state starts at the seed itself (not mixed),
   so components that seeded the generator with structured values
   ({!Topk_em.Fault}, {!Topk_durable.Disk}) keep their historical,
   bit-identical fault/crash schedules. *)
module Raw = struct
  type nonrec t = t

  let create s = { state = s }

  let reseed t s = t.state <- s

  let next = bits64

  (* Top 53 bits into [0,1) — the divisor form the historical copies
     used; 2^53 is exact in a float, so this equals [*. 0x1.0p-53]. *)
  let uniform t =
    Int64.to_float (Int64.shift_right_logical (next t) 11) /. 9007199254740992.

  (* Uniform-ish int in [0, n] for n >= 0 (modulo bias accepted — the
     historical draw used by torn-tail lengths and bit picks). *)
  let below_incl t n =
    if n <= 0 then 0
    else
      Int64.to_int
        (Int64.rem (Int64.shift_right_logical (next t) 1) (Int64.of_int (n + 1)))
end

let split t = { state = bits64 t }

let copy t = { state = t.state }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be > 0";
  (* Rejection sampling on 62 bits to avoid modulo bias. *)
  let b = Int64.of_int bound in
  let range = Int64.shift_left 1L 62 in
  let limit = Int64.(mul (div range b) b) in
  let rec go () =
    let r = Int64.shift_right_logical (bits64 t) 2 in
    if r >= limit then go () else Int64.to_int (Int64.rem r b)
  in
  go ()

let uniform t =
  (* 53 uniform bits into [0,1). *)
  let r = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float r *. 0x1.0p-53

let float t x = uniform t *. x

let bool t = Int64.logand (bits64 t) 1L = 1L

let bernoulli t p =
  if p <= 0. then false
  else if p >= 1. then true
  else uniform t < p

let exponential t =
  let u = 1.0 -. uniform t in
  -.log u

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

(* Geometric skip-sampling: the gap to the next kept index is
   floor (log u / log (1 - p)) for u uniform in (0, 1], which is
   Geometric(p), so every index is still kept independently with
   probability [p], with one draw per kept element plus one.  The gap
   is compared as a float against what is left of the array, so a huge
   (or NaN) gap from a tiny [p] ends the scan instead of overflowing
   [int_of_float]. *)
let sample t ~p arr =
  if p >= 1. then Array.copy arr
  else if p <= 0. then [||]
  else begin
    let n = Array.length arr in
    let log_q = Float.log1p (-.p) in
    let kept = ref [] in
    let i = ref (-1) in
    let continue = ref true in
    while !continue do
      let gap = Float.log (1. -. uniform t) /. log_q in
      if gap < float_of_int (n - 1 - !i) then begin
        i := !i + 1 + int_of_float gap;
        kept := arr.(!i) :: !kept
      end
      else continue := false
    done;
    Array.of_list (List.rev !kept)
  end
