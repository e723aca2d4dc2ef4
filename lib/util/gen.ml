type weight_dist =
  | Uniform_weights
  | Correlated of float

let distinct_weights rng n =
  (* A random permutation of 1..n plus jitter < 1/2 keeps weights
     pairwise distinct without any retry loop. *)
  let ranks = Array.init n (fun i -> i + 1) in
  Rng.shuffle rng ranks;
  Array.map (fun r -> float_of_int r +. Rng.float rng 0.25) ranks

let mix_weights rng dist ~coords =
  let n = Array.length coords in
  match dist with
  | Uniform_weights -> distinct_weights rng n
  | Correlated strength ->
      let s = max 0. (min 1. strength) in
      (* Score each element, then convert scores to distinct ranks. *)
      let scored =
        Array.mapi
          (fun i c -> (((s *. c) +. ((1. -. s) *. Rng.uniform rng)), i))
          coords
      in
      Array.sort compare scored;
      let weights = Array.make n 0. in
      Array.iteri
        (fun rank (_, i) ->
          weights.(i) <- float_of_int (rank + 1) +. Rng.float rng 0.25)
        scored;
      weights

type interval_shape =
  | Short_intervals
  | Mixed_intervals
  | Nested_intervals

let clamp01 x = max 0. (min 1. x)

let power_law_length rng ~lo ~hi =
  (* Pareto-ish: many short, a few long. *)
  let u = Rng.uniform rng in
  lo *. ((hi /. lo) ** (u *. u))

let intervals rng ~shape ~n =
  match shape with
  | Short_intervals ->
      Array.init n (fun _ ->
          let len = Rng.float rng (2. /. float_of_int (max 2 n)) in
          let lo = Rng.float rng (1. -. len) in
          (lo, lo +. len))
  | Mixed_intervals ->
      Array.init n (fun _ ->
          let len = power_law_length rng ~lo:(0.5 /. float_of_int (max 2 n)) ~hi:0.5 in
          let lo = Rng.float rng (max 1e-9 (1. -. len)) in
          (lo, clamp01 (lo +. len)))
  | Nested_intervals ->
      Array.init n (fun i ->
          let r = (float_of_int (i + 1) /. float_of_int (n + 1)) /. 2. in
          let jitter = Rng.float rng (0.1 /. float_of_int (n + 1)) in
          (0.5 -. r -. jitter, 0.5 +. r +. jitter))

let rectangles rng ~n =
  Array.init n (fun _ ->
      let w = power_law_length rng ~lo:0.002 ~hi:0.6 in
      let h = power_law_length rng ~lo:0.002 ~hi:0.6 in
      let x1 = Rng.float rng (max 1e-9 (1. -. w)) in
      let y1 = Rng.float rng (max 1e-9 (1. -. h)) in
      (x1, clamp01 (x1 +. w), y1, clamp01 (y1 +. h)))

let points rng ~n ~d =
  Array.init n (fun _ -> Array.init d (fun _ -> Rng.uniform rng))

let stab_queries rng ~n = Array.init n (fun _ -> Rng.uniform rng)

let halfplanes rng ~n =
  Array.init n (fun _ ->
      let theta = Rng.float rng (2. *. Float.pi) in
      let a = cos theta and b = sin theta in
      (* Offset chosen so that the boundary passes near the square. *)
      let px = Rng.uniform rng and py = Rng.uniform rng in
      let c = (a *. px) +. (b *. py) in
      (a, b, c))

let balls rng ~n ~d =
  Array.init n (fun _ ->
      let center = Array.init d (fun _ -> Rng.uniform rng) in
      let r = power_law_length rng ~lo:0.01 ~hi:0.5 in
      (center, r))

let zipf ~distinct ~theta =
  let cum = Array.make distinct 0.0 in
  let acc = ref 0.0 in
  for r = 0 to distinct - 1 do
    acc := !acc +. (1.0 /. Float.pow (float_of_int (r + 1)) theta);
    cum.(r) <- !acc
  done;
  fun rng ->
    let u = Rng.uniform rng *. cum.(distinct - 1) in
    let i = ref 0 in
    while !i < distinct - 1 && cum.(!i) < u do
      incr i
    done;
    !i
