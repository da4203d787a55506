let sub_buckets = 8
let n_buckets = 512
let origin = 256 (* bucket index of value 1.0: the range is 2^-32 .. 2^32 *)

type t = {
  mutable count : int;
  mutable sum : float;
  mutable min : float;
  mutable max : float;
  mutable buckets : int array;
}

let create () =
  { count = 0; sum = 0.0; min = Float.infinity; max = Float.neg_infinity; buckets = [||] }

let bucket_of v =
  if v <= 0.0 then 0
  else begin
    let i = origin + int_of_float (Float.floor (Float.log2 v *. float_of_int sub_buckets)) in
    if i < 0 then 0 else if i >= n_buckets then n_buckets - 1 else i
  end

let bucket_mid i =
  Float.pow 2.0 ((float_of_int (i - origin) +. 0.5) /. float_of_int sub_buckets)

let ensure_buckets t =
  if Array.length t.buckets = 0 then t.buckets <- Array.make n_buckets 0

let record t v =
  t.count <- t.count + 1;
  t.sum <- t.sum +. v;
  if v < t.min then t.min <- v;
  if v > t.max then t.max <- v;
  ensure_buckets t;
  let i = bucket_of v in
  t.buckets.(i) <- t.buckets.(i) + 1

let merge_into ~into src =
  into.count <- into.count + src.count;
  into.sum <- into.sum +. src.sum;
  if src.min < into.min then into.min <- src.min;
  if src.max > into.max then into.max <- src.max;
  if Array.length src.buckets > 0 then begin
    ensure_buckets into;
    Array.iteri (fun i n -> into.buckets.(i) <- into.buckets.(i) + n) src.buckets
  end

let clear t =
  t.count <- 0;
  t.sum <- 0.0;
  t.min <- Float.infinity;
  t.max <- Float.neg_infinity;
  Array.fill t.buckets 0 (Array.length t.buckets) 0

let quantile t q =
  if t.count = 0 then 0.0
  else if q <= 0.0 then t.min
  else if q >= 1.0 then t.max
  else begin
    let target = Float.max 1.0 (Float.ceil (q *. float_of_int t.count)) in
    let n = Array.length t.buckets in
    let cum = ref 0 in
    let i = ref 0 in
    while !i < n - 1 && float_of_int (!cum + t.buckets.(!i)) < target do
      cum := !cum + t.buckets.(!i);
      incr i
    done;
    Float.min t.max (Float.max t.min (bucket_mid !i))
  end
