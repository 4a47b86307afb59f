(* Growable arrays used throughout the simulator (OCaml 5.1 has no
   Stdlib.Dynarray yet). Two flavours: a monomorphic int vector, used on hot
   paths (limbo bags, free lists) to avoid boxing, and a polymorphic
   vector. A new vector holds the shared empty array and allocates storage
   on its first push (8 slots, doubling after), so one that is never pushed
   costs only its 3-word record: an n192 trial creates tens of thousands of
   per-thread, per-size-class vectors and touches few of them. *)

type t = { mutable data : int array; mutable len : int }

let create () = { data = [||]; len = 0 }

let[@inline] length v = v.len
let[@inline] is_empty v = v.len = 0

let clear v = v.len <- 0

let ensure v n =
  if n > Array.length v.data then begin
    let cap = ref (Int.max 8 (Array.length v.data)) in
    while !cap < n do
      cap := !cap * 2
    done;
    let data = Array.make !cap 0 in
    Array.blit v.data 0 data 0 v.len;
    v.data <- data
  end

let push v x =
  ensure v (v.len + 1);
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let pop v =
  if v.len = 0 then invalid_arg "Vec.pop: empty";
  v.len <- v.len - 1;
  v.data.(v.len)

let get v i =
  if i < 0 || i >= v.len then invalid_arg "Vec.get: out of bounds";
  v.data.(i)

let set v i x =
  if i < 0 || i >= v.len then invalid_arg "Vec.set: out of bounds";
  v.data.(i) <- x

(* Unsafe accessors for hot loops; bounds are the caller's invariant. *)
let unsafe_get v i = Array.unsafe_get v.data i
let unsafe_set v i x = Array.unsafe_set v.data i x

let iter f v =
  for i = 0 to v.len - 1 do
    f (Array.unsafe_get v.data i)
  done

let fold f init v =
  let acc = ref init in
  for i = 0 to v.len - 1 do
    acc := f !acc (Array.unsafe_get v.data i)
  done;
  !acc

let append dst src =
  ensure dst (dst.len + src.len);
  Array.blit src.data 0 dst.data dst.len src.len;
  dst.len <- dst.len + src.len

let to_list v = List.init v.len (fun i -> v.data.(i))

let of_list l =
  let v = create () in
  List.iter (push v) l;
  v

(* Remove and return the last [n] elements (or fewer if shorter), in the
   order they were pushed. Used by allocator flushes that evict a fraction
   of a cache. *)
let take_last v n =
  let n = Int.min n v.len in
  let out = Array.sub v.data (v.len - n) n in
  v.len <- v.len - n;
  out

(* Remove and return the first [n] elements (or fewer), oldest first. Used
   by allocator flushes that evict the least recently freed objects. *)
let take_front v n =
  let n = Int.min n v.len in
  let out = Array.sub v.data 0 n in
  Array.blit v.data n v.data 0 (v.len - n);
  v.len <- v.len - n;
  out

(* Drop the first [n] elements (or fewer) in place: the allocation-free
   sibling of [take_front] for callers that have already consumed the
   prefix via [get]/[unsafe_get]. *)
let drop_front v n =
  let n = Int.min n v.len in
  Array.blit v.data n v.data 0 (v.len - n);
  v.len <- v.len - n

module Poly = struct
  type 'a t = { mutable data : 'a array; mutable len : int; dummy : 'a }

  let create ~dummy () = { data = [||]; len = 0; dummy }

  let length v = v.len
  let is_empty v = v.len = 0

  let clear v =
    (* Drop references so the OCaml GC can reclaim elements. *)
    Array.fill v.data 0 v.len v.dummy;
    v.len <- 0

  let ensure v n =
    if n > Array.length v.data then begin
      let cap = ref (Int.max 8 (Array.length v.data)) in
      while !cap < n do
        cap := !cap * 2
      done;
      let data = Array.make !cap v.dummy in
      Array.blit v.data 0 data 0 v.len;
      v.data <- data
    end

  let push v x =
    ensure v (v.len + 1);
    v.data.(v.len) <- x;
    v.len <- v.len + 1

  let pop v =
    if v.len = 0 then invalid_arg "Vec.Poly.pop: empty";
    v.len <- v.len - 1;
    let x = v.data.(v.len) in
    v.data.(v.len) <- v.dummy;
    x

  let get v i =
    if i < 0 || i >= v.len then invalid_arg "Vec.Poly.get: out of bounds";
    v.data.(i)

  let set v i x =
    if i < 0 || i >= v.len then invalid_arg "Vec.Poly.set: out of bounds";
    v.data.(i) <- x

  let iter f v =
    for i = 0 to v.len - 1 do
      f (Array.unsafe_get v.data i)
    done

  let to_list v = List.init v.len (fun i -> v.data.(i))
end
