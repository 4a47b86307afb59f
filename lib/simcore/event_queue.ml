(* A façade over the two event-queue implementations, for tests and
   micro-benchmarks that run the same key stream through both:

   - [Heap]: the binary min-heap — no preconditions, O(log n) per
     operation, the reference implementation.
   - [Wheel]: the hierarchical timing wheel — O(1) for the short regular
     horizons this simulator generates, but requires the scheduler's
     monotone-pop-key discipline. [Sched] dispatches from a [Wheel.t]
     directly; it does not go through this module. *)

type kind = Heap | Wheel

let to_string = function Heap -> "heap" | Wheel -> "wheel"

(* The queue [Sched] runs on. *)
let default_kind () = Wheel

type 'a t = H of 'a Heap.t | W of 'a Wheel.t

let create ~kind ~dummy =
  match kind with
  | Heap ->
      let h = Heap.create ~dummy in
      (* Keys are scheduler clocks, monotone by construction, so a
         regression is a bug to fail loudly on (the wheel always checks). *)
      Heap.enable_monotone_check h;
      H h
  | Wheel -> W (Wheel.create ~dummy ())

let[@inline] push t ~key ~seq x =
  match t with H h -> Heap.push h ~key ~seq x | W w -> Wheel.push w ~key ~seq x

let[@inline] pop_le_default t ~bound =
  match t with H h -> Heap.pop_le_default h ~bound | W w -> Wheel.pop_le_default w ~bound
