(* Registry of simulated heap objects.

   A heap object is an integer handle. The table records, per handle, its
   size class, its *home* (an allocator-specific integer: the owner arena
   bin for JEmalloc, the central list for TCmalloc, the page for MImalloc)
   and whether it is currently live (allocated to the application), packed
   into one int: [home lsl 5 lor size_class lsl 1 lor live] (16 classes fit
   in bits 1-4).

   The live bit gives the test suite a machine-checkable definition of the
   memory-safety property SMR is supposed to provide: freeing a dead handle
   or reading a dead handle's key is detected immediately instead of being a
   latent segfault. *)

type t = {
  objs : Simcore.Vec.t;  (* per handle, packed as above *)
  mutable live_count : int;
  mutable live_bytes : int;
  mutable peak_live_bytes : int;
  mutable mapped_bytes : int;  (* memory ever obtained from the (virtual) OS *)
}

let create () =
  let objs = Simcore.Vec.create () in
  { objs; live_count = 0; live_bytes = 0; peak_live_bytes = 0; mapped_bytes = 0 }

let count t = Simcore.Vec.length t.objs
let live_count t = t.live_count
let live_bytes t = t.live_bytes
let peak_live_bytes t = t.peak_live_bytes
let mapped_bytes t = t.mapped_bytes

(* Create a fresh object (new memory mapped from the OS). It starts dead;
   the allocator marks it live when handing it to the application. *)
let fresh t ~size_class ~home =
  t.mapped_bytes <- t.mapped_bytes + Size_class.bytes size_class;
  Simcore.Vec.push t.objs ((home lsl 5) lor (size_class lsl 1));
  count t - 1

let[@inline] class_of w = (w lsr 1) land 15
let size_class t h = class_of (Simcore.Vec.get t.objs h)
let home t h = Simcore.Vec.get t.objs h asr 5

let is_live t h = h >= 0 && h < count t && Simcore.Vec.unsafe_get t.objs h land 1 = 1

let mark_live t h =
  if is_live t h then invalid_arg (Printf.sprintf "Obj_table: double allocation of #%d" h);
  let w = Simcore.Vec.get t.objs h in
  Simcore.Vec.unsafe_set t.objs h (w lor 1);
  t.live_count <- t.live_count + 1;
  t.live_bytes <- t.live_bytes + Size_class.bytes (class_of w);
  if t.live_bytes > t.peak_live_bytes then t.peak_live_bytes <- t.live_bytes

let mark_dead t h =
  if not (is_live t h) then
    invalid_arg (Printf.sprintf "Obj_table: double free / free of dead object #%d" h);
  let w = Simcore.Vec.unsafe_get t.objs h in
  Simcore.Vec.unsafe_set t.objs h (w lxor 1);
  t.live_count <- t.live_count - 1;
  t.live_bytes <- t.live_bytes - Size_class.bytes (class_of w)
