(* Registry of simulated heap objects.

   A heap object is an integer handle. The table records, per handle, its
   size class, its *home* (an allocator-specific integer: the owner arena
   bin for JEmalloc, the central list for TCmalloc, the page for MImalloc)
   and whether it is currently live (allocated to the application).

   The live bit gives the test suite a machine-checkable definition of the
   memory-safety property SMR is supposed to provide: freeing a dead handle
   or reading a dead handle's key is detected immediately instead of being a
   latent segfault. *)

type t = {
  size_class : Simcore.Vec.t;
  home : Simcore.Vec.t;
  live : Bytes.t ref;  (* one byte per handle: 1 = live *)
  mutable n : int;
  mutable live_count : int;
  mutable live_bytes : int;
  mutable peak_live_bytes : int;
  mutable mapped_bytes : int;  (* memory ever obtained from the (virtual) OS *)
}

let create () =
  {
    size_class = Simcore.Vec.create ~capacity:1024 ();
    home = Simcore.Vec.create ~capacity:1024 ();
    live = ref (Bytes.make 1024 '\000');
    n = 0;
    live_count = 0;
    live_bytes = 0;
    peak_live_bytes = 0;
    mapped_bytes = 0;
  }

let count t = t.n
let live_count t = t.live_count
let live_bytes t = t.live_bytes
let peak_live_bytes t = t.peak_live_bytes
let mapped_bytes t = t.mapped_bytes

let ensure_live t n =
  if n > Bytes.length !(t.live) then begin
    let cap = ref (Bytes.length !(t.live)) in
    while !cap < n do
      cap := !cap * 2
    done;
    let b = Bytes.make !cap '\000' in
    Bytes.blit !(t.live) 0 b 0 t.n;
    t.live := b
  end

(* Create a fresh object (new memory mapped from the OS). It starts dead;
   the allocator marks it live when handing it to the application. *)
let fresh t ~size_class ~home =
  let h = t.n in
  Simcore.Vec.push t.size_class size_class;
  Simcore.Vec.push t.home home;
  ensure_live t (t.n + 1);
  t.n <- t.n + 1;
  t.mapped_bytes <- t.mapped_bytes + Size_class.bytes size_class;
  h

let size_class t h = Simcore.Vec.get t.size_class h
let home t h = Simcore.Vec.get t.home h

let is_live t h = h >= 0 && h < t.n && Bytes.get !(t.live) h = '\001'

let mark_live t h =
  if is_live t h then invalid_arg (Printf.sprintf "Obj_table: double allocation of #%d" h);
  Bytes.set !(t.live) h '\001';
  t.live_count <- t.live_count + 1;
  t.live_bytes <- t.live_bytes + Size_class.bytes (size_class t h);
  if t.live_bytes > t.peak_live_bytes then t.peak_live_bytes <- t.live_bytes

let mark_dead t h =
  if not (is_live t h) then
    invalid_arg (Printf.sprintf "Obj_table: double free / free of dead object #%d" h);
  Bytes.set !(t.live) h '\000';
  t.live_count <- t.live_count - 1;
  t.live_bytes <- t.live_bytes - Size_class.bytes (size_class t h)
