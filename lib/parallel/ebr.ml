(* Real epoch-based reclamation for multicore OCaml (Domains + Atomics).

   OCaml's GC reclaims heap values, so classic SMR is unnecessary for
   ordinary nodes — but *off-heap* resources (Bigarray slabs, C buffers,
   file descriptors) referenced from lock-free structures still need a
   grace period before reuse: a racing domain that lost a CAS may still be
   reading the resource. This module is a DEBRA-style EBR over deferred
   release callbacks, with optional amortized draining (the paper's AF).

   Protocol (mirrors Epoch_based in the simulator):
   - a global epoch and one announcement slot per registered domain,
     padded to avoid false sharing;
   - [enter] announces the current epoch at the start of each operation;
   - every [check_every] operations a handle reads one other slot
     round-robin and advances the epoch after observing a full round,
     restarting its scan whenever the epoch moves;
   - three limbo bags per handle: entering epoch [e] releases the bag
     tagged [<= e-3], either eagerly (Batch) or spread over subsequent
     operations (Amortized k). *)

type mode = Batch | Amortized of int

let padding = 16  (* ints per slot: one cache line apart *)

type handle = {
  slot : int;
  t : t;
  mutable announced : int;
  mutable scan_idx : int;
  mutable ops_since_check : int;
  bags : (unit -> unit) list array;  (* three rotating bags of release callbacks *)
  bag_epoch : int array;
  mutable cur : int;
  mutable freeable : (unit -> unit) list;  (* AF drain list *)
  mutable retired_count : int;
  mutable released_count : int;
}

and t = {
  mode : mode;
  check_every : int;
  epoch : int Atomic.t;
  slots : int Atomic.t array;  (* announcement per slot, padded *)
  registered : bool array;
  mutable n_slots : int;
  max_slots : int;
  reg_lock : Mutex.t;
}

let create ?(mode = Batch) ?(check_every = 4) ~max_domains () =
  {
    mode;
    check_every;
    epoch = Atomic.make 0;
    slots = Array.init (max_domains * padding) (fun _ -> Atomic.make 0);
    registered = Array.make max_domains false;
    n_slots = 0;
    max_slots = max_domains;
    reg_lock = Mutex.create ();
  }

let slot_atomic t i = t.slots.(i * padding)

(* Register the calling domain; one handle per domain. *)
let register t =
  Mutex.lock t.reg_lock;
  if t.n_slots >= t.max_slots then begin
    Mutex.unlock t.reg_lock;
    invalid_arg "Ebr.register: too many domains"
  end;
  let slot = t.n_slots in
  t.n_slots <- t.n_slots + 1;
  t.registered.(slot) <- true;
  Mutex.unlock t.reg_lock;
  Atomic.set (slot_atomic t slot) (Atomic.get t.epoch);
  {
    slot;
    t;
    announced = Atomic.get t.epoch;
    scan_idx = (slot + 1) mod t.max_slots;
    ops_since_check = 0;
    bags = Array.make 3 [];
    bag_epoch = [| Atomic.get t.epoch; -1; -1 |];
    cur = 0;
    freeable = [];
    retired_count = 0;
    released_count = 0;
  }

let release_all h callbacks =
  List.iter
    (fun f ->
      f ();
      h.released_count <- h.released_count + 1)
    callbacks

let drain h k =
  let rec go k =
    if k > 0 then
      match h.freeable with
      | [] -> ()
      | f :: rest ->
          h.freeable <- rest;
          f ();
          h.released_count <- h.released_count + 1;
          go (k - 1)
  in
  go k

let enter_epoch h e =
  h.announced <- e;
  Atomic.set (slot_atomic h.t h.slot) e;
  for i = 0 to 2 do
    if h.bag_epoch.(i) >= 0 && h.bag_epoch.(i) <= e - 3 then begin
      (match h.t.mode with
      | Batch -> release_all h h.bags.(i)
      | Amortized _ -> h.freeable <- List.rev_append h.bags.(i) h.freeable);
      h.bags.(i) <- [];
      h.bag_epoch.(i) <- -1
    end
  done;
  let free = ref (-1) in
  for i = 0 to 2 do
    if h.bag_epoch.(i) = -1 && !free = -1 then free := i
  done;
  if !free < 0 then
    failwith
      (Printf.sprintf
         "Ebr.enter_epoch: invariant violated: no free limbo bag entering epoch %d (slot %d, \
          bag_epoch = [%d; %d; %d]) — three rotating bags must always leave one free after \
          disposing bags <= e-3"
         e h.slot h.bag_epoch.(0) h.bag_epoch.(1) h.bag_epoch.(2));
  h.bag_epoch.(!free) <- e;
  h.cur <- !free;
  h.scan_idx <- (h.slot + 1) mod Int.max 1 h.t.n_slots

let try_advance h e =
  let n = h.t.n_slots in
  if n > 0 then begin
    let idx = h.scan_idx mod n in
    if (not h.t.registered.(idx)) || Atomic.get (slot_atomic h.t idx) = e then begin
      h.scan_idx <- (idx + 1) mod n;
      if h.scan_idx = h.slot mod n then begin
        ignore (Atomic.compare_and_set h.t.epoch e (e + 1));
        h.scan_idx <- (h.slot + 1) mod n
      end
    end
  end

(* Begin a protected operation. *)
let enter h =
  (match h.t.mode with Amortized k -> drain h k | Batch -> ());
  let e = Atomic.get h.t.epoch in
  if e <> h.announced then enter_epoch h e;
  h.ops_since_check <- h.ops_since_check + 1;
  if h.ops_since_check >= h.t.check_every then begin
    h.ops_since_check <- 0;
    try_advance h e
  end

(* End of the protected operation (currently a no-op: quiescence is
   announced at the next [enter]). *)
let exit _h = ()

(* Defer [release] until every domain has passed through a grace period. *)
let retire h release =
  h.retired_count <- h.retired_count + 1;
  h.bags.(h.cur) <- release :: h.bags.(h.cur)

let current_epoch t = Atomic.get t.epoch

let pending h =
  List.length h.freeable
  + Array.fold_left (fun acc b -> acc + List.length b) 0 h.bags

let retired h = h.retired_count
let released h = h.released_count

(* Release everything unconditionally; only safe once no other domain can
   access retired resources (e.g. after joining all workers). *)
let flush_unsafe h =
  for i = 0 to 2 do
    release_all h h.bags.(i);
    h.bags.(i) <- []
  done;
  release_all h h.freeable;
  h.freeable <- []
