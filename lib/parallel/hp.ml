(* Real hazard pointers for multicore OCaml (Domains + Atomics).

   OCaml's GC reclaims heap values, so hazard pointers here guard *off-heap*
   resources addressed by integer handles (Slab block indices, descriptors):
   a reader publishes the handle it is about to dereference into one of its
   hazard slots, re-validates that the handle is still reachable, and only
   then uses it. A retirer may release a handle only when no published slot
   holds it — the per-object, non-batched reclamation granularity that
   distinguishes HP from every epoch scheme.

   The module mirrors [Ebr]'s shape (create/register/enter/exit/retire over
   deferred release callbacks, Batch vs Amortized draining) so the two are
   drop-in alternatives in the parallel scenarios, and adds the
   protect/clear slot API plus the scan. The protect *loop* (publish,
   re-read, retry until stable) belongs to the caller — only the caller
   knows how to re-read the source pointer — which reports failed validates
   via [note_retry] so harnesses can observe retry pressure.

   Handles are not thread-safe: one per domain. Slots are padded a cache
   line apart like [Ebr]'s announcement array. *)

type mode = Batch | Amortized of int

let padding = 16  (* ints per slot: one cache line apart *)
let empty_slot = min_int

type entry = { value : int; release : unit -> unit }

type handle = {
  slot_id : int;
  t : t;
  mutable rlist : entry list;  (* retired, not yet scanned clear *)
  mutable rcount : int;
  mutable freeable : entry list;  (* AF: scanned safe, awaiting drain *)
  mutable retired_count : int;
  mutable released_count : int;
  mutable scan_count : int;
  mutable retry_count : int;
  mutable max_retired : int;
}

and t = {
  mode : mode;
  scan_threshold : int;
  slots_per_domain : int;
  slots : int Atomic.t array;  (* padded: slot i at i * padding *)
  registered : bool array;
  mutable n_slots : int;
  max_slots : int;
  reg_lock : Mutex.t;
}

let create ?(mode = Batch) ?(scan_threshold = 8) ?(slots_per_domain = 2) ~max_domains () =
  if scan_threshold < 1 then invalid_arg "Hp.create: scan_threshold must be >= 1";
  if slots_per_domain < 1 then invalid_arg "Hp.create: slots_per_domain must be >= 1";
  {
    mode;
    scan_threshold;
    slots_per_domain;
    slots = Array.init (max_domains * slots_per_domain * padding) (fun _ -> Atomic.make empty_slot);
    registered = Array.make max_domains false;
    n_slots = 0;
    max_slots = max_domains;
    reg_lock = Mutex.create ();
  }

let[@inline] slot_atomic t ~slot_id ~slot =
  t.slots.(((slot_id * t.slots_per_domain) + slot) * padding)

(* Register the calling domain; one handle per domain. *)
let register t =
  Mutex.lock t.reg_lock;
  if t.n_slots >= t.max_slots then begin
    Mutex.unlock t.reg_lock;
    invalid_arg "Hp.register: too many domains"
  end;
  let slot_id = t.n_slots in
  t.n_slots <- t.n_slots + 1;
  t.registered.(slot_id) <- true;
  Mutex.unlock t.reg_lock;
  {
    slot_id;
    t;
    rlist = [];
    rcount = 0;
    freeable = [];
    retired_count = 0;
    released_count = 0;
    scan_count = 0;
    retry_count = 0;
    max_retired = 0;
  }

let[@inline] check_slot t slot =
  if slot < 0 || slot >= t.slots_per_domain then
    invalid_arg (Printf.sprintf "Hp: slot %d out of range [0, %d)" slot t.slots_per_domain)

(* Publish [v] in the caller's hazard slot [slot]. The caller must then
   re-validate its source pointer before dereferencing [v]; on a failed
   validate, re-protect the fresh value and call [note_retry]. *)
let[@inline] protect h ~slot v =
  check_slot h.t slot;
  Atomic.set (slot_atomic h.t ~slot_id:h.slot_id ~slot) v

let[@inline] clear h ~slot =
  check_slot h.t slot;
  Atomic.set (slot_atomic h.t ~slot_id:h.slot_id ~slot) empty_slot

(* Only the owner writes its slots, so a slot read empty stays empty and
   needs no write (each [Atomic.set] is a full barrier). *)
let clear_all h =
  for slot = 0 to h.t.slots_per_domain - 1 do
    let a = slot_atomic h.t ~slot_id:h.slot_id ~slot in
    if Atomic.get a <> empty_slot then Atomic.set a empty_slot
  done

let note_retry h = h.retry_count <- h.retry_count + 1

(* Is [v] currently published in any registered domain's slot? Used by the
   scan and exposed for the pointer-protection oracle: an object may be
   released only when no published hazard slot holds it. *)
let is_protected t v =
  let found = ref false in
  for slot_id = 0 to t.max_slots - 1 do
    if t.registered.(slot_id) then
      for slot = 0 to t.slots_per_domain - 1 do
        if Atomic.get (slot_atomic t ~slot_id ~slot) = v then found := true
      done
  done;
  !found

let protected_values t =
  let acc = ref [] in
  for slot_id = t.max_slots - 1 downto 0 do
    if t.registered.(slot_id) then
      for slot = t.slots_per_domain - 1 downto 0 do
        let v = Atomic.get (slot_atomic t ~slot_id ~slot) in
        if v <> empty_slot then acc := v :: !acc
      done
  done;
  !acc

(* [List.mem] typed [int]: the polymorphic one compares through [compare_val]. *)
let rec mem_int (v : int) = function [] -> false | x :: rest -> x = v || mem_int v rest

let release_entry h (e : entry) =
  e.release ();
  h.released_count <- h.released_count + 1

(* One scan: snapshot every published slot, then decide each retired entry
   individually — protected entries survive on the retire list, the rest
   are released now (Batch) or queued for draining (Amortized). *)
let scan h =
  let snapshot = protected_values h.t in
  h.scan_count <- h.scan_count + 1;
  let keep = ref [] and keep_n = ref 0 in
  List.iter
    (fun (e : entry) ->
      if mem_int e.value snapshot then begin
        keep := e :: !keep;
        incr keep_n
      end
      else
        match h.t.mode with
        | Batch -> release_entry h e
        | Amortized _ -> h.freeable <- e :: h.freeable)
    h.rlist;
  h.rlist <- !keep;
  h.rcount <- !keep_n

(* Force a scan regardless of the threshold: thread-exit and quiet-phase
   scans, where retires have stopped but the list still holds entries. *)
let scan_now = scan

let drain h k =
  let rec go k =
    if k > 0 then
      match h.freeable with
      | [] -> ()
      | e :: rest ->
          h.freeable <- rest;
          release_entry h e;
          go (k - 1)
  in
  go k

(* Begin a protected operation: under AF, drain the freeable backlog. *)
let enter h = match h.t.mode with Amortized k -> drain h k | Batch -> ()

(* End of the protected operation: drop all protections. *)
let exit h = clear_all h

(* Defer [release] until a scan finds [value] in no published slot. The
   caller must have cleared its own slot for [value] first (or the entry
   will survive scans until it does). *)
let retire h ~value release =
  h.retired_count <- h.retired_count + 1;
  h.rlist <- { value; release } :: h.rlist;
  h.rcount <- h.rcount + 1;
  if h.rcount > h.max_retired then h.max_retired <- h.rcount;
  if h.rcount >= h.t.scan_threshold then scan h

let pending h = h.rcount + List.length h.freeable
let retired h = h.retired_count
let released h = h.released_count
let scans h = h.scan_count
let retries h = h.retry_count
let max_retired h = h.max_retired

(* Release everything unconditionally; only safe once no other domain can
   access retired resources (e.g. after joining all workers). *)
let flush_unsafe h =
  List.iter (release_entry h) h.rlist;
  h.rlist <- [];
  h.rcount <- 0;
  List.iter (release_entry h) h.freeable;
  h.freeable <- []
