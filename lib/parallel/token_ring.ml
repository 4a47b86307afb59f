(* Real token-ring EBR for multicore OCaml — the paper's Token-EBR over
   Atomics, with the amortized-free policy built in (token_af).

   The token is an atomic holding the slot of the current holder. A domain
   checks for the token at each [enter]; on receipt its previous bag of
   release callbacks becomes safe (the token made a full round, so every
   domain began a new operation since those retirements), and is either
   released eagerly or spliced onto the freeable list and drained [k] per
   operation. *)

type mode = Batch | Amortized of int

type handle = {
  slot : int;
  t : t;
  mutable cur : (unit -> unit) list;
  mutable prev : (unit -> unit) list;
  mutable freeable : (unit -> unit) list;
  mutable receipts : int;
  mutable retired_count : int;
  mutable released_count : int;
}

and t = {
  mode : mode;
  token : int Atomic.t;
  mutable n_slots : int;
  max_slots : int;
  reg_lock : Mutex.t;
}

let create ?(mode = Amortized 1) ~max_domains () =
  {
    mode;
    token = Atomic.make 0;
    n_slots = 0;
    max_slots = max_domains;
    reg_lock = Mutex.create ();
  }

let register t =
  Mutex.lock t.reg_lock;
  if t.n_slots >= t.max_slots then begin
    Mutex.unlock t.reg_lock;
    invalid_arg "Token_ring.register: too many domains"
  end;
  let slot = t.n_slots in
  t.n_slots <- t.n_slots + 1;
  Mutex.unlock t.reg_lock;
  {
    slot;
    t;
    cur = [];
    prev = [];
    freeable = [];
    receipts = 0;
    retired_count = 0;
    released_count = 0;
  }

let release_list h l =
  List.iter
    (fun f ->
      f ();
      h.released_count <- h.released_count + 1)
    l

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

let pass t slot = Atomic.set t.token ((slot + 1) mod Int.max 1 t.n_slots)

let enter h =
  (match h.t.mode with Amortized k -> drain h k | Batch -> ());
  if Atomic.get h.t.token = h.slot then begin
    h.receipts <- h.receipts + 1;
    let safe = h.prev in
    h.prev <- h.cur;
    h.cur <- [];
    (* Pass first (paper §4): the ring must not wait for our freeing. *)
    pass h.t h.slot;
    match h.t.mode with
    | Batch -> release_list h safe
    | Amortized _ -> h.freeable <- List.rev_append safe h.freeable
  end

let exit _h = ()

let retire h release =
  h.retired_count <- h.retired_count + 1;
  h.cur <- release :: h.cur

let receipts h = h.receipts
let retired h = h.retired_count
let released h = h.released_count

let pending h = List.length h.cur + List.length h.prev + List.length h.freeable

(* Only safe after all other domains have stopped. *)
let flush_unsafe h =
  release_list h h.cur;
  release_list h h.prev;
  release_list h h.freeable;
  h.cur <- [];
  h.prev <- [];
  h.freeable <- []
