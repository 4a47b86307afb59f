(** Token-EBR (paper §4): a token passed around a ring of threads defines
    epochs — receiving the token means every thread has started a new
    operation since the last receipt, so the previous limbo bag is safe.

    The variants reproduce the paper's development:
    - [Naive]: free before passing — reclamation fully serializes and
      garbage piles up catastrophically (Fig 6);
    - [Pass_first]: pass before freeing — frees overlap but a long batch
      free sits on a re-received token (Fig 7);
    - [Periodic k]: while freeing, check every [k] frees whether the token
      returned and pass it along (Fig 8); a single high-latency free call
      still cannot be interrupted.

    The paper's [token_af] is [Periodic k] under the amortized free policy:
    dispose becomes an O(1) splice and the token circulates freely. *)

type variant = Naive | Pass_first | Periodic of int

val variant_name : variant -> string

val make : variant:variant -> Smr_intf.ctx -> Smr_intf.t
(** The name is the variant's registry name ({!variant_name}, e.g.
    ["token"] for [Periodic _]) under either free policy. *)
