(* The verdict rule for a change against its parent, per end-to-end metric
   and workload, over alternating parent/change pairs of runs. *)

type verdict = Improved | Same | Worse | Unresolved

let verdict_name = function
  | Improved -> "improved"
  | Same -> "same"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

let better (metric : Spec.metric) a b = if metric.Spec.higher_is_better then a > b else a < b

(* Pairs in which the change reads strictly better. *)
let wins metric ~parent ~change =
  List.fold_left2 (fun n p c -> if better metric c p then n + 1 else n) 0 parent change

(* [parent] and [change] are the metric's values, pair by pair.
   - improved: the change reads better in at least nine tenths of the pairs
     (ties count for neither) and the medians differ by more than the
     distance between the parent's quartiles;
   - unresolved: the parent's own spread exceeds the bound, unless every
     run of the change reads better than every run of the parent;
   - worse: the change's median is worse than the parent's by more than
     the bound;
   - same: otherwise. *)
let verdict (metric : Spec.metric) ~parent ~change =
  let better = better metric in
  let pairs = List.length parent in
  let wins = wins metric ~parent ~change in
  let pm = Stats.median parent and cm = Stats.median change in
  let iqr = Stats.quantile ~p:0.75 parent -. Stats.quantile ~p:0.25 parent in
  let bound = Option.value metric.Spec.bound ~default:0. in
  let worsening = (if metric.Spec.higher_is_better then pm -. cm else cm -. pm) /. pm in
  let all_better = List.for_all (fun c -> List.for_all (better c) parent) change in
  if 10 * wins >= 9 * pairs && Float.abs (cm -. pm) > iqr && better cm pm then Improved
  else if Stats.spread parent > bound && not all_better then Unresolved
  else if worsening > bound then Worse
  else Same
