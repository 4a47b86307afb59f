(* Linearizability / sequential-consistency oracle for the simulated set
   scenarios (the par/* scenarios check safety with probes instead).

   Every set operation is recorded as an event carrying its invocation and
   response in virtual time plus its *linearization index*: operations
   execute atomically in the simulator (Sched.atomically), so the order in
   which the atomic bodies actually ran is a total order of linearization
   points. The oracle replays the history in that order against a
   sequential set and flags

   - any operation whose observed result differs from the model's answer
     (a corrupted structure: the footprint of reclamation bugs), and
   - any pair of operations whose linearization order inverts their
     real-time order (op B linearized before op A even though B was
     invoked after A responded) — the classic linearizability condition. *)

type op = Insert of int | Delete of int | Contains of int

let op_repr = function
  | Insert k -> Printf.sprintf "insert(%d)" k
  | Delete k -> Printf.sprintf "delete(%d)" k
  | Contains k -> Printf.sprintf "contains(%d)" k

type event = {
  exec : int;  (* linearization index: order the atomic bodies ran in *)
  tid : int;
  inv : int;  (* invocation, virtual ns *)
  resp : int;  (* response, virtual ns *)
  op : op;
  result : int;  (* observed: 1 iff the operation found or changed the key *)
}

type t = { mutable events : event list; mutable next_exec : int }

let create () = { events = []; next_exec = 0 }

(* Claim the next linearization index; call inside the atomic body, at the
   operation's linearization point. *)
let linearize t =
  let e = t.next_exec in
  t.next_exec <- e + 1;
  e

let record t ~exec ~tid ~inv ~resp ~op ~result =
  t.events <- { exec; tid; inv; resp; op; result } :: t.events

let events t = List.sort (fun a b -> compare a.exec b.exec) t.events

(* The observed thread interleaving, an ingredient of the schedule digest:
   two schedules that linearized operations in a different thread order are
   distinct. *)
let interleaving t =
  String.concat "" (List.map (fun e -> string_of_int e.tid ^ ".") (events t))

let mismatch e expected =
  {
    Oracle.oracle = Oracle.linearizability;
    detail =
      Printf.sprintf
        "op #%d (tid %d, %s @ [%d, %d]ns) observed %d but the sequential model answers %d"
        e.exec e.tid (op_repr e.op) e.inv e.resp e.result expected;
  }

(* Real-time order check: in linearization order, no operation may respond
   before an earlier-linearized operation was invoked. *)
let check_realtime sorted =
  let violations = ref [] in
  let max_inv = ref min_int in
  let max_inv_owner = ref (-1) in
  List.iter
    (fun e ->
      if e.resp < !max_inv then
        violations :=
          {
            Oracle.oracle = Oracle.linearizability;
            detail =
              Printf.sprintf
                "real-time order inverted: op #%d (tid %d, %s) responded at %dns yet \
                 linearized after an op invoked at %dns by op #%d"
                e.exec e.tid (op_repr e.op) e.resp !max_inv !max_inv_owner;
          }
          :: !violations;
      if e.inv > !max_inv then begin
        max_inv := e.inv;
        max_inv_owner := e.exec
      end)
    sorted;
  List.rev !violations

(* Replay a set history (insert/delete/contains over integer keys). *)
let check_set t =
  let sorted = events t in
  let model = Hashtbl.create 256 in
  let violations = ref [] in
  List.iter
    (fun e ->
      let expected =
        match e.op with
        | Insert k ->
            let absent = not (Hashtbl.mem model k) in
            if absent then Hashtbl.replace model k ();
            if absent then 1 else 0
        | Delete k ->
            let present = Hashtbl.mem model k in
            if present then Hashtbl.remove model k;
            if present then 1 else 0
        | Contains k -> if Hashtbl.mem model k then 1 else 0
      in
      if expected <> e.result then violations := mismatch e expected :: !violations)
    sorted;
  List.rev !violations @ check_realtime sorted
