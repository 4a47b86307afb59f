(* The reference probe, in a process of its own. The runner scales every
   host timing by this probe's time (see [Stats.reference]), so the probe
   must not share the program's runtime: this executable links no library
   of the program, so their initialisers, [Gc] settings and live heap never
   reach it.

   The probe is inserts and removes on a Stdlib [Set] of 8k keys, the
   allocation and pointer chasing a simulated trial is made of. Each line
   read on standard input asks for one probe, timed on a collected heap;
   each reply is one line: the wall ms, then this process's minor heap size
   and heap peak in words, which perf/test reads to check that the caller's
   runtime does not reach the probe. It exits at the end of its input. *)

module Int_set = Set.Make (Int)

let probe () =
  let set = ref Int_set.empty and x = ref 12345 in
  for _ = 1 to 100_000 do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    let k = !x land 8191 in
    set := if !x land 1024 = 0 then Int_set.add k !set else Int_set.remove k !set
  done;
  ignore (Sys.opaque_identity !set)

let () =
  try
    while true do
      ignore (input_line stdin : string);
      Gc.full_major ();
      let t0 = Unix.gettimeofday () in
      probe ();
      let ms = (Unix.gettimeofday () -. t0) *. 1e3 in
      Printf.printf "%.17g %d %d\n%!" ms (Gc.get ()).Gc.minor_heap_size
        (Gc.quick_stat ()).Gc.top_heap_words
    done
  with End_of_file -> ()
