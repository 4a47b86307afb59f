(* Timeline graphs (paper §3.1): a per-thread record of high-latency events
   over virtual time, rendered as ASCII art or exported as CSV.

   Rows are threads; the x axis is time; each box is an event (a batch
   reclamation, or an individual free call); dots mark epoch advances, and
   all dots are also projected onto a bottom rail to make epoch stalls
   visible — the visual signature of the garbage pile-up problem.

   Recording is cheap (two timestamps and a value pushed into a per-thread
   growable buffer), mirroring the paper's low-overhead recorder. *)

open Simcore

type event = { start : int; stop : int; value : int }

let dummy_event = { start = 0; stop = 0; value = 0 }

type t = {
  n : int;
  events : event Vec.Poly.t array;  (* per thread *)
  dots : event Vec.Poly.t array;  (* epoch advances: start = time, value = epoch *)
  min_event_ns : int;  (* events shorter than this are not recorded *)
  max_events_per_thread : int;
}

let create ?(min_event_ns = 0) ?(max_events_per_thread = 100_000) ~n () =
  {
    n;
    events = Array.init n (fun _ -> Vec.Poly.create ~dummy:dummy_event ());
    dots = Array.init n (fun _ -> Vec.Poly.create ~dummy:dummy_event ());
    min_event_ns;
    max_events_per_thread;
  }

let record_event t ~tid ~start ~stop ~value =
  if stop - start >= t.min_event_ns && Vec.Poly.length t.events.(tid) < t.max_events_per_thread
  then Vec.Poly.push t.events.(tid) { start; stop; value }

let record_dot t ~tid ~time ~value =
  if Vec.Poly.length t.dots.(tid) < t.max_events_per_thread then
    Vec.Poly.push t.dots.(tid) { start = time; stop = time; value }

(* Install recording hooks on a simulated thread: reclamation events become
   boxes, epoch advances become dots. *)
let attach_reclaim t (th : Sched.thread) =
  let tid = th.Sched.tid in
  th.Sched.hooks.Sched.on_reclaim_event <-
    (fun ~start ~stop ~count -> record_event t ~tid ~start ~stop ~value:count);
  th.Sched.hooks.Sched.on_epoch_advance <-
    (fun ~time ~epoch -> record_dot t ~tid ~time ~value:epoch)

let n_threads t = t.n

let events t tid = Vec.Poly.to_list t.events.(tid)
let dots t tid = Vec.Poly.to_list t.dots.(tid)

let total_events t =
  Array.fold_left (fun acc v -> acc + Vec.Poly.length v) 0 t.events

let total_dots t = Array.fold_left (fun acc v -> acc + Vec.Poly.length v) 0 t.dots

(* ASCII rendering. [t0, t1) is the visible window; [threads] limits the
   rows shown (the paper shows 20 of 192). Box characters alternate so
   adjacent events are distinguishable, like the paper's colours. *)
let render ?(width = 110) ?(threads = 20) ~t0 ~t1 t =
  let buf = Buffer.create 4096 in
  let span = max 1 (t1 - t0) in
  let col time = (time - t0) * width / span in
  let rows = min threads t.n in
  let box_chars = [| '#'; '='; '%'; '@' |] in
  for tid = 0 to rows - 1 do
    let line = Bytes.make width ' ' in
    let k = ref 0 in
    Vec.Poly.iter
      (fun e ->
        if e.stop > t0 && e.start < t1 then begin
          let c0 = max 0 (col e.start) and c1 = min (width - 1) (col e.stop) in
          let ch = box_chars.(!k mod Array.length box_chars) in
          for c = c0 to max c0 c1 do
            Bytes.set line c ch
          done;
          incr k
        end)
      t.events.(tid);
    Vec.Poly.iter
      (fun d ->
        if d.start >= t0 && d.start < t1 then
          Bytes.set line (min (width - 1) (col d.start)) 'o')
      t.dots.(tid);
    Buffer.add_string buf (Printf.sprintf "T%03d |%s|\n" tid (Bytes.to_string line))
  done;
  (* Bottom rail: every thread's epoch dots projected. *)
  let rail = Bytes.make width ' ' in
  for tid = 0 to t.n - 1 do
    Vec.Poly.iter
      (fun d ->
        if d.start >= t0 && d.start < t1 then
          Bytes.set rail (min (width - 1) (col d.start)) 'o')
      t.dots.(tid)
  done;
  Buffer.add_string buf (Printf.sprintf "epoch|%s|\n" (Bytes.to_string rail));
  Buffer.add_string buf
    (Printf.sprintf "      %d ns .. %d ns\n" t0 t1);
  Buffer.contents buf

(* CSV export: tid,start,stop,value with kind "event" or "dot". *)
let to_csv t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "kind,tid,start,stop,value\n";
  for tid = 0 to t.n - 1 do
    Vec.Poly.iter
      (fun e -> Buffer.add_string buf (Printf.sprintf "event,%d,%d,%d,%d\n" tid e.start e.stop e.value))
      t.events.(tid);
    Vec.Poly.iter
      (fun d -> Buffer.add_string buf (Printf.sprintf "dot,%d,%d,%d,%d\n" tid d.start d.stop d.value))
      t.dots.(tid)
  done;
  Buffer.contents buf

(* Longest recorded event, across all threads. *)
let max_event_ns t =
  let m = ref 0 in
  Array.iter (Vec.Poly.iter (fun e -> if e.stop - e.start > !m then m := e.stop - e.start)) t.events;
  !m

(* -- SVG export ---------------------------------------------------- *)

module Svg = struct
  (* SVG rendering of timeline graphs — the publication-quality counterpart
     of the ASCII renderer, matching the paper's figures: one row per thread,
     coloured boxes for events, blue dots for epoch advances, and the
     projected epoch rail underneath. *)

  let box_colors = [| "#4c78a8"; "#f58518"; "#54a24b"; "#b279a2" |]
  let dot_color = "#2255cc"

  let esc s =
    let buf = Buffer.create (String.length s) in
    String.iter
      (fun c ->
        match c with
        | '<' -> Buffer.add_string buf "&lt;"
        | '>' -> Buffer.add_string buf "&gt;"
        | '&' -> Buffer.add_string buf "&amp;"
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  (* Render the window [t0, t1) of [tl] as a standalone SVG document showing
     the first [threads] rows. *)
  let render ?(width = 900) ?(row_height = 14) ?(threads = 20) ?(title = "") ~t0 ~t1 tl =
    let rows = min threads (n_threads tl) in
    let label_w = 48 in
    let plot_w = width - label_w - 8 in
    let header = if title = "" then 4 else 22 in
    let rail_h = row_height + 4 in
    let height = header + (rows * row_height) + rail_h + 22 in
    let span = max 1 (t1 - t0) in
    let x_of time = label_w + (time - t0) * plot_w / span in
    let buf = Buffer.create 8192 in
    Buffer.add_string buf
      (Printf.sprintf
         "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%d\" height=\"%d\" \
          font-family=\"monospace\" font-size=\"10\">\n"
         width height);
    if title <> "" then
      Buffer.add_string buf
        (Printf.sprintf "<text x=\"%d\" y=\"14\" font-size=\"12\">%s</text>\n" label_w (esc title));
    for tid = 0 to rows - 1 do
      let y = header + (tid * row_height) in
      Buffer.add_string buf
        (Printf.sprintf "<text x=\"2\" y=\"%d\" fill=\"#555\">T%03d</text>\n" (y + row_height - 4) tid);
      List.iteri
        (fun k (e : event) ->
          if e.stop > t0 && e.start < t1 then begin
            let x0 = max label_w (x_of e.start) in
            let x1 = min (label_w + plot_w) (x_of e.stop) in
            let color = box_colors.(k mod Array.length box_colors) in
            Buffer.add_string buf
              (Printf.sprintf
                 "<rect x=\"%d\" y=\"%d\" width=\"%d\" height=\"%d\" fill=\"%s\" opacity=\"0.85\"/>\n"
                 x0 (y + 2) (max 1 (x1 - x0)) (row_height - 4) color)
          end)
        (events tl tid);
      List.iter
        (fun (d : event) ->
          if d.start >= t0 && d.start < t1 then
            Buffer.add_string buf
              (Printf.sprintf "<circle cx=\"%d\" cy=\"%d\" r=\"2\" fill=\"%s\"/>\n"
                 (x_of d.start) (y + (row_height / 2)) dot_color))
        (dots tl tid)
    done;
    (* Epoch rail: every thread's dots projected. *)
    let rail_y = header + (rows * row_height) + (rail_h / 2) in
    Buffer.add_string buf
      (Printf.sprintf "<text x=\"2\" y=\"%d\" fill=\"#555\">epoch</text>\n" (rail_y + 4));
    for tid = 0 to n_threads tl - 1 do
      List.iter
        (fun (d : event) ->
          if d.start >= t0 && d.start < t1 then
            Buffer.add_string buf
              (Printf.sprintf "<circle cx=\"%d\" cy=\"%d\" r=\"2\" fill=\"%s\"/>\n"
                 (x_of d.start) rail_y dot_color))
        (dots tl tid)
    done;
    (* Time axis. *)
    let axis_y = height - 8 in
    Buffer.add_string buf
      (Printf.sprintf "<text x=\"%d\" y=\"%d\" fill=\"#333\">%.2f ms</text>\n" label_w axis_y
         (float_of_int t0 /. 1e6));
    Buffer.add_string buf
      (Printf.sprintf
         "<text x=\"%d\" y=\"%d\" fill=\"#333\" text-anchor=\"end\">%.2f ms</text>\n"
         (label_w + plot_w) axis_y
         (float_of_int t1 /. 1e6));
    Buffer.add_string buf "</svg>\n";
    Buffer.contents buf

  let write_file path svg =
    let oc = open_out path in
    output_string oc svg;
    close_out oc

end
