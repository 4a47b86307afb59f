(** Timeline graphs (paper §3.1): per-thread records of high-latency events
    over virtual time, rendered as ASCII art or exported as CSV.

    Rows are threads; the x axis is time; boxes are events (batch
    reclamations, or individual free calls); dots mark epoch advances and
    are also projected onto a bottom rail, making epoch stalls — the visual
    signature of garbage pile-up — easy to spot. Recording is two
    timestamps and a value per event, mirroring the paper's low-overhead
    recorder. *)

type event = { start : int; stop : int; value : int }

type t

val create : ?min_event_ns:int -> ?max_events_per_thread:int -> n:int -> unit -> t
(** [min_event_ns] drops events shorter than the threshold;
    [max_events_per_thread] bounds memory (default 100,000, the paper's
    per-thread budget). *)

val record_event : t -> tid:int -> start:int -> stop:int -> value:int -> unit
val record_dot : t -> tid:int -> time:int -> value:int -> unit

val attach_reclaim : t -> Simcore.Sched.thread -> unit
(** Install hooks: reclamation events become boxes, epoch advances dots. *)

val n_threads : t -> int

val events : t -> int -> event list
val dots : t -> int -> event list
val total_events : t -> int
val total_dots : t -> int

val max_event_ns : t -> int
(** Longest recorded event. *)

val render : ?width:int -> ?threads:int -> t0:int -> t1:int -> t -> string
(** ASCII rendering of the window [\[t0, t1)], showing the first [threads]
    rows (default 20, like the paper's excerpts) plus the epoch rail. *)

val to_csv : t -> string
(** [kind,tid,start,stop,value] rows for external plotting. *)

(** SVG rendering — the publication-quality counterpart of {!render}. *)
module Svg : sig
  val render :
    ?width:int -> ?row_height:int -> ?threads:int -> ?title:string ->
    t0:int -> t1:int -> t -> string
  (** A standalone SVG document for the window [\[t0, t1)]. *)

  val write_file : string -> string -> unit
  (** [write_file path svg] writes the document to disk. *)
end
