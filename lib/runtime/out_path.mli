(** Output paths named on a command line, checked before any trial runs,
    so a typo'd directory fails at once instead of after the whole run. *)

val check : ?dir:bool -> flag:string -> string -> (unit, string) result
(** [check ~flag path] is [Ok ()] when [Filename.dirname path] is an
    existing directory, so a file can be made at [path]. With [~dir:true],
    [path] is a directory the command writes into, creating it when it is
    absent, so it must not be an existing non-directory either. Otherwise
    an [Error] naming [flag], [path] and what is wrong. *)
