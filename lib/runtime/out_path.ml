let check ?(dir = false) ~flag path =
  let parent = Filename.dirname path in
  if not (Sys.file_exists parent) then
    Error (Printf.sprintf "%s %s: directory %s does not exist" flag path parent)
  else if not (Sys.is_directory parent) then
    Error (Printf.sprintf "%s %s: %s is not a directory" flag path parent)
  else if dir && Sys.file_exists path && not (Sys.is_directory path) then
    Error (Printf.sprintf "%s %s: not a directory" flag path)
  else Ok ()
