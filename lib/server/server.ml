let stop = ref false

let install_drain service =
  let handle =
    Sys.Signal_handle
      (fun _ ->
        stop := true;
        Service.interrupt service)
  in
  try
    Sys.set_signal Sys.sigint handle;
    Sys.set_signal Sys.sigterm handle;
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ | Sys_error _ -> ()

(* A socket file may be a live daemon or the corpse of a killed one.
   Probing with a connect tells them apart: refusal means nobody is
   listening and the path can be reclaimed. *)
let claim_socket path =
  if not (Sys.file_exists path) then Ok ()
  else
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let verdict =
      match Unix.connect fd (Unix.ADDR_UNIX path) with
      | () -> Error (Printf.sprintf "%s: a daemon is already serving" path)
      | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) ->
        (match Unix.unlink path with
        | () -> Ok ()
        | exception Unix.Unix_error (Unix.ENOENT, _, _) -> Ok ())
      | exception Unix.Unix_error (e, _, _) ->
        Error (Printf.sprintf "%s: %s" path (Unix.error_message e))
    in
    Unix.close fd;
    verdict

(* One connection: frames in, frames out, until EOF, a lost framing
   sync, a dead peer or the drain flag. *)
let serve_connection service fd =
  Service.note_connection service;
  let respond response =
    match Proto.write_frame fd (Proto.encode_response response) with
    | () -> true
    | exception Unix.Unix_error (_, _, _) -> false
  in
  let rec loop () =
    if !stop then ()
    else
      match Proto.read_frame fd with
      | Error Proto.Eof -> ()
      | Error Proto.Interrupted -> loop ()
      | Error (Proto.Malformed _) -> Service.note_malformed service
      | Ok payload ->
        let response =
          match Proto.decode_request payload with
          | Error msg -> Proto.Failure { code = "proto"; msg }
          | Ok request -> Service.handle service request
        in
        if respond response then loop ()
  in
  loop ()

let serve ?(on_ready = fun () -> ()) ~socket service =
  install_drain service;
  match claim_socket socket with
  | Error _ as e -> e
  | Ok () ->
    let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let cleanup () =
      Unix.close listen_fd;
      try Unix.unlink socket with Unix.Unix_error _ -> ()
    in
    (match
       Unix.bind listen_fd (Unix.ADDR_UNIX socket);
       Unix.listen listen_fd 16
     with
    | () ->
      on_ready ();
      let rec accept_loop () =
        if not !stop then
          match Unix.accept listen_fd with
          | client_fd, _ ->
            Fun.protect
              ~finally:(fun () -> try Unix.close client_fd with _ -> ())
              (fun () -> serve_connection service client_fd);
            accept_loop ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
      in
      accept_loop ();
      cleanup ();
      Ok ()
    | exception Unix.Unix_error (e, op, _) ->
      cleanup ();
      Error (Printf.sprintf "%s %s: %s" op socket (Unix.error_message e)))
