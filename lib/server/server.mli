(** The daemon's accept loop: a Unix-domain stream socket, one
    connection at a time, one {!Proto} frame per request.

    Sequential connection handling is a feature, not a shortcut:
    serving requests in arrival order keeps the daemon's outcomes —
    and its counters — deterministic.

    Failure containment, from the outside in: a malformed frame drops
    its connection (framing sync is lost) and the loop keeps accepting;
    an undecodable payload earns a ["proto"] failure response on a
    still-healthy connection; a request that fails in execution earns a
    ["server"] failure response.  SIGPIPE is ignored (a client gone
    mid-response costs the connection, nothing else).

    SIGINT/SIGTERM start a {e graceful drain}: the in-flight request's
    guard family is cancelled (it returns a fast degraded response),
    queued batch members are born cancelled, the loop stops accepting,
    the socket is unlinked and {!serve} returns normally — so the CLI
    can print final stats and exit 0. *)

val serve :
  ?on_ready:(unit -> unit) -> socket:string -> Service.t -> (unit, string) result
(** Bind [socket], call [on_ready] once listening, serve until a drain
    signal, then clean up (close, unlink).

    A pre-existing socket path is probed: a dead one (stale file from a
    killed daemon, connection refused) is unlinked and reclaimed; a
    live one is an [Error] — two daemons must not share a socket. *)
