(** Wire protocol of the ATPG service.

    {2 Framing}

    One message is one {e frame}:

    {v u32le payload-length ++ u32le crc32(payload) ++ payload v}

    — the store's journal-record discipline ({!Satg_store.Journal}),
    applied to a socket.  The CRC makes a torn or corrupted stream a
    clean {!read_error}, never a half-parsed request; the length
    ceiling ({!max_frame_bytes}) rejects hostile headers before any
    allocation.  A malformed frame poisons only its connection (the
    stream has lost sync); the daemon keeps serving.

    {2 Payloads}

    Payloads are line-oriented text: a kind line, a [key value] header
    block closed by one empty line, then free bytes (the netlist).
    The ATPG config block is exactly
    {!Satg_core.Session.config_fields} — the same exhaustive field
    list the cache key hashes, so a request's wire form and its cache
    identity cannot drift apart.  Batch payloads nest length-prefixed
    sub-payloads (one level only).

    Everything round-trips exactly; decoders return [Error] on any
    malformed input. *)

open Satg_core
open Satg_circuit

type atpg_request = {
  netlist : string;  (** raw [.cct] bytes *)
  universe : Session.universe;
  config : Engine.config;
      (** travels as {!Session.config_fields} *)
}

type cssg_request = {
  c_netlist : string;
  c_k : int option;
  c_dump : bool;
  c_timeout : float option;
  c_max_states : int option;
  c_max_transitions : int option;
}

type request =
  | Atpg of atpg_request
  | Cssg of cssg_request
  | Check of string  (** netlist bytes; lint + structural report *)
  | Batch of request list
      (** members are served in order, each under its own guard; they
          share graph builds with each other and with every other
          request ({!Service}) *)
  | Stats  (** server-side counters *)

type response =
  | Result of { hit : bool; payload : Satg_store.Codec.result_payload }
      (** a settled ATPG run; [hit] means it was served from the warm
          store with zero fault searches *)
  | Text of { degraded : bool; text : string }
      (** rendered report ([cssg], [check] success); [degraded] maps
          to the CLI's exit code 2 *)
  | Diags of Parser.diag list
      (** structured [check] lint findings — a malformed netlist is an
          answer, never a daemon crash *)
  | Failure of { code : string; msg : string }
      (** ["parse"], ["proto"], ["server"]; maps to CLI exit 1 *)
  | Batch_r of response list
  | Stats_r of (string * string) list

val max_frame_bytes : int

type read_error =
  | Eof  (** clean end of stream between frames *)
  | Interrupted  (** a signal broke the read (daemon drain) *)
  | Malformed of string
      (** bad length, bad CRC, torn frame — the connection must be
          dropped (framing sync is lost) *)

val write_frame : Unix.file_descr -> string -> unit
(** @raise Invalid_argument beyond {!max_frame_bytes};
    Unix errors propagate (the caller owns the connection). *)

val read_frame : Unix.file_descr -> (string, read_error) result

val encode_request : request -> string
val decode_request : string -> (request, string) result
val encode_response : response -> string
val decode_response : string -> (response, string) result
