(** On-disk content-addressed result store.

    Objects live at [<dir>/objects/<k₀k₁>/<key>], where [key] is the
    MD5 of a canonical description of everything the result depends on
    — netlist hash, test-cycle budget, fault universe, engine, resource
    caps, collapse flag, random-phase config ({!Durable.key_of}).

    Publication is atomic (write a unique tmp in the same directory,
    fsync, rename), so readers never observe a half-written object and
    concurrent publishers of the same key are idempotent.  Each object
    carries a CRC-32 of its payload; {!lookup} verifies it and treats a
    corrupt object as a miss (content addressing makes that safe: a key
    can only ever map to one value, so re-deriving and re-publishing
    heals the store). *)

type key = string
(** 32 hex characters. *)

val key_of_parts : (string * string) list -> key
(** Digest of the canonical ["k=v\n"] rendering; order matters, so
    callers must render fields in one fixed order. *)

val lookup : dir:string -> key -> string option
(** The payload, if present with a valid checksum. *)

val publish : dir:string -> key -> string -> unit
(** Atomically store the payload under the key (directories created as
    needed, existing object overwritten — same key, same content).
    @raise Sys_error / Unix.Unix_error on I/O failure. *)

val object_path : dir:string -> key -> string
(** Where the object lives (exists or would live). *)
