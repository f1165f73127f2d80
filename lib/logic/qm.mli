(** Two-level logic minimization of an incompletely specified function
    given by its on-set and off-set: every minterm in neither is a
    don't-care and is never listed.  Exact prime generation, essential
    primes, then a greedy cover for the remainder — adequate for the
    controller-sized functions produced by STG synthesis.

    Both entry points take up to {!max_vars} variables, the int-mask
    width of the rest of the pipeline.
    @raise Invalid_argument if [n] is outside [\[0, max_vars\]], a
    minterm is out of range, or a minterm is in both [on] and [off]. *)

val max_vars : int
(** 62: the most variables a non-negative int mask holds. *)

val primes : n:int -> on:int list -> off:int list -> Cube.t list
(** Every prime implicant of the function that contains at least one
    [on] minterm — the maximal cubes meeting [on] and avoiding [off] —
    in ascending (fixed values, dash mask) order, variable 0 being the
    most significant bit.  These are exactly the primes of
    [on ∪ don't-cares] that a Quine–McCluskey pass would list and that
    cover some on-minterm, in the same order. *)

val minimize : n:int -> on:int list -> off:int list -> Cover.t
(** A cover of [on] by primes of {!primes}: the essential primes, then
    repeatedly the first prime covering the most uncovered
    on-minterms. *)

val minimize_f : n:int -> (int -> bool option) -> Cover.t
(** [minimize_f ~n f] minimizes the function whose value on minterm [m]
    is [f m]; [None] marks a don't-care. *)
