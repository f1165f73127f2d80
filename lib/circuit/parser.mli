(** Text format for circuits (".cct").

    {v
    # comment
    circuit fig1a
    input A B
    gate a NOT B
    gate c AND a b
    celem y a c          # shorthand for gate y CELEM a c
    sop w ( a b c ) 11- --1
    output y
    initial A=0 B=1 a=1 c=0 y=0 w=0
    end
    v}

    Gate definitions may reference later gates (feedback).  The
    [initial] line assigns every gate by name; assigning an input name
    sets both the environment node and its buffer. *)

val parse_string : string -> (Circuit.t, string) result

(** One lint finding.  [line] is 1-based; 0 marks a file-level problem
    (e.g. a missing [circuit] directive). *)
type diag = {
  line : int;
  msg : string;
}

val lint_string : string -> diag list
(** Semantic validation that reports {e every} problem — duplicate net
    names, dangling fanin/output/initial references, gate arity
    mismatches, malformed cubes and directives, partial or duplicated
    initial assignments — sorted by line, instead of stopping at the
    first like {!parse_string}.  Empty means {!parse_string} will
    almost surely succeed (builder-level errors excepted).  Never
    raises. *)

val to_string : Circuit.t -> string
(** Render in the same format (modulo comments); [parse_string] of the
    result reproduces the circuit. *)
