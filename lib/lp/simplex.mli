(** Exact linear programming over rationals: one persistent primal
    simplex tableau on problems in packing form

      maximize    c . x
      subject to  A x <= b,   x >= 0,   with b >= 0.

    The non-negativity of [b] makes the all-slack basis feasible, so no
    phase-1 is needed; this covers the fractional covering/packing duals
    the defender analysis requires (see {!Defender.Minimax}) and the
    restricted matrix games of {!Matrix_game}.  All arithmetic is exact,
    so returned optima are certificates, not approximations.

    The tableau keeps a fixed row set ([b]) and grows by {!add_column}:
    the new column enters as B⁻¹a with reduced cost c − y·a, the current
    basis stays primal feasible, and {!optimize} continues from it — no
    basis is ever rebuilt.  This is what the double-oracle solver's
    column generation runs on; {!maximize} is the one-shot wrapper.

    Pricing is Dantzig's (largest positive reduced cost, lowest index on
    ties); after 8 consecutive degenerate pivots it falls back to
    Bland's rule until the next nondegenerate pivot, so the simplex
    never cycles.  The ratio test breaks ties by the lowest basic index.
    Variables are indexed structurals first (insertion order), then
    slacks.  Pivots are counted by the [lp.pivots] and
    [lp.degenerate_pivots] {!Obs} counters. *)

module Q = Exact.Q

type solution = {
  objective : Q.t;
  x : Q.t array;  (** primal optimum, length = #columns *)
  dual : Q.t array;
      (** dual optimum (one multiplier per row), read off the slack
          reduced costs; certifies optimality by strong duality *)
}

type outcome =
  | Optimal of solution
  | Unbounded

(** A tableau: fixed rows, growing columns, a primal-feasible basis. *)
type t

(** [create ~b] is the tableau with right-hand sides [b] (all ≥ 0), no
    columns yet, and the all-slack basis.
    @raise Invalid_argument on a negative entry in [b]. *)
val create : b:Q.t array -> t

(** [add_column t ~a ~c] appends a structural variable with constraint
    column [a] (one entry per row) and objective coefficient [c].  It
    enters nonbasic at 0, so the current basis stays feasible.
    @raise Invalid_argument when [a] has the wrong length. *)
val add_column : t -> a:Q.t array -> c:Q.t -> unit

(** [optimize t] pivots from the current basis to an optimum of the
    columns added so far.  After [Unbounded] the tableau is unchanged
    by the failed step and stays usable. *)
val optimize : t -> outcome

(** [maximize ~a ~b ~c] solves the LP above on a fresh tableau.
    [a] is the m×n constraint matrix (rows of length n), [b] the m
    right-hand sides (all ≥ 0), [c] the n objective coefficients.
    @raise Invalid_argument on ragged input or a negative entry in [b]. *)
val maximize : a:Q.t array array -> b:Q.t array -> c:Q.t array -> outcome

(** [feasible ~a ~b ~x]: does [x ≥ 0] satisfy [A x ≤ b]? *)
val feasible : a:Q.t array array -> b:Q.t array -> x:Q.t array -> bool
