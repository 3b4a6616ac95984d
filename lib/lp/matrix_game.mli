(** Exact Nash solutions of finite two-player zero-sum matrix games.

    [solve m] takes the m×n payoff matrix of the ROW player (the
    maximizer; the column player minimizes the same quantity) and
    returns the game value together with optimal mixed strategies for
    both sides, all as exact rationals — by the minimax theorem the pair
    is a Nash equilibrium and the value is unique.  The computation is
    one primal-simplex run ({!Simplex}): the matrix is shifted so every
    entry is ≥ 1, the column player's strategy is read off the packing
    optimum [max Σ w subject to M'w ≤ 1], and the row player's off the
    dual; exact arithmetic makes strong duality an equality, not an
    approximation.

    The column player's strategies are the LP's columns, so a game with
    a fixed row set can also be kept open ({!create}) and grown one
    column at a time ({!add_column}), each {!optimize} continuing the
    same simplex tableau from its previous optimal basis.  This is the
    restricted-game kernel of the double-oracle solver
    ({!Solver.Double_oracle}), whose defender strategies arrive as new
    columns on almost every iteration. *)

module Q = Exact.Q

type solution = {
  value : Q.t;  (** the game value, payoff to the row maximizer *)
  row_strategy : Q.t array;  (** maximizer mix over rows; sums to 1 *)
  col_strategy : Q.t array;  (** minimizer mix over columns; sums to 1 *)
}

(** [solve m] computes value and optimal mixed strategies of the
    zero-sum game with row-maximizer payoff matrix [m] (m×n, m,n ≥ 1),
    on a fresh tableau.
    @raise Invalid_argument on an empty or ragged matrix. *)
val solve : Q.t array array -> solution

(** A game with a fixed row set whose columns arrive incrementally. *)
type t

(** [create ~rows ~floor] is the game with [rows] rows (≥ 1) and no
    columns yet.  [floor] is a lower bound on every entry any column
    will hold: it fixes the payoff shift once, so the tableau never has
    to be rebuilt.  One-shot {!solve} uses the matrix minimum.
    @raise Invalid_argument when [rows < 1]. *)
val create : rows:int -> floor:Q.t -> t

(** [add_column g col] appends a column (one payoff per row).  It
    enters at weight 0, so the previous optimum stays feasible and the
    next {!optimize} merely prices the newcomer.
    @raise Invalid_argument on a wrong length or an entry below the
    floor. *)
val add_column : t -> Q.t array -> unit

(** Columns added so far. *)
val columns : t -> int

(** [optimize g] solves the game on the columns added so far,
    continuing from the previous optimal basis.  In degenerate games
    with several optimal bases, the strategies may differ from a fresh
    {!solve} of the same matrix; the value never does.
    @raise Invalid_argument when no column has been added. *)
val optimize : t -> solution

(** [is_equilibrium m sol] checks the certificate exactly: both
    strategies are distributions, no pure row deviation exceeds
    [sol.value] against [sol.col_strategy], and no pure column deviation
    drops below it against [sol.row_strategy]. *)
val is_equilibrium : Q.t array array -> solution -> bool
