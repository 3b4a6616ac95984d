(* Zero-sum matrix games on one exact simplex tableau.  See
   matrix_game.mli for the contract; the derivation used here:

   Shift M by s so that M' = M + s has every entry >= 1 (shifting the
   payoff changes the value by s and no strategy).  The column player's
   optimal mix solves  min_y max_i (M'y)_i ; substituting w = y / v'
   (v' the shifted value, > 0) turns it into the packing LP

     max sum_j w_j   s.t.  M'w <= 1,  w >= 0

   whose optimum is 1/v'.  Then y = w / sum w, and by strong duality the
   dual vector u (one multiplier per row) has sum u = sum w with
   x = u / sum u the row player's optimal mix.  Exact rationals make
   both read-offs equalities, so the result is a certificate.  The LP's
   columns are the column player's strategies, so a game that gains
   columns is a tableau that gains columns: the shift is fixed up front
   from a declared floor on the entries. *)

module Q = Exact.Q

type solution = {
  value : Q.t;
  row_strategy : Q.t array;
  col_strategy : Q.t array;
}

type t = {
  tab : Simplex.t;
  rows : int;
  floor : Q.t;
  shift : Q.t;
  mutable cols : int;
}

let create ~rows ~floor =
  if rows < 1 then invalid_arg "Matrix_game.create: no rows";
  {
    tab = Simplex.create ~b:(Array.make rows Q.one);
    rows;
    floor;
    shift = (if Q.( < ) floor Q.one then Q.sub Q.one floor else Q.zero);
    cols = 0;
  }

let columns g = g.cols

let add_column g col =
  if Array.length col <> g.rows then
    invalid_arg "Matrix_game.add_column: column length <> rows";
  Array.iter
    (fun v ->
      if Q.( < ) v g.floor then
        invalid_arg "Matrix_game.add_column: entry below the floor")
    col;
  Simplex.add_column g.tab
    ~a:(Array.map (fun v -> Q.add v g.shift) col)
    ~c:Q.one;
  g.cols <- g.cols + 1

let optimize g =
  if g.cols = 0 then invalid_arg "Matrix_game.optimize: no columns";
  match Simplex.optimize g.tab with
  | Simplex.Unbounded ->
      (* Impossible: every shifted entry is >= 1, so sum w <= 1 over any
         single constraint row. *)
      assert false
  | Simplex.Optimal { objective; x = w; dual = u } ->
      (* objective = 1/v' > 0 since v' is finite and positive. *)
      assert (Q.( > ) objective Q.zero);
      (* Strong duality, exactly. *)
      assert (Q.equal (Array.fold_left Q.add Q.zero u) objective);
      {
        value = Q.sub (Q.inv objective) g.shift;
        row_strategy = Array.map (fun ui -> Q.div ui objective) u;
        col_strategy = Array.map (fun wj -> Q.div wj objective) w;
      }

let check_shape m =
  let rows = Array.length m in
  if rows = 0 then invalid_arg "Matrix_game.solve: empty matrix";
  let cols = Array.length m.(0) in
  if cols = 0 then invalid_arg "Matrix_game.solve: empty matrix";
  Array.iter
    (fun row ->
      if Array.length row <> cols then
        invalid_arg "Matrix_game.solve: ragged matrix")
    m;
  (rows, cols)

let solve m =
  let rows, cols = check_shape m in
  let floor =
    Array.fold_left (fun acc row -> Array.fold_left Q.min acc row) m.(0).(0) m
  in
  let g = create ~rows ~floor in
  for j = 0 to cols - 1 do
    add_column g (Array.map (fun row -> row.(j)) m)
  done;
  optimize g

let is_distribution p =
  Array.for_all (fun v -> Q.( >= ) v Q.zero) p
  && Q.equal (Array.fold_left Q.add Q.zero p) Q.one

let is_equilibrium m (sol : solution) =
  let rows, cols = check_shape m in
  Array.length sol.row_strategy = rows
  && Array.length sol.col_strategy = cols
  && is_distribution sol.row_strategy
  && is_distribution sol.col_strategy
  (* No row beats the value against the column mix... *)
  && Array.for_all
       (fun row ->
         let payoff = ref Q.zero in
         Array.iteri
           (fun j v -> payoff := Q.add !payoff (Q.mul v sol.col_strategy.(j)))
           row;
         Q.( <= ) !payoff sol.value)
       m
  (* ...and no column drops below it against the row mix. *)
  &&
  let ok = ref true in
  for j = 0 to cols - 1 do
    let payoff = ref Q.zero in
    for i = 0 to rows - 1 do
      payoff := Q.add !payoff (Q.mul m.(i).(j) sol.row_strategy.(i))
    done;
    if Q.( < ) !payoff sol.value then ok := false
  done;
  !ok
