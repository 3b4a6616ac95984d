(* One exact packing-form simplex engine: a persistent, column-major
   tableau that grows by [add_column].  See simplex.mli for the contract;
   the invariants the code below maintains:

   - Every stored column is the CURRENT tableau column B⁻¹a (structural
     columns, then the slack columns, which together hold B⁻¹), and
     [rhs] is B⁻¹b ≥ 0 — the basis is primal feasible at all times, so
     re-optimizing after a column is appended starts where the previous
     optimization stopped.
   - [reduced] holds c_j − y·a_j for every variable; the slack entries
     are −y, so a new column's reduced cost is c_j + Σ_i reduced_slack_i
     · a_i without touching the rest of the tableau.
   - Variables are numbered structurals first (0..n−1, in insertion
     order) and slacks after them ([n + i] for row i), the order Bland's
     rule and every tie-break use.  Appending a column renumbers the
     slacks, but never during one optimization, which is the span
     Bland's finiteness argument needs. *)

module Q = Exact.Q

type solution = { objective : Q.t; x : Q.t array; dual : Q.t array }
type outcome = Optimal of solution | Unbounded

let c_pivots = Obs.counter "lp.pivots"
let c_degenerate = Obs.counter "lp.degenerate_pivots"

(* Consecutive degenerate pivots Dantzig pricing may make before Bland's
   rule takes over; the next nondegenerate pivot switches back. *)
let degenerate_limit = 8

type t = {
  m : int;
  rhs : Q.t array;
  slack : Q.t array array;  (** column of slack i: B⁻¹ e_i *)
  slack_reduced : Q.t array;  (** reduced cost of slack i, i.e. −y_i *)
  mutable cols : Q.t array array;  (** structural columns; first [n] used *)
  mutable reduced : Q.t array;
  mutable n : int;
  basis : int array;
      (** basic variable of each row: structural [j ≥ 0], or slack
          [i] encoded as [-1 - i] so that appends leave it unchanged *)
  mutable objective : Q.t;
}

let create ~b =
  Array.iter
    (fun bi ->
      if Q.( < ) bi Q.zero then
        invalid_arg "Simplex.create: negative right-hand side (packing form)")
    b;
  let m = Array.length b in
  {
    m;
    rhs = Array.copy b;
    slack =
      Array.init m (fun i ->
          Array.init m (fun r -> if r = i then Q.one else Q.zero));
    slack_reduced = Array.make m Q.zero;
    cols = [||];
    reduced = [||];
    n = 0;
    basis = Array.init m (fun i -> -1 - i);
    objective = Q.zero;
  }

let grow arr n fill =
  if n < Array.length arr then arr
  else
    let bigger = Array.make (max 8 (2 * n)) fill in
    Array.blit arr 0 bigger 0 n;
    bigger

let add_column t ~a ~c =
  if Array.length a <> t.m then invalid_arg "Simplex.add_column: |a| <> rows";
  (* B⁻¹a from the slack columns, and c − y·a from their reduced costs. *)
  let col = Array.make t.m Q.zero in
  let d = ref c in
  Array.iteri
    (fun i ai ->
      if not (Q.is_zero ai) then begin
        let s = t.slack.(i) in
        for r = 0 to t.m - 1 do
          if not (Q.is_zero s.(r)) then
            col.(r) <- Q.add col.(r) (Q.mul ai s.(r))
        done;
        d := Q.add !d (Q.mul ai t.slack_reduced.(i))
      end)
    a;
  t.cols <- grow t.cols t.n [||];
  t.reduced <- grow t.reduced t.n Q.zero;
  t.cols.(t.n) <- col;
  t.reduced.(t.n) <- !d;
  t.n <- t.n + 1

(* Bland order on variable codes: structurals by index, then slacks. *)
let key t v = if v >= 0 then v else t.n - 1 - v

let column t v = if v >= 0 then t.cols.(v) else t.slack.(-1 - v)
let reduced t v = if v >= 0 then t.reduced.(v) else t.slack_reduced.(-1 - v)

(* Entering variable, as a code: Dantzig takes the largest positive
   reduced cost, Bland the first positive one; both break ties by the
   lowest index.  [None] at optimality. *)
let entering t ~bland =
  let best = ref None in
  let consider v d =
    if Q.( > ) d Q.zero then
      match !best with
      | Some (_, bd) when bland || Q.( <= ) d bd -> ()
      | _ -> best := Some (v, d)
  in
  for j = 0 to t.n - 1 do
    consider j t.reduced.(j)
  done;
  for i = 0 to t.m - 1 do
    consider (-1 - i) t.slack_reduced.(i)
  done;
  Option.map fst !best

(* Ratio test on the entering column: the row with the least rhs/e,
   ties to the basic variable of lowest index.  [None] when no entry is
   positive (unbounded). *)
let leaving t e =
  let best = ref (-1) and best_ratio = ref Q.zero in
  for i = 0 to t.m - 1 do
    if Q.( > ) e.(i) Q.zero then begin
      let ratio = Q.div t.rhs.(i) e.(i) in
      if
        !best < 0
        || Q.( < ) ratio !best_ratio
        || Q.equal ratio !best_ratio
           && key t t.basis.(i) < key t t.basis.(!best)
      then begin
        best := i;
        best_ratio := ratio
      end
    end
  done;
  if !best < 0 then None else Some !best

(* Pivot variable [v] (tableau column [e], captured before any update)
   into row [r].  A column whose row-[r] entry is zero is unchanged, so
   only those with a nonzero entry there are touched. *)
let pivot t v e r =
  let p = e.(r) in
  let update col =
    if Q.is_zero col.(r) then Q.zero
    else begin
      let cr = Q.div col.(r) p in
      col.(r) <- cr;
      for i = 0 to t.m - 1 do
        if i <> r && not (Q.is_zero e.(i)) then
          col.(i) <- Q.sub col.(i) (Q.mul e.(i) cr)
      done;
      cr
    end
  in
  let dv = reduced t v in
  let step = update t.rhs in
  t.objective <- Q.add t.objective (Q.mul dv step);
  for j = 0 to t.n - 1 do
    if j <> v then begin
      let cr = update t.cols.(j) in
      if not (Q.is_zero cr) then
        t.reduced.(j) <- Q.sub t.reduced.(j) (Q.mul dv cr)
    end
  done;
  for i = 0 to t.m - 1 do
    if -1 - i <> v then begin
      let cr = update t.slack.(i) in
      if not (Q.is_zero cr) then
        t.slack_reduced.(i) <- Q.sub t.slack_reduced.(i) (Q.mul dv cr)
    end
  done;
  (* The entering column becomes the unit vector of row r. *)
  let unit = column t v in
  for i = 0 to t.m - 1 do
    unit.(i) <- (if i = r then Q.one else Q.zero)
  done;
  if v >= 0 then t.reduced.(v) <- Q.zero
  else t.slack_reduced.(-1 - v) <- Q.zero;
  t.basis.(r) <- v;
  Q.is_zero step

let solution t =
  let x = Array.make t.n Q.zero in
  Array.iteri (fun i v -> if v >= 0 then x.(v) <- t.rhs.(i)) t.basis;
  { objective = t.objective; x; dual = Array.map Q.neg t.slack_reduced }

let optimize t =
  let rec go ~degenerate_run =
    match entering t ~bland:(degenerate_run >= degenerate_limit) with
    | None -> Optimal (solution t)
    | Some v -> (
        let e = Array.copy (column t v) in
        match leaving t e with
        | None -> Unbounded
        | Some r ->
            Obs.incr c_pivots;
            if pivot t v e r then begin
              Obs.incr c_degenerate;
              go ~degenerate_run:(degenerate_run + 1)
            end
            else go ~degenerate_run:0)
  in
  go ~degenerate_run:0

let feasible ~a ~b ~x =
  Array.for_all (fun v -> Q.( >= ) v Q.zero) x
  && Array.for_all Fun.id
       (Array.mapi
          (fun i row ->
            let lhs = ref Q.zero in
            Array.iteri (fun j aij -> lhs := Q.add !lhs (Q.mul aij x.(j))) row;
            Q.( <= ) !lhs b.(i))
          a)

let maximize ~a ~b ~c =
  let m = Array.length a in
  let n = Array.length c in
  Array.iter
    (fun row ->
      if Array.length row <> n then invalid_arg "Simplex.maximize: ragged matrix")
    a;
  if Array.length b <> m then invalid_arg "Simplex.maximize: |b| <> rows";
  Array.iter
    (fun bi ->
      if Q.( < ) bi Q.zero then
        invalid_arg "Simplex.maximize: negative right-hand side (packing form)")
    b;
  let t = create ~b in
  Array.iteri
    (fun j cj -> add_column t ~a:(Array.map (fun row -> row.(j)) a) ~c:cj)
    c;
  optimize t
