(* Tests for the exact zero-sum matrix-game solver (Lp.Matrix_game) and
   the simplex robustness it rests on: equilibrium certificates on
   random matrices, agreement with the independently derived Minimax LP
   on single-edge covering games, degenerate shapes (duplicate rows,
   dominated columns, 1×n), columns appended to one tableau and
   re-optimized, and anti-cycling regressions (Beale's example, one-shot
   and column by column) for the degenerate tableaux the double-oracle
   loop feeds the simplex repeatedly. *)

open Netgraph
module Q = Exact.Q
module MG = Lp.Matrix_game

let q = Alcotest.testable Q.pp Q.equal
let qi = Q.of_int
let matrix rows = Array.of_list (List.map (fun r -> Array.of_list (List.map qi r)) rows)

(* --- shapes and known values --- *)

let test_one_by_n () =
  (* One row: the minimizer picks the smallest entry. *)
  let m = matrix [ [ 3; 1; 4 ] ] in
  let sol = MG.solve m in
  Alcotest.check q "value = min entry" (qi 1) sol.MG.value;
  Alcotest.(check bool) "certificate" true (MG.is_equilibrium m sol);
  let m = matrix [ [ 2 ]; [ 7 ]; [ 5 ] ] in
  let sol = MG.solve m in
  Alcotest.check q "n×1: value = max entry" (qi 7) sol.MG.value;
  Alcotest.(check bool) "certificate" true (MG.is_equilibrium m sol)

let test_constant_and_identity () =
  let m = matrix [ [ -2; -2 ]; [ -2; -2 ] ] in
  let sol = MG.solve m in
  Alcotest.check q "constant matrix" (qi (-2)) sol.MG.value;
  let id = matrix [ [ 1; 0 ]; [ 0; 1 ] ] in
  let sol = MG.solve id in
  Alcotest.check q "matching pennies value" (Q.make 1 2) sol.MG.value;
  Alcotest.check q "row mix uniform" (Q.make 1 2) sol.MG.row_strategy.(0);
  Alcotest.check q "col mix uniform" (Q.make 1 2) sol.MG.col_strategy.(1);
  Alcotest.(check bool) "certificate" true (MG.is_equilibrium id sol)

let test_rock_paper_scissors () =
  let m = matrix [ [ 0; -1; 1 ]; [ 1; 0; -1 ]; [ -1; 1; 0 ] ] in
  let sol = MG.solve m in
  Alcotest.check q "value 0" Q.zero sol.MG.value;
  Array.iter (Alcotest.check q "row uniform" (Q.make 1 3)) sol.MG.row_strategy;
  Array.iter (Alcotest.check q "col uniform" (Q.make 1 3)) sol.MG.col_strategy;
  Alcotest.(check bool) "certificate" true (MG.is_equilibrium m sol)

(* --- degeneracies the double-oracle loop produces --- *)

let test_duplicate_rows () =
  let base = matrix [ [ 1; 0 ]; [ 0; 1 ] ] in
  let dup = matrix [ [ 1; 0 ]; [ 0; 1 ]; [ 0; 1 ] ] in
  let sb = MG.solve base and sd = MG.solve dup in
  Alcotest.check q "duplicating a row keeps the value" sb.MG.value sd.MG.value;
  Alcotest.(check bool) "certificate" true (MG.is_equilibrium dup sd)

let test_dominated_column () =
  (* Column 2 dominates column 0 entrywise (worse for the minimizer),
     so appending it changes nothing. *)
  let base = matrix [ [ 1; 0 ]; [ 0; 1 ] ] in
  let ext = matrix [ [ 1; 0; 2 ]; [ 0; 1; 1 ] ] in
  let sb = MG.solve base and se = MG.solve ext in
  Alcotest.check q "dominated column keeps the value" sb.MG.value se.MG.value;
  Alcotest.check q "dominated column unused" Q.zero se.MG.col_strategy.(2);
  Alcotest.(check bool) "certificate" true (MG.is_equilibrium ext se)

let test_rejects_malformed () =
  Alcotest.check_raises "empty" (Invalid_argument "Matrix_game.solve: empty matrix")
    (fun () -> ignore (MG.solve [||]));
  Alcotest.check_raises "ragged"
    (Invalid_argument "Matrix_game.solve: ragged matrix") (fun () ->
      ignore (MG.solve [| [| Q.one; Q.zero |]; [| Q.one |] |]))

(* --- agreement with the Minimax LP --- *)

(* The k=1 defender game in matrix form: rows = edges (maximizer),
   columns = vertices, payoff = interception indicator.  Its value is
   the max-min interception probability, independently computed by
   Minimax.solve as 1/ρ*(G). *)
let covering_matrix g =
  Array.init (Graph.m g) (fun id ->
      let e = Graph.edge g id in
      Array.init (Graph.n g) (fun v ->
          if v = e.Graph.u || v = e.Graph.v then Q.one else Q.zero))

let test_vs_minimax () =
  List.iter
    (fun (name, g) ->
      let sol = MG.solve (covering_matrix g) in
      let mm = Defender.Minimax.solve g in
      Alcotest.check q
        (Printf.sprintf "%s: matrix-game value = 1/rho*" name)
        mm.Defender.Minimax.value sol.MG.value;
      Alcotest.(check bool)
        (Printf.sprintf "%s: certificate" name)
        true
        (MG.is_equilibrium (covering_matrix g) sol))
    [
      ("P4", Gen.path 4);
      ("C5", Gen.cycle 5);
      ("C6", Gen.cycle 6);
      ("star5", Gen.star 5);
      ("K4", Gen.complete 4);
      ("petersen", Gen.petersen ());
    ]

(* --- random-matrix equilibrium property --- *)

let arb_matrix =
  QCheck.make
    ~print:(fun m ->
      String.concat "; "
        (Array.to_list
           (Array.map
              (fun row ->
                String.concat ","
                  (Array.to_list (Array.map Q.to_string row)))
              m)))
    QCheck.Gen.(
      int_range 1 4 >>= fun rows ->
      int_range 1 4 >>= fun cols ->
      list_repeat (rows * cols) (map qi (int_range (-5) 5)) >>= fun entries ->
      let entries = Array.of_list entries in
      return
        (Array.init rows (fun i ->
             Array.init cols (fun j -> entries.((i * cols) + j)))))

let prop_random_equilibrium =
  QCheck.Test.make ~name:"Matrix_game.solve returns an exact equilibrium"
    ~count:300 arb_matrix (fun m -> MG.is_equilibrium m (MG.solve m))

let prop_value_in_range =
  QCheck.Test.make ~name:"game value lies between matrix min and max"
    ~count:300 arb_matrix (fun m ->
      let sol = MG.solve m in
      let mn =
        Array.fold_left (fun a r -> Array.fold_left Q.min a r) m.(0).(0) m
      and mx =
        Array.fold_left (fun a r -> Array.fold_left Q.max a r) m.(0).(0) m
      in
      Q.( <= ) mn sol.MG.value && Q.( <= ) sol.MG.value mx)

(* --- incremental columns on one tableau --- *)

(* A game holding the first [cols] columns of [m], on a floor low
   enough for every entry of [m]. *)
let open_game m cols =
  let floor =
    Array.fold_left (fun a r -> Array.fold_left Q.min a r) m.(0).(0) m
  in
  let g = MG.create ~rows:(Array.length m) ~floor in
  for j = 0 to cols - 1 do
    MG.add_column g (Array.map (fun row -> row.(j)) m)
  done;
  g

let test_warm_column_growth () =
  (* Append columns (including a useless duplicate) and re-optimize the
     same tableau: the answer must match the one-shot solve exactly. *)
  let ext = matrix [ [ 1; 0; 1; 2 ]; [ 0; 1; 0; 2 ] ] in
  let g = open_game ext 2 in
  ignore (MG.optimize g);
  MG.add_column g [| qi 1; qi 0 |];
  MG.add_column g [| qi 2; qi 2 |];
  let sw = MG.optimize g and sc = MG.solve ext in
  Alcotest.check q "warm value = cold value" sc.MG.value sw.MG.value;
  Alcotest.(check bool) "warm certificate" true (MG.is_equilibrium ext sw)

let test_warm_shape_mismatch_falls_back () =
  (* A row was added: the 2-row tableau cannot take a 3-entry column,
     so the caller falls back to a tableau over the new row set, and
     that solve is exact. *)
  let base = matrix [ [ 1; 0 ]; [ 0; 1 ] ] in
  let g = open_game base 2 in
  ignore (MG.optimize g);
  Alcotest.check_raises "taller column rejected"
    (Invalid_argument "Matrix_game.add_column: column length <> rows")
    (fun () -> MG.add_column g [| qi 1; qi 0; qi 1 |]);
  let taller = matrix [ [ 1; 0 ]; [ 0; 1 ]; [ 1; 1 ] ] in
  let sw = MG.optimize (open_game taller 2) in
  (* The new row intercepts both columns, so the value jumps to 1. *)
  Alcotest.check q "fallback solve correct" Q.one sw.MG.value;
  Alcotest.(check bool) "certificate" true (MG.is_equilibrium taller sw)

let prop_warm_equals_cold =
  (* Random base + random appended columns: re-optimizing the grown
     tableau reaches the same (unique) game value as the one-shot solve
     and a valid equilibrium.  Strategies may differ from the one-shot
     solve's when several optimal bases exist — only the value is
     unique. *)
  QCheck.Test.make ~name:"warm restart = cold value on column growth"
    ~count:150
    (QCheck.pair arb_matrix (QCheck.make QCheck.Gen.(int_range 1 3)))
    (fun (m, extra) ->
      let cols = Array.length m.(0) in
      let ext =
        Array.mapi
          (fun i row ->
            Array.append row
              (Array.init extra (fun j -> m.(i).((j + i) mod cols))))
          m
      in
      let g = open_game ext cols in
      ignore (MG.optimize g);
      for j = cols to cols + extra - 1 do
        MG.add_column g (Array.map (fun row -> row.(j)) ext)
      done;
      let sw = MG.optimize g and sc = MG.solve ext in
      Q.equal sw.MG.value sc.MG.value && MG.is_equilibrium ext sw)

let prop_batches_equal_one_shot =
  (* Columns of a random matrix appended in random batches, the tableau
     re-optimized after each batch: every intermediate game agrees with
     the one-shot solve of the same column prefix, value exactly, and
     passes the equilibrium certificate. *)
  QCheck.Test.make ~name:"batched add_column = one-shot solve" ~count:200
    (QCheck.pair arb_matrix
       (QCheck.make QCheck.Gen.(list_size (int_range 1 4) (int_range 1 3))))
    (fun (m, batches) ->
      let cols = Array.length m.(0) in
      let prefix c = Array.map (fun row -> Array.sub row 0 c) m in
      let g = open_game m 0 in
      let rec feed added = function
        | _ when added = cols -> true
        | [] -> feed added [ cols ]
        | b :: rest ->
            let upto = min cols (added + b) in
            for j = added to upto - 1 do
              MG.add_column g (Array.map (fun row -> row.(j)) m)
            done;
            let sol = MG.optimize g in
            Q.equal sol.MG.value (MG.solve (prefix upto)).MG.value
            && MG.is_equilibrium (prefix upto) sol
            && feed upto rest
      in
      feed 0 batches)

(* --- simplex robustness: degeneracy and anti-cycling --- *)

let test_beale_cycling () =
  (* Beale's classic cycling example; without an anti-cycling rule the
     textbook largest-coefficient pivot loops forever.  Bland's rule
     must terminate at objective 1/20. *)
  let a =
    [|
      [| Q.make 1 4; qi (-60); Q.make (-1) 25; qi 9 |];
      [| Q.make 1 2; qi (-90); Q.make (-1) 50; qi 3 |];
      [| Q.zero; Q.zero; Q.one; Q.zero |];
    |]
  in
  let b = [| Q.zero; Q.zero; Q.one |] in
  let c = [| Q.make 3 4; qi (-150); Q.make 1 50; qi (-6) |] in
  match Lp.Simplex.maximize ~a ~b ~c with
  | Lp.Simplex.Unbounded -> Alcotest.fail "Beale LP is bounded"
  | Lp.Simplex.Optimal { objective; x; _ } ->
      Alcotest.check q "Beale optimum" (Q.make 1 20) objective;
      Alcotest.(check bool) "optimum feasible" true
        (Lp.Simplex.feasible ~a ~b ~x)

let test_degenerate_duplicate_constraints () =
  let a =
    [| [| Q.one; Q.one |]; [| Q.one; Q.one |]; [| Q.one; Q.zero |] |]
  in
  let b = [| Q.one; Q.one; Q.one |] in
  let c = [| Q.one; Q.one |] in
  match Lp.Simplex.maximize ~a ~b ~c with
  | Lp.Simplex.Unbounded -> Alcotest.fail "bounded"
  | Lp.Simplex.Optimal { objective; _ } ->
      Alcotest.check q "duplicate constraints" Q.one objective

(* Columns of [a] fed to a fresh tableau one at a time, re-optimizing
   after each. *)
let column_by_column ~a ~b ~c =
  let t = Lp.Simplex.create ~b in
  let last = ref Lp.Simplex.Unbounded in
  Array.iteri
    (fun j cj ->
      Lp.Simplex.add_column t ~a:(Array.map (fun row -> row.(j)) a) ~c:cj;
      last := Lp.Simplex.optimize t)
    c;
  (t, !last)

let test_beale_column_by_column () =
  (* The same cycling example grown through add_column: every
     intermediate LP is bounded and the last one ends at 1/20. *)
  let a =
    [|
      [| Q.make 1 4; qi (-60); Q.make (-1) 25; qi 9 |];
      [| Q.make 1 2; qi (-90); Q.make (-1) 50; qi 3 |];
      [| Q.zero; Q.zero; Q.one; Q.zero |];
    |]
  in
  let b = [| Q.zero; Q.zero; Q.one |] in
  let c = [| Q.make 3 4; qi (-150); Q.make 1 50; qi (-6) |] in
  match column_by_column ~a ~b ~c with
  | _, Lp.Simplex.Unbounded -> Alcotest.fail "Beale LP is bounded"
  | _, Lp.Simplex.Optimal { objective; x; _ } ->
      Alcotest.check q "Beale optimum" (Q.make 1 20) objective;
      Alcotest.(check bool) "optimum feasible" true
        (Lp.Simplex.feasible ~a ~b ~x)

let test_simplex_warm_basis_roundtrip () =
  let a = [| [| Q.one; Q.one |]; [| Q.one; Q.zero |] |] in
  let b = [| qi 2; Q.one |] in
  let c = [| qi 3; Q.one |] in
  let cold =
    match Lp.Simplex.maximize ~a ~b ~c with
    | Lp.Simplex.Optimal s -> s
    | Lp.Simplex.Unbounded -> Alcotest.fail "bounded"
  in
  (* Re-optimizing a tableau already at its optimum returns it again. *)
  let t, _ = column_by_column ~a ~b ~c in
  (match Lp.Simplex.optimize t with
  | Lp.Simplex.Optimal s ->
      Alcotest.check q "re-solve from own basis" cold.Lp.Simplex.objective
        s.Lp.Simplex.objective
  | Lp.Simplex.Unbounded -> Alcotest.fail "bounded");
  Alcotest.check_raises "wrong column length"
    (Invalid_argument "Simplex.add_column: |a| <> rows")
    (fun () -> Lp.Simplex.add_column t ~a:[| Q.one |] ~c:Q.one);
  Alcotest.check_raises "negative right-hand side"
    (Invalid_argument "Simplex.create: negative right-hand side (packing form)")
    (fun () -> ignore (Lp.Simplex.create ~b:[| Q.one; qi (-1) |]))

let () =
  Alcotest.run "matrix_game"
    [
      ( "shapes",
        [
          Alcotest.test_case "1xn and nx1" `Quick test_one_by_n;
          Alcotest.test_case "constant and identity" `Quick
            test_constant_and_identity;
          Alcotest.test_case "rock-paper-scissors" `Quick
            test_rock_paper_scissors;
          Alcotest.test_case "duplicate rows" `Quick test_duplicate_rows;
          Alcotest.test_case "dominated column" `Quick test_dominated_column;
          Alcotest.test_case "malformed input" `Quick test_rejects_malformed;
        ] );
      ("minimax", [ Alcotest.test_case "k=1 covering games" `Quick test_vs_minimax ]);
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_random_equilibrium;
          QCheck_alcotest.to_alcotest prop_value_in_range;
          QCheck_alcotest.to_alcotest prop_warm_equals_cold;
          QCheck_alcotest.to_alcotest prop_batches_equal_one_shot;
        ] );
      ( "warm",
        [
          Alcotest.test_case "column growth" `Quick test_warm_column_growth;
          Alcotest.test_case "shape mismatch falls back" `Quick
            test_warm_shape_mismatch_falls_back;
        ] );
      ( "simplex",
        [
          Alcotest.test_case "Beale anti-cycling" `Quick test_beale_cycling;
          Alcotest.test_case "Beale column by column" `Quick
            test_beale_column_by_column;
          Alcotest.test_case "degenerate duplicate constraints" `Quick
            test_degenerate_duplicate_constraints;
          Alcotest.test_case "warm basis roundtrip" `Quick
            test_simplex_warm_basis_roundtrip;
        ] );
    ]
