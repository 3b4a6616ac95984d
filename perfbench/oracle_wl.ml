(* The [oracle] workload: in-process double-oracle solves of instances
   with no closed form, each followed by [profile] and an
   enumeration-free Verify.Oracle certificate.  The restricted LP is
   most of double-oracle time, so LP and rational-arithmetic changes
   show here; the workload never touches the daemon, the canonicalizer
   or the matching code.

   Instances are connected sparse G(n,p) graphs with ν = 2, cycling
   through four kinds (tuple k = 2, 3; subgraph λ = 2, 3).  Each kind's
   n band is chosen so that per-request costs stay within a few-fold of
   each other: the tail then sits on the body of one distribution, not
   on the boundary between a cheap and an expensive class.  The n of
   each request follows a fixed cycle, so seeds change the graphs but
   not the mix. *)

open Netgraph
module DO = Solver.Instances.Tuple
module DOS = Solver.Instances.Subgraph
module SEngine = Defender.Subgraph_instance.Engine

type input = Tuple of Defender.Model.t | Subgraph of Defender.Subgraph_game.instance

type answer = {
  confirmed : bool;
  verdict : string;
  value : string;
  iterations : int;
  warm_solves : int;
  support : int;
  cols : int;
  gaps : float list;  (** seconds between iterations, traced passes only *)
}

(* game, k or λ, n band (inclusive), edge probability *)
let kinds =
  [|
    (`Tuple, 2, 20, 22, 0.13);
    (`Tuple, 3, 18, 20, 0.13);
    (`Subgraph, 2, 25, 27, 0.13);
    (`Subgraph, 3, 21, 23, 0.13);
  |]

let per_second = 18
let tail_pct = 90
let nu = 2

let generate rng ~count =
  Array.init count (fun i ->
      let game, power, lo, hi, p = kinds.(i mod Array.length kinds) in
      let n = lo + (i / Array.length kinds mod (hi - lo + 1)) in
      let graph = Gen.gnp_connected rng ~n ~p in
      match game with
      | `Tuple -> Tuple (Defender.Model.make ~graph ~nu ~k:power)
      | `Subgraph -> Subgraph (Defender.Subgraph_game.make ~graph ~nu ~lambda:power))

(* Six of each kind, n stepping through its band. *)
let warmup_count = 6 * Array.length kinds
let layers = [| "do.solve_ms"; "do.profile_ms"; "verify.oracle_ms" |]

(* Gaps between [?on_iteration] callbacks, the first measured from the
   start of the solve. *)
let gap_recorder traced =
  if not traced then (None, fun () -> [])
  else begin
    let last = ref (Common.now ()) and gaps = ref [] in
    ( Some
        (fun _ ->
          let t = Common.now () in
          gaps := (t -. !last) :: !gaps;
          last := t),
      fun () -> List.rev !gaps )
  end

let exec ~traced (s : Inproc.step) x =
  let on_iteration, gaps = gap_recorder traced in
  match x with
  | Tuple m ->
      let r =
        s.step 0 (fun () ->
            DO.solve ?on_iteration:(Option.map (fun f (_ : DO.iteration) -> f ()) on_iteration) m)
      in
      let prof = s.step 1 (fun () -> DO.profile m r) in
      let v = s.step 2 (fun () -> Defender.Verify.mixed_ne Defender.Verify.Oracle prof) in
      {
        confirmed = Defender.Verify.verdict_is_confirmed v;
        verdict = Defender.Verify.verdict_to_string v;
        value = Exact.Q.to_string r.DO.value;
        iterations = r.DO.stats.DO.iterations;
        warm_solves = r.DO.stats.DO.warm_solves;
        support = List.length r.DO.tp;
        cols = r.DO.stats.DO.final_cols;
        gaps = gaps ();
      }
  | Subgraph inst ->
      let r =
        s.step 0 (fun () ->
            DOS.solve ?on_iteration:(Option.map (fun f (_ : DOS.iteration) -> f ()) on_iteration) inst)
      in
      let prof = s.step 1 (fun () -> DOS.profile inst r) in
      let v = s.step 2 (fun () -> SEngine.Verify.mixed_ne SEngine.Verify.Oracle prof) in
      {
        confirmed = SEngine.Verify.verdict_is_confirmed v;
        verdict = SEngine.Verify.verdict_to_string v;
        value = Exact.Q.to_string r.DOS.value;
        iterations = r.DOS.stats.DOS.iterations;
        warm_solves = r.DOS.stats.DOS.warm_solves;
        support = List.length r.DOS.tp;
        cols = r.DOS.stats.DOS.final_cols;
        gaps = gaps ();
      }

let digest a =
  Printf.sprintf "%s|%s|%d|%d|%d|%d" a.value a.verdict a.iterations a.warm_solves
    a.support a.cols

let check _ a =
  if a.confirmed then None else Some ("Verify.Oracle verdict: " ^ a.verdict)

let answer_metrics answers =
  let total f = Array.fold_left (fun acc a -> acc + f a) 0 answers in
  let gaps = Array.of_list (List.concat_map (fun a -> a.gaps) (Array.to_list answers)) in
  [
    ("do.iteration_ms", if gaps = [||] then 0. else Common.ms (Common.median gaps));
    ("do.cold_lp_solves", float (total (fun a -> a.iterations - a.warm_solves)));
    ( "do.col_yield",
      float (total (fun a -> a.support)) /. float (max 1 (total (fun a -> a.cols))) );
  ]
