(* The [closed-form] workload: characterization answers computed exactly
   as the daemon worker computes them (Service.Daemon_service.handle on
   a characterization solve), in process, on sparse graphs of a few
   thousand vertices.  It runs the paper's A_tuple and the graph and
   matching substrate at scale and never the LP, so LP work should leave
   it flat.

   Families, one request of each in turn, sizes cycling through fixed
   bands so per-request costs stay within a few-fold of each other:
   random trees, grids and caterpillars (relabeled at random), balanced
   random bipartite graphs, skewed random bipartite graphs (sides 2:3,
   where the blossom-based edge cover dominates), and non-bipartite
   connected G(n,p)-style graphs, which have no admissible partition and
   so give negative answers. *)

open Netgraph
module Json = Harness.Json
module Q = Exact.Q

type input = {
  id : int;  (** position in the instance pool *)
  sparse6 : string;
  k : int;
  nu : int;
  msg : Json.t;
  solvable : bool;  (** bipartite families must be solvable, the rest not *)
}

type answer = Json.t

let per_second = 60
let tail_pct = 90

(* Distinct instances per run, 50 of each family; the sequence cycles
   through them.  Every request is a fresh handle call (nothing is
   cached in process), so repeats cost what first calls cost, and the
   seed's draw of graphs is averaged over the whole pool. *)
let pool_size = 300

(* Sizes step through [bands] positions per family. *)
let bands = 8

(* name, generator from the rng and a size position in [0, bands) *)
let families =
  [|
    ("tree", fun rng i -> Gen.random_tree rng ~n:(4000 + (125 * i)));
    ("grid", fun rng i -> Common.relabel rng (Gen.grid (60 + i) (68 + i)));
    ( "caterpillar",
      fun rng i -> Common.relabel rng (Gen.caterpillar ~spine:(1300 + (40 * i)) ~legs:2) );
    ( "bipartite",
      fun rng i ->
        let a = 1400 + (40 * i) in
        Common.connected_bipartite rng ~a ~b:a ~extra:(2 * a) );
    ( "bipartite-skew",
      fun rng i ->
        let a = 500 + (10 * i) in
        Common.connected_bipartite rng ~a ~b:(3 * a / 2) ~extra:(5 * a / 2) );
    ( "gnp",
      fun rng i ->
        let rec odd () =
          let g = Common.connected_random rng ~n:(4000 + (125 * i)) ~extra:2000 in
          if Bipartite.is_bipartite g then odd () else g
        in
        odd () );
  |]

let generate rng ~count =
  let nf = Array.length families in
  let pool =
    Array.init (min count pool_size) (fun i ->
      let name, build = families.(i mod nf) in
      let g = build rng (i / nf mod bands) in
      let k = 1 + (i / nf mod 3) and nu = 1 + (i / (3 * nf) mod 3) in
      let sparse6 = Graph6.encode_sparse6 g in
      {
        id = i;
        sparse6;
        k;
        nu;
        msg =
          Json.Obj
            [
              ("op", Json.String "solve");
              ("graph6", Json.String sparse6);
              ("k", Json.Int k);
              ("nu", Json.Int nu);
            ];
        solvable = name <> "gnp";
      })
  in
  Array.init count (fun i -> pool.(i mod Array.length pool))

(* Four of each family, at the four smallest sizes. *)
let warmup_count = 4 * Array.length families

let layers =
  [|
    "graph6.decode_ms";
    "model.make_ms";
    "matching_nash.find_partition_ms";
    "tuple_nash.a_tuple_ms";
    "gain_ms";
    "verify.certificate_ms";
    "edge_cover.rho_ms";
  |]

let q q = Json.String (Q.to_string q)
let ok result = Json.Obj [ ("ok", Json.Bool true); ("result", result) ]

(* The traced request is the handler's characterization chain spelled
   out call by call, so each layer gets its own span; the traced pass
   checks that it answers byte for byte what [handle] answers. *)
let exec ~traced (s : Inproc.step) x =
  if not traced then Service.Daemon_service.handle x.msg
  else begin
    let g = s.step 0 (fun () -> Graph6.decode x.sparse6) in
    let m = s.step 1 (fun () -> Defender.Model.make ~graph:g ~nu:x.nu ~k:x.k) in
    let part = s.step 2 (fun () -> Defender.Matching_nash.find_partition g) in
    (* Without a partition, a_tuple_auto repeats only the bipartiteness
       test and returns the handler's own error text. *)
    let r =
      s.step 3 (fun () ->
          match part with
          | Some p -> Defender.Tuple_nash.a_tuple m p
          | None -> Defender.Tuple_nash.a_tuple_auto m)
    in
    match r with
    | Error reason ->
        ok (Json.Obj [ ("solvable", Json.Bool false); ("reason", Json.String reason) ])
    | Ok prof ->
        let gain, escape =
          s.step 4 (fun () ->
              (Defender.Gain.defender_gain prof, Defender.Gain.escape_probability prof 0))
        in
        let verdict =
          s.step 5 (fun () -> Defender.Verify.mixed_ne Defender.Verify.Certificate prof)
        in
        let rho = s.step 6 (fun () -> Matching.Edge_cover.rho g) in
        ok
          (Json.Obj
             [
               ("solvable", Json.Bool true);
               ("gain", q gain);
               ("escape", q escape);
               ("rho", Json.Int rho);
               ("verdict", Json.String (Defender.Verify.verdict_to_string verdict));
             ])
  end

let digest a = Json.to_string a

let field path json =
  List.fold_left (fun j key -> Option.bind j (Json.member key)) (Some json) path

(* Independent of the answer: the expected solvability comes from the
   family, |IS| from the partition, and the gain and escape probability
   from the paper's closed forms k·ν/|IS| and 1 − k/|IS|; ρ must equal
   |IS| (every admissible partition has |IS| = α = ρ). *)
let expected = Hashtbl.create pool_size

let expected_fields x =
  match Hashtbl.find_opt expected x.id with
  | Some e -> e
  | None ->
      let g = Graph6.decode x.sparse6 in
      let m = Defender.Model.make ~graph:g ~nu:x.nu ~k:x.k in
      let e =
        Option.map
          (fun p ->
            let is_size = List.length p.Defender.Matching_nash.is in
            [
              ("verdict", Json.String "confirmed");
              ("gain", q (Defender.Gain.predicted_gain m ~is_size));
              ("escape", q (Defender.Gain.predicted_escape_probability m ~is_size));
              ("rho", Json.Int is_size);
            ])
          (Defender.Matching_nash.find_partition g)
      in
      Hashtbl.replace expected x.id e;
      e

let check x a =
  match (field [ "ok" ] a, field [ "result"; "solvable" ] a) with
  | Some (Json.Bool true), Some (Json.Bool solvable) ->
      if solvable <> x.solvable then
        Some (Printf.sprintf "solvable = %b, expected %b" solvable x.solvable)
      else if not solvable then None
      else begin
        match expected_fields x with
        | None -> Some "no partition for a solvable answer"
        | Some expect ->
            List.find_map
              (fun (key, want) ->
                let got = field [ "result"; key ] a in
                if got = Some want then None
                else
                  Some
                    (Printf.sprintf "%s = %s, expected %s" key
                       (match got with Some j -> Json.to_string j | None -> "missing")
                       (Json.to_string want)))
              expect
      end
  | _ -> Some ("not a solve answer: " ^ Json.to_string a)

let answer_metrics _ = []
