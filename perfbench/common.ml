(* Machinery the three workloads share: the clock, percentiles and the
   windowed end-to-end summary, the machine-speed probe, peak-RSS
   readings, input generators, Obs helpers and the run outcome. *)

open Netgraph
module Json = Harness.Json

let now = Harness.Timer.now
let time = Harness.Timer.time

let ms secs = secs *. 1000.

(* Nearest-rank percentile [pct] (an integer percent) of a sample, with
   the number of samples strictly beyond it — the count that says
   whether the sample supports the percentile at all. *)
let percentile xs pct =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "percentile of an empty sample";
  let rank = max 1 (((pct * n) + 99) / 100) in
  (a.(rank - 1), n - rank)

let median xs = fst (percentile xs 50)
let sum xs = Array.fold_left ( +. ) 0. xs

let mean xs =
  if Array.length xs = 0 then 0. else sum xs /. float (Array.length xs)


(* The timed sequence runs in [windows] contiguous thirds.  An untraced
   run times its set-up twice before the first third and once after
   each: the median set-up then samples the machine over the whole run,
   like the timed figures, rather than over its first seconds.  A traced
   run covers only the first third (see [traced_share]). *)
let windows = 3

(* The [lo, hi) bounds of the [windows] thirds of [n] requests. *)
let thirds n = List.init windows (fun j -> (j * n / windows, (j + 1) * n / windows))

(* Requests a traced run makes: the first third of the sequence.  The
   per-layer figures carry no bound, and a traced run of the whole
   sequence would take three times as long as an untraced one. *)
let traced_share n = max 1 (n / windows)

(* The end-to-end figures of one timed pass, pooled over all its
   requests: p50, the [tail_pct] percentile, the samples beyond it, and
   throughput, [lat_ms]'s length over [wall] seconds.  Pooling, not a
   median over thirds: between two seeds the sequences differ, and a
   third's throughput varies with its draw of heavy requests about twice
   as much as the whole sequence's does. *)
let summarize ~tail_pct lat_ms ~wall =
  let tail, beyond = percentile lat_ms tail_pct in
  (median lat_ms, tail, float (Array.length lat_ms) /. wall, beyond)

(* setup_s: the median of a run's set-up times, which [note] lists in
   run order. *)
let setup_median note secs =
  note
    (Printf.sprintf "set-ups: %s s, in run order"
       (String.concat " " (List.map (Printf.sprintf "%.4f") secs)));
  median (Array.of_list secs)

(* A fixed integer loop owned by the benchmark, never by the program:
   its time tells a slow machine phase from a regression.  Median of
   three passes of 2^22 xorshift steps. *)
let probe_ms () =
  ms
    (Harness.Timer.time_median ~repeat:3 (fun () ->
         let x = ref 0x2545F491 in
         for _ = 1 to 1 lsl 22 do
           let v = !x lxor (!x lsl 13) in
           let v = v lxor (v lsr 7) in
           x := v lxor (v lsl 17)
         done;
         Sys.opaque_identity !x))

(* Peak resident set (VmHWM) of a live process, in MiB; 0 once it is
   gone. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%d/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | exception End_of_file -> 0.
            | line when String.starts_with ~prefix:"VmHWM:" line ->
                Scanf.sscanf
                  (String.sub line 6 (String.length line - 6))
                  " %d kB"
                  (fun kb -> float kb /. 1024.)
            | _ -> scan ()
          in
          scan ())

(* Reset this process's VmHWM to its current resident set. *)
let reset_peak_rss () =
  let oc = open_out "/proc/self/clear_refs" in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc "5")

(* Pids whose parent is [pid], from /proc/<n>/stat (the field after the
   parenthesised command name is the state, then the parent pid). *)
let children pid =
  Sys.readdir "/proc" |> Array.to_list
  |> List.filter_map (fun entry ->
         match int_of_string_opt entry with
         | None -> None
         | Some child -> (
             match open_in (Printf.sprintf "/proc/%d/stat" child) with
             | exception Sys_error _ -> None
             | ic ->
                 let line =
                   Fun.protect
                     ~finally:(fun () -> close_in_noerr ic)
                     (fun () -> try input_line ic with End_of_file -> "")
                 in
                 match String.rindex_opt line ')' with
                 | None -> None
                 | Some i ->
                     Scanf.sscanf
                       (String.sub line (i + 1) (String.length line - i - 1))
                       " %c %d"
                       (fun _ ppid -> if ppid = pid then Some child else None)))

(* --- Input generators (all O(n + m), driven by the run's seed) --- *)

let relabel rng g =
  let n = Graph.n g in
  let perm = Prng.Rng.shuffle rng (Array.init n Fun.id) in
  Graph.make ~n
    (Array.to_list
       (Array.map (fun { Graph.u; v } -> (perm.(u), perm.(v))) (Graph.edges g)))

(* [extra] distinct random pairs on top of [tree_edges], each drawn by
   [pick], skipping duplicates of edges already present. *)
let add_random_edges ~n ~tree_edges ~extra ~pick =
  let seen = Hashtbl.create (List.length tree_edges + extra) in
  let key u v = if u < v then (u * n) + v else (v * n) + u in
  List.iter (fun (u, v) -> Hashtbl.replace seen (key u v) ()) tree_edges;
  let edges = ref tree_edges in
  let added = ref 0 and tries = ref 0 in
  while !added < extra && !tries < 20 * (extra + 1) do
    incr tries;
    let u, v = pick () in
    if u <> v && not (Hashtbl.mem seen (key u v)) then begin
      Hashtbl.replace seen (key u v) ();
      edges := (u, v) :: !edges;
      incr added
    end
  done;
  Graph.make ~n !edges

(* Connected random bipartite graph with sides [0, a) and [a, a+b): a
   random spanning tree that alternates sides, plus [extra] random cross
   pairs.  Connectivity is by construction, so Model.make accepts it. *)
let connected_bipartite rng ~a ~b ~extra =
  let n = a + b in
  let order = Prng.Rng.shuffle rng (Array.init n Fun.id) in
  let side_a = Array.make n 0 and side_b = Array.make n 0 in
  let na = ref 0 and nb = ref 0 in
  let tree = ref [] in
  let place v =
    if v < a then begin
      if !nb > 0 then tree := (v, side_b.(Prng.Rng.int rng !nb)) :: !tree;
      side_a.(!na) <- v;
      incr na
    end
    else begin
      if !na > 0 then tree := (side_a.(Prng.Rng.int rng !na), v) :: !tree;
      side_b.(!nb) <- v;
      incr nb
    end
  in
  (* Seed one vertex of each side first so every later vertex finds a
     partner on the opposite side. *)
  place 0;
  place a;
  Array.iter (fun v -> if v <> 0 && v <> a then place v) order;
  add_random_edges ~n ~tree_edges:!tree ~extra ~pick:(fun () ->
      (Prng.Rng.int rng a, a + Prng.Rng.int rng b))

(* Connected sparse G(n,p)-style graph: a uniform random tree plus
   [extra] uniformly random pairs.  With a few dozen extra pairs an odd
   cycle is all but certain; callers that need one check for it. *)
let connected_random rng ~n ~extra =
  let tree =
    Array.to_list
      (Array.map
         (fun { Graph.u; v } -> (u, v))
         (Graph.edges (Gen.random_tree rng ~n)))
  in
  add_random_edges ~n ~tree_edges:tree ~extra ~pick:(fun () ->
      (Prng.Rng.int rng n, Prng.Rng.int rng n))

(* What one workload run hands back to the entry point. *)
type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;  (** by name; units live in Perfbench *)
  notes : string list;  (** human-readable lines printed before the result *)
}

(* The deterministic Obs counters a pass recorded. *)
let counted f =
  let snap = Harness.Obs.snapshot () in
  let r = f () in
  (r, (Harness.Obs.delta snap).Harness.Obs.counters)

let counter name counters =
  match List.assoc_opt name counters with Some v -> v | None -> 0

let with_level level f =
  let prev = Harness.Obs.level () in
  Harness.Obs.set_level level;
  Fun.protect ~finally:(fun () -> Harness.Obs.set_level prev) f
