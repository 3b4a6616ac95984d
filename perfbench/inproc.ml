(* The in-process workloads (oracle, closed-form): one caller, closed
   loop, a fixed request sequence generated from the seed before any
   timing starts.

   Untraced run: the timed pass with a warm-up pass twice before it and
   once after each third (the median warm-up is setup_s), then the
   answer checks.  The warm-up requests are generated from a fixed seed,
   not the run's, so set-up does the same work on every seed.

   Traced run, over the first third of the sequence: a warm-up pass, a
   pass at Obs Counters level (the reference counts), then a pass that
   runs each request untraced and then traced, timing every layer call
   inside the traced one.  The traced requests must reproduce the
   untraced answers byte for byte and the reference counts exactly, and
   their layer spans must cover each request span to within
   [coverage_floor]. *)

open Common

(* How a request times its layer calls: [step j f] runs [f] as layer
   [j] of [WORKLOAD.layers]. *)
type step = { step : 'a. int -> (unit -> 'a) -> 'a }

module type WORKLOAD = sig
  type input
  type answer

  (* Requests per second of --seconds: the sequence length is
     [seconds * per_second], fixed before the run, never time-boxed. *)
  val per_second : int

  (* The tail percentile reported as latency_tail_ms. *)
  val tail_pct : int
  val generate : Prng.Rng.t -> count:int -> input array

  (* Requests in the warm-up pass, [generate]d from [warmup_seed]. *)
  val warmup_count : int

  (* Per-layer time metrics, in the order of the [step] indices [exec]
     uses. *)
  val layers : string array

  (* [exec ~traced step x]: with [traced] the request also records what
     only a traced pass reports (iteration gaps, say). *)
  val exec : traced:bool -> step -> input -> answer

  (* Byte-level identity of an answer, for the traced-vs-untraced
     equality check. *)
  val digest : answer -> string

  (* [None] when the answer is correct, else why not. *)
  val check : input -> answer -> string option

  (* Per-layer metrics computed from the traced pass's answers. *)
  val answer_metrics : answer array -> (string * float) list
end

let no_step = { step = (fun _ f -> f ()) }
let warmup_seed = 20240601
let coverage_floor = 0.95

(* The Obs counters later changes may cite, totals over the traced pass
   (the daemon's: over its in-process replay); every workload reports
   all of them. *)
let counter_metrics counters =
  List.map
    (fun name -> (name, float (counter name counters)))
    [
      "do.iterations";
      "q.big_ops";
      "bignat.divmods";
      "blossom.augmentations";
      "hk.phases";
      "kernel.builds";
    ]

module Make (W : WORKLOAD) = struct
  (* One request, timed; an exception is a failed operation. *)
  let request ~traced step x =
    time (fun () ->
        match W.exec ~traced step x with
        | a -> Ok a
        | exception e -> Error (Printexc.to_string e))

  let pass inputs = Array.map (request ~traced:false no_step) inputs

  let failures_of inputs results =
    List.concat
      (Array.to_list
         (Array.mapi
            (fun i (r, _) ->
              match r with
              | Error e -> [ Printf.sprintf "request %d raised %s" i e ]
              | Ok a -> (
                  match W.check inputs.(i) a with
                  | None -> []
                  | Some why -> [ Printf.sprintf "request %d: %s" i why ]))
            results))

  let untraced inputs warm note =
    let set_up () = snd (time (fun () -> pass warm)) in
    let first = List.init 2 (fun _ -> set_up ()) in
    let parts =
      List.map
        (fun (lo, hi) ->
          let r = pass (Array.sub inputs lo (hi - lo)) in
          (r, set_up ()))
        (thirds (Array.length inputs))
    in
    let results = Array.concat (List.map fst parts) in
    let setup_s = setup_median note (first @ List.map snd parts) in
    (* Read before the answer checks, whose own tables would count. *)
    let rss_mb = peak_rss_mb (Unix.getpid ()) in
    let lat = Array.map (fun (_, dt) -> ms dt) results in
    let failures = failures_of inputs results in
    List.iter (fun f -> note ("FAIL " ^ f)) failures;
    let p50, tail, throughput, beyond =
      summarize ~tail_pct:W.tail_pct lat ~wall:(sum (Array.map snd results))
    in
    note
      (Printf.sprintf "latency: p50 %.3f ms, p%d %.3f ms (%d requests, %d samples beyond the p%d)"
         p50 W.tail_pct tail (Array.length lat) beyond W.tail_pct);
    ( failures,
      [],
      [
        ("latency_p50_ms", p50);
        ("latency_tail_ms", tail);
        ("throughput_per_s", throughput);
        ("peak_rss_mb", rss_mb);
        ("setup_s", setup_s);
      ] )

  let traced inputs warm note =
    ignore (pass warm);
    let _, reference =
      counted (fun () -> with_level Harness.Obs.Counters (fun () -> pass inputs))
    in
    let layer =
      Array.make_matrix (Array.length inputs) (Array.length W.layers) 0.
    in
    let current = ref 0 in
    let step =
      {
        step =
          (fun j f ->
            let t0 = now () in
            Fun.protect
              ~finally:(fun () ->
                let row = layer.(!current) in
                row.(j) <- row.(j) +. (now () -. t0))
              f);
      }
    in
    (* Each request runs untraced, then traced, back to back: the pairs
       share a machine phase, so their wall ratio is the tracing
       overhead rather than drift between two long passes. *)
    let paired, counters =
      counted (fun () ->
          Array.mapi
            (fun i x ->
              let plain = request ~traced:false no_step x in
              current := i;
              (plain, with_level Harness.Obs.Trace (fun () -> request ~traced:true step x)))
            inputs)
    in
    let plain = Array.map fst paired and results = Array.map snd paired in
    let untraced_wall = sum (Array.map snd plain)
    and traced_wall = sum (Array.map snd results) in
    let failures = failures_of inputs results in
    let mismatches =
      List.filter_map Fun.id
        (List.init (Array.length inputs) (fun i ->
             match (fst plain.(i), fst results.(i)) with
             | Ok a, Ok b when W.digest a = W.digest b -> None
             | _ ->
                 Some
                   (Printf.sprintf "request %d: traced answer differs from untraced" i)))
    in
    let cover = Array.mapi (fun i (_, dt) -> sum layer.(i) /. dt) results in
    let worst = Array.fold_left Float.min 1. cover in
    let coverage = sum (Array.map sum layer) /. traced_wall in
    let run_failures =
      mismatches
      @ (if counters = reference then []
         else [ "deterministic counters differ between two passes of one sequence" ])
      @
      if worst >= coverage_floor then []
      else
        [
          Printf.sprintf "trace coverage %.4f below %.2f on some request" worst
            coverage_floor;
        ]
    in
    List.iter (fun f -> note ("FAIL " ^ f)) (failures @ run_failures);
    note
      (Printf.sprintf "trace: coverage %.4f overall, %.4f worst request (floor %.2f)"
         coverage worst coverage_floor);
    let answers =
      Array.of_list
        (List.filter_map
           (function Ok a, _ -> Some a | Error _, _ -> None)
           (Array.to_list results))
    in
    ( failures,
      run_failures,
      Array.to_list
        (Array.mapi
           (fun j name -> (name, ms (mean (Array.map (fun row -> row.(j)) layer))))
           W.layers)
      @ W.answer_metrics answers @ counter_metrics counters
      @ [
          ("trace.coverage", coverage);
          ("trace.overhead", traced_wall /. untraced_wall);
        ] )

  let run ~seed ~seconds ~trace =
    let inputs =
      W.generate (Prng.Rng.create seed) ~count:(max 1 (seconds * W.per_second))
    in
    let inputs =
      if trace then Array.sub inputs 0 (traced_share (Array.length inputs)) else inputs
    in
    let warm = W.generate (Prng.Rng.create warmup_seed) ~count:W.warmup_count in
    (* Forget the peak that input generation left, so peak_rss_mb is
       what the passes add to the live inputs. *)
    reset_peak_rss ();
    let notes = ref [] in
    let note s = notes := s :: !notes in
    let failures, run_failures, metrics =
      (if trace then traced else untraced) inputs warm note
    in
    {
      correct = failures = [] && run_failures = [];
      attempted = Array.length inputs;
      failed = List.length failures;
      metrics;
      notes = List.rev !notes;
    }
end
