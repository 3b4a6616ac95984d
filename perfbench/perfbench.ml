(* The benchmark's entry point:

     perfbench.exe --workload oracle|closed-form|daemon --seed N
       --seconds S --trace 0|1 [--cli PATH] [--rundir DIR]

   Prints the run's notes (latency sample counts, the machine-speed
   probe, any failure), one "name value unit" line per metric, and as
   its last line one JSON object {correct, attempted, failed, metrics}.
   Untraced runs report the end-to-end metrics; traced runs report the
   per-layer metrics, with 0 for a layer the workload does not run (and
   for any metric a failed run could not measure).
   Exit status 0 when every check passed, 1 when one failed, 2 on a
   usage error. *)

module Json = Harness.Json
module Oracle = Inproc.Make (Oracle_wl)
module Closed_form = Inproc.Make (Closed_form_wl)

let end_to_end =
  [
    ("latency_p50_ms", "ms");
    ("latency_tail_ms", "ms");
    ("throughput_per_s", "1/s");
    ("peak_rss_mb", "MiB");
    ("setup_s", "s");
  ]

let per_layer =
  [
    ("do.solve_ms", "ms");
    ("do.profile_ms", "ms");
    ("verify.oracle_ms", "ms");
    ("do.iteration_ms", "ms");
    ("do.iterations", "count");
    ("do.cold_lp_solves", "count");
    ("do.col_yield", "ratio");
    ("q.big_ops", "count");
    ("bignat.divmods", "count");
    ("graph6.decode_ms", "ms");
    ("model.make_ms", "ms");
    ("matching_nash.find_partition_ms", "ms");
    ("tuple_nash.a_tuple_ms", "ms");
    ("gain_ms", "ms");
    ("verify.certificate_ms", "ms");
    ("edge_cover.rho_ms", "ms");
    ("blossom.augmentations", "count");
    ("hk.phases", "count");
    ("kernel.builds", "count");
    ("daemon.hit_ratio", "ratio");
    ("daemon.hit_latency_p50_ms", "ms");
    ("daemon.miss_latency_p50_ms", "ms");
    ("daemon.miss_latency_p90_ms", "ms");
    ("service.cache_key_ms", "ms");
    ("graph6.canonical_ms", "ms");
    ("graph6.canonical_twins_ms", "ms");
    ("service.handle_ms", "ms");
    ("json.codec_ms", "ms");
    ("daemon.transport_ms", "ms");
    ("daemon.busy_rejects", "count");
    ("trace.coverage", "ratio");
    ("trace.overhead", "ratio");
  ]

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload oracle|closed-form|daemon --seed N \
     --seconds S --trace 0|1 [--cli PATH] [--rundir DIR]";
  exit 2

let () =
  let args = Hashtbl.create 8 in
  let rec parse = function
    | key :: value :: rest when String.starts_with ~prefix:"--" key ->
        Hashtbl.replace args key value;
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let get key =
    match Hashtbl.find_opt args key with Some v -> v | None -> usage ()
  in
  let int key = match int_of_string_opt (get key) with Some n -> n | None -> usage () in
  let seed = int "--seed" and seconds = int "--seconds" in
  let trace =
    match get "--trace" with "0" -> false | "1" -> true | _ -> usage ()
  in
  if seconds < 1 then usage ();
  let probe_before = Common.probe_ms () in
  let outcome =
    match get "--workload" with
    | "oracle" -> Oracle.run ~seed ~seconds ~trace
    | "closed-form" -> Closed_form.run ~seed ~seconds ~trace
    | "daemon" ->
        Daemon_wl.run ~cli:(get "--cli")
          ~rundir:(Option.value (Hashtbl.find_opt args "--rundir") ~default:".perfbench")
          ~seed ~seconds ~trace
    | _ -> usage ()
  in
  let probe_after = Common.probe_ms () in
  let wanted = if trace then per_layer else end_to_end in
  let metrics =
    List.map
      (fun (name, unit_) ->
        let value =
          match List.assoc_opt name outcome.Common.metrics with
          | Some v -> v
          | None when trace || not outcome.Common.correct -> 0.
          | None -> failwith ("workload did not report " ^ name)
        in
        (name, unit_, value))
      wanted
  in
  (* A run that broke off can leave a quotient of nothing (an infinite
     throughput, say); JSON has no such number, so it reads 0 and fails
     the run. *)
  let unmeasured = List.filter (fun (_, _, v) -> not (Float.is_finite v)) metrics in
  let correct = outcome.Common.correct && unmeasured = [] in
  let metrics =
    List.map (fun (name, u, v) -> (name, u, if Float.is_finite v then v else 0.)) metrics
  in
  List.iter print_endline outcome.Common.notes;
  List.iter (fun (name, _, _) -> Printf.printf "FAIL %s is not a finite number\n" name) unmeasured;
  Printf.printf "probe: %.2f ms before, %.2f ms after (fixed integer loop, not gated)\n"
    probe_before probe_after;
  List.iter (fun (name, unit_, value) -> Printf.printf "%-34s %14.6f %s\n" name value unit_) metrics;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int outcome.Common.attempted);
            ("failed", Json.Int outcome.Common.failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (name, unit_, value) ->
                     ( name,
                       Json.Obj [ ("value", Json.Float value); ("unit", Json.String unit_) ] ))
                   metrics) );
          ]));
  exit (if correct then 0 else 1)
