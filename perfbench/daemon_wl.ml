(* The [daemon] workload: the served path, through `defender_cli serve`
   with one pool worker and the default 1024-entry solve cache.  One
   client process drives it over two connections, closed loop (with one
   connection runs were visibly less steady).

   Popularity is Zipf over more distinct instances than the cache holds,
   so hits, misses and evictions all occur.  Graphs have tens to a few
   hundred vertices.  Most requests are characterization solves; a slice
   are tiny double-oracle solves (they catch a solver change that speeds
   up [oracle] but taxes small instances) and a few are
   equilibrium-checks, which are never cacheable.  About a fifth of the
   solves are resent relabeled: they miss the canonicalizer's byte memo
   and pay a canonicalization in the daemon parent, which blocks its
   event loop.

   Hits exercise Wire, Json and Lru; relabels the canonicalizer; misses
   Pool and the handler.  Every result is checked after the timed window
   against Service.Daemon_service.handle run in process on the same
   request. *)

open Netgraph
open Common
module Wire = Harness.Wire

let per_second = 400
let distinct = 8000
let zipf_s = 0.7
let relabel_every = 5
let check_every = 33
let warm_ranks = 64

(* One request: its fields (no id), their rendering as the key of the
   handler-answer memo, the payload with its id, and the framed bytes
   the client sends. *)
type request = {
  body : (string * Json.t) list;
  key : string;
  payload : string;
  frame : string;
}

let request ~id body =
  let payload = Json.to_string (Json.Obj (("id", Json.Int id) :: body)) in
  {
    body;
    key = Json.to_string (Json.Obj body);
    payload;
    frame = string_of_int (String.length payload) ^ "\n" ^ payload;
  }

(* Instances are stratified by popularity rank, identically for every
   seed: rank r fixes the family, the size band position and the
   parameters, and the seed only draws the graph.  The most popular
   instances carry a large share of the traffic, so without this one
   seed's top instance could be a 64-vertex grid and another's a
   200-vertex caterpillar.  The [warm_ranks] most popular instances,
   which the set-up warm-up pass sends, are drawn from a fixed seed, so
   set-up does the same work on every seed.

   Trees, caterpillars, random bipartite and G(n,p)-style graphs have at
   least 65 vertices: below that Graph6.canonical runs its exact search,
   which takes 0.1-3 s on graphs with pendant twins (see README.md), and
   one such request stalls the daemon's event loop for seconds.  That
   cost is measured on its own, as graph6.canonical_twins_ms. *)
let spread r lo hi =
  let x = float r *. 0.6180339887 in
  lo + int_of_float ((x -. Float.of_int (truncate x)) *. float (hi - lo + 1))

let characterization_graph rng r =
  match r mod 5 with
  | 0 -> Gen.random_tree rng ~n:(spread r 65 200)
  | 1 -> relabel rng (Gen.grid (spread r 8 14) (spread (r + 1) 8 14))
  | 2 -> relabel rng (Gen.caterpillar ~spine:(spread r 33 66) ~legs:2)
  | 3 ->
      let a = spread r 33 100 in
      connected_bipartite rng ~a ~b:(spread (r + 1) 33 100) ~extra:(a / 2)
  | _ ->
      let rec odd () =
        let n = spread r 65 200 in
        let g = connected_random rng ~n ~extra:(n / 4) in
        if Bipartite.is_bipartite g then odd () else g
      in
      odd ()

(* A solve instance: the graph and the request fields besides it.  One
   rank in ten is a tiny double-oracle solve. *)
let instance rng r =
  if r mod 10 = 9 then
    ( Gen.gnp_connected rng ~n:(8 + (r / 10 mod 3)) ~p:0.3,
      [
        ("game", Json.String (if r / 10 mod 2 = 0 then "tuple" else "subgraph"));
        ("k", Json.Int 2);
        ("lambda", Json.Int 2);
        ("nu", Json.Int 2);
        ("method", Json.String "double-oracle");
      ] )
  else
    ( characterization_graph rng r,
      [ ("k", Json.Int (1 + (r / 5 mod 3))); ("nu", Json.Int (1 + (r / 15 mod 3))) ] )

let solve_body g fields =
  ("op", Json.String "solve") :: ("graph6", Json.String (Graph6.encode g)) :: fields

(* Equilibrium-checks re-verify an A_tuple profile of a small bipartite
   graph; their answers name vertices, so they are never cached. *)
let check_body rng =
  let rec build () =
    let g = connected_bipartite rng ~a:(Prng.Rng.int_in_range rng ~lo:8 ~hi:20)
        ~b:(Prng.Rng.int_in_range rng ~lo:8 ~hi:20) ~extra:8 in
    let m = Defender.Model.make ~graph:g ~nu:2 ~k:2 in
    match Defender.Tuple_nash.a_tuple_auto m with
    | Ok prof ->
        [
          ("op", Json.String "equilibrium-check");
          ("graph6", Json.String (Graph6.encode g));
          ("k", Json.Int 2);
          ("nu", Json.Int 2);
          ("profile", Json.String (Defender.Profile_io.to_string prof));
          ("mode", Json.String "certificate");
        ]
    | Error _ -> build ()
  in
  build ()

type inputs = { warm : request array; window : request array }

let generate rng ~count =
  let fixed = Prng.Rng.create Inproc.warmup_seed in
  let instances =
    Array.init distinct (fun r -> instance (if r < warm_ranks then fixed else rng) r)
  in
  let checks = Array.init 24 (fun _ -> check_body rng) in
  let weights = Array.init distinct (fun r -> 1. /. (float (r + 1) ** zipf_s)) in
  let cdf = Array.copy weights in
  for r = 1 to distinct - 1 do
    cdf.(r) <- cdf.(r - 1) +. weights.(r)
  done;
  let zipf () =
    let u = Prng.Rng.float rng *. cdf.(distinct - 1) in
    let lo = ref 0 and hi = ref (distinct - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  let window =
    Array.init count (fun id ->
        if id mod check_every = check_every - 1 then
          request ~id (checks.(Prng.Rng.int rng (Array.length checks)))
        else
          let g, fields = instances.(zipf ()) in
          let g = if id mod relabel_every = relabel_every - 1 then relabel rng g else g in
          request ~id (solve_body g fields))
  in
  let warm =
    Array.init warm_ranks (fun r ->
        let g, fields = instances.(r) in
        request ~id:(-1 - r) (solve_body g fields))
  in
  { warm; window }

(* --- The daemon process --- *)

type daemon = { pid : int; out : in_channel; socket : string }

(* Daemons still running; an early exit stops them (and so their
   workers, which leave on request-pipe EOF) before the process ends. *)
let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun d ->
          (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Wire.waitpid_retry d.pid))
        !live)

let start ~cli ~socket ~traced =
  (try Sys.remove socket with Sys_error _ -> ());
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let args =
    [ cli; "serve"; "--socket"; socket; "--jobs"; "1" ]
    @ if traced then [ "--trace" ] else []
  in
  let pid = Unix.create_process cli (Array.of_list args) devnull out_w Unix.stderr in
  Unix.close out_w;
  Unix.close devnull;
  let out = Unix.in_channel_of_descr out_r in
  (* The CLI prints "listening on …" once the socket accepts. *)
  match input_line out with
  | line when String.starts_with ~prefix:"listening on" line ->
      let d = { pid; out; socket } in
      live := d :: !live;
      d
  | line ->
      Unix.kill pid Sys.sigkill;
      ignore (Wire.waitpid_retry pid);
      failwith ("daemon did not start: " ^ line)
  | exception End_of_file ->
      ignore (Wire.waitpid_retry pid);
      failwith "daemon exited before listening"

let stop d =
  (match Harness.Daemon.Client.connect (Harness.Daemon.Unix_socket d.socket) with
  | conn ->
      ignore
        (Harness.Daemon.Client.request conn
           (Json.Obj [ ("id", Json.Int 0); ("op", Json.String "shutdown") ]));
      Harness.Daemon.Client.close conn
  | exception Unix.Unix_error _ -> Unix.kill d.pid Sys.sigterm);
  (try
     while true do
       ignore (input_line d.out)
     done
   with End_of_file -> ());
  close_in_noerr d.out;
  live := List.filter (fun x -> x.pid <> d.pid) !live;
  match Wire.waitpid_retry d.pid with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith "daemon did not drain cleanly"

let rss d = peak_rss_mb d.pid +. List.fold_left (fun acc c -> acc +. peak_rss_mb c) 0. (children d.pid)

(* --- The client --- *)

type reply = {
  sent : float;
  latency : float;  (** seconds *)
  response : Json.t option;  (** [None]: transport error *)
}

type conn = { fd : Unix.file_descr; dec : Wire.decoder; mutable inflight : (int * float) option }

let connect address =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX address);
  { fd; dec = Wire.decoder (); inflight = None }

(* Send [reqs] over [conns], closed loop: a connection gets its next
   request only once its previous one is answered.  Returns the replies
   and, when the exchange broke off, why; the requests left unanswered
   then read as transport errors. *)
let drive conns reqs =
  let n = Array.length reqs in
  let replies = Array.make n { sent = 0.; latency = 0.; response = None } in
  let next = ref 0 and finished = ref 0 in
  let send c =
    if !next < n then begin
      let i = !next in
      incr next;
      c.inflight <- Some (i, now ());
      Wire.write_all c.fd reqs.(i).frame
    end
  in
  let buf = Bytes.create 65536 in
  let broke = ref None in
  Wire.with_sigpipe_ignored (fun () ->
      try
        List.iter send conns;
        while !finished < n do
          let waiting = List.filter (fun c -> c.inflight <> None) conns in
          let ready =
            match Unix.select (List.map (fun c -> c.fd) waiting) [] [] 60. with
            | [], _, _ -> failwith "no response within 60 s"
            | ready, _, _ -> ready
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
          in
          List.iter
            (fun fd ->
              let c = List.find (fun c -> c.fd = fd) waiting in
              let k = Unix.read fd buf 0 (Bytes.length buf) in
              if k = 0 then failwith "daemon closed the connection";
              Wire.feed c.dec buf k;
              match (Wire.next_frame c.dec, c.inflight) with
              | None, _ -> ()
              | Some (Error e), _ -> failwith ("bad response frame: " ^ e)
              | Some (Ok resp), Some (i, t0) ->
                  replies.(i) <- { sent = t0; latency = now () -. t0; response = Some resp };
                  c.inflight <- None;
                  incr finished;
                  send c
              | Some (Ok _), None -> failwith "unsolicited response")
            ready
        done
      with
      | Failure why -> broke := Some why
      | Unix.Unix_error (e, fn, _) -> broke := Some (fn ^ ": " ^ Unix.error_message e));
  (replies, !broke)

let with_conns address k f =
  let conns = List.init k (fun _ -> connect address) in
  Fun.protect ~finally:(fun () -> List.iter (fun c -> Wire.close_quietly c.fd) conns) (fun () -> f conns)

(* Start a daemon and warm its cache: the timed set-up.  Also returns
   the warm-up replies, which must all succeed. *)
let setup ~cli ~socket ~traced inputs =
  time (fun () ->
      let d = start ~cli ~socket ~traced in
      (d, with_conns d.socket 1 (fun conns -> drive conns inputs.warm)))

let window d reqs = time (fun () -> with_conns d.socket 2 (fun conns -> drive conns reqs))

(* --- Reading replies --- *)

let flag key r =
  match Option.bind r.response (Json.member key) with Some (Json.Bool b) -> b | _ -> false

let failure_of r =
  match r.response with
  | None -> Some "transport error"
  | Some resp -> (
      if flag "busy" r then Some "busy reject"
      else
        match Json.member "ok" resp with
        | Some (Json.Bool true) -> None
        | _ -> Some ("ok:false " ^ Json.to_string resp))

(* Byte-identity with the in-process handler, request by request;
   [expected] memoizes the handler's answer per distinct request. *)
let expected = Hashtbl.create 4096

let handle_result req =
  match Hashtbl.find_opt expected req.key with
  | Some r -> r
  | None ->
      let r =
        match Json.member "result" (Service.Daemon_service.handle (Json.Obj req.body)) with
        | Some j -> Json.to_string j
        | None -> "<handler error>"
      in
      Hashtbl.replace expected req.key r;
      r

(* Every failed request of one window, with the reason: a transport
   error, ok:false, a busy reject, or a result that is not byte-identical
   to the in-process handler's. *)
let failures inputs replies =
  List.filter_map Fun.id
    (List.init (Array.length replies) (fun i ->
         let r = replies.(i) in
         match failure_of r with
         | Some why -> Some (i, why)
         | None ->
             let got =
               match Option.bind r.response (Json.member "result") with
               | Some j -> Json.to_string j
               | None -> "<missing>"
             in
             if got = handle_result inputs.window.(i) then None
             else Some (i, "result differs from the in-process handler: " ^ got)))

(* --- The traced run --- *)

(* One request's parent and worker work, replayed in process (seconds). *)
type replayed = { key : float; canonical : float; codec : float; handle : float }

(* Replay in request order, warm-up first, so the canonicalizer's byte
   memo (mirrored here to tell which requests canonicalize) holds what
   the daemon's held.  [handle] runs only for the window's misses. *)
let replay inputs replies ~hit =
  let memo = Harness.Lru.create 4096 in
  let replay_key req =
    let _, key = time (fun () -> Service.Daemon_service.cache_key (Json.Obj req.body)) in
    let canonical =
      match (List.assoc_opt "op" req.body, List.assoc_opt "graph6" req.body) with
      | Some (Json.String "solve"), Some (Json.String g6) ->
          if Harness.Lru.find memo g6 <> None then 0.
          else begin
            Harness.Lru.add memo g6 ();
            let g = Graph6.decode g6 in
            snd (time (fun () -> Graph6.canonical g))
          end
      | _ -> 0.
    in
    (key, canonical)
  in
  Array.iter (fun req -> ignore (replay_key req)) inputs.warm;
  counted (fun () ->
      with_level Harness.Obs.Trace (fun () ->
          Array.mapi
            (fun i req ->
              let key, canonical = replay_key req in
              let codec =
                snd (time (fun () -> ignore (Json.of_string req.payload)))
                +. snd
                     (time (fun () ->
                          Option.iter (fun r -> ignore (Json.to_string r)) replies.(i).response))
              in
              let handle =
                if hit.(i) then 0.
                else
                  snd (time (fun () -> ignore (Service.Daemon_service.handle (Json.Obj req.body))))
              in
              { key; canonical; codec; handle })
            inputs.window))

(* The canonicalizer's exact-search cost on pendant twins, kept out of
   the served mix (see characterization_graph): two-legged caterpillars
   of 30, 33 and 36 vertices, relabeled by the seed. *)
let twins_ms seed =
  let rng = Prng.Rng.create (seed + 1) in
  mean
    (Array.map
       (fun spine ->
         let g = relabel rng (Gen.caterpillar ~spine ~legs:2) in
         ms (snd (time (fun () -> Graph6.canonical g))))
       [| 10; 11; 12 |])

let per_layer ~seed inputs replies ~lat ~hit ~overhead note =
  let rows, counters = replay inputs replies ~hit in
  let split want xs =
    Array.of_list (List.filteri (fun i _ -> hit.(i) = want) (Array.to_list xs))
  in
  let all f = Array.map (fun r -> ms (f r)) rows in
  let misses f = split false (all f) in
  let hit_lat = split true lat and miss_lat = split false lat in
  let p pct xs = if xs = [||] then 0. else fst (percentile xs pct) in
  let transport =
    mean miss_lat
    -. mean (misses (fun r -> r.handle))
    -. mean (misses (fun r -> r.key))
    -. mean (misses (fun r -> r.codec))
  in
  let covered =
    sum (all (fun r -> r.key)) +. sum (all (fun r -> r.codec)) +. sum (all (fun r -> r.handle))
  in
  note
    (Printf.sprintf "trace: replayed layers cover %.4f of summed request latency (daemon, not gated)"
       (covered /. sum lat));
  [
    ("daemon.hit_ratio", float (Array.length hit_lat) /. float (Array.length lat));
    ("daemon.hit_latency_p50_ms", p 50 hit_lat);
    ("daemon.miss_latency_p50_ms", p 50 miss_lat);
    ("daemon.miss_latency_p90_ms", p 90 miss_lat);
    ("service.cache_key_ms", mean (all (fun r -> r.key)));
    ("graph6.canonical_ms", mean (all (fun r -> r.canonical)));
    ("graph6.canonical_twins_ms", twins_ms seed);
    ("service.handle_ms", mean (misses (fun r -> r.handle)));
    ("json.codec_ms", mean (all (fun r -> r.codec)));
    ("daemon.transport_ms", transport);
    ( "daemon.busy_rejects",
      float (Array.fold_left (fun acc r -> if flag "busy" r then acc + 1 else acc) 0 replies) );
    ("trace.coverage", covered /. sum lat);
    ("trace.overhead", overhead);
  ]
  @ Inproc.counter_metrics counters

(* Untraced run: two set-ups (the second daemon serves the window), the
   timed window in thirds with a set-up of a spare daemon, on its own
   socket, after each, then the checks.  Traced run, over the first
   third of the window: one set-up, the untraced window, the same window
   against a daemon started with --trace (the overhead), then the
   in-process replay.  A daemon that does not start, serve or drain
   cleanly fails the run, which still reports its result; when no window
   was served, every request counts as failed. *)
let run ~cli ~rundir ~seed ~seconds ~trace =
  (try Unix.mkdir rundir 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let socket_named tag =
    Filename.concat rundir (Printf.sprintf "%s-%d.sock" tag (Unix.getpid ()))
  in
  let socket = socket_named "daemon" and spare_socket = socket_named "spare" in
  let inputs = generate (Prng.Rng.create seed) ~count:(max 1 (seconds * per_second)) in
  let inputs =
    if not trace then inputs
    else
      let n = traced_share (Array.length inputs.window) in
      { inputs with window = Array.sub inputs.window 0 n }
  in
  let n = Array.length inputs.window in
  let notes = ref [] in
  let note s = notes := s :: !notes in
  let run_failures = ref [] in
  let fail s = run_failures := s :: !run_failures in
  let broke what = Option.iter (fun why -> fail (what ^ " broke off: " ^ why)) in
  let set_up ?(socket = socket) ~traced () =
    let (d, (warm, why)), secs = setup ~cli ~socket ~traced inputs in
    broke "warm-up" why;
    if Array.exists (fun r -> failure_of r <> None) warm then fail "a warm-up request failed";
    (d, secs)
  in
  let serve what d reqs =
    let (replies, why), wall = window d reqs in
    broke what why;
    (replies, wall)
  in
  let stop d = try stop d with Failure why -> fail why in
  let spare () =
    if trace then []
    else begin
      let d, secs = set_up ~socket:spare_socket ~traced:false () in
      stop d;
      [ secs ]
    end
  in
  let measure () =
    let first = spare () in
    let d, secs = set_up ~traced:false () in
    let parts =
      List.map
        (fun (lo, hi) ->
          let served = serve "window" d (Array.sub inputs.window lo (hi - lo)) in
          (served, spare ()))
        (thirds n)
    in
    let replies = Array.concat (List.map (fun ((r, _), _) -> r) parts) in
    let wall = sum (Array.of_list (List.map (fun ((_, w), _) -> w) parts)) in
    let setups = first @ (secs :: List.concat_map snd parts) in
    let rss_mb = rss d in
    stop d;
    let lat = Array.map (fun r -> ms r.latency) replies in
    let hit = Array.map (flag "cached") replies in
    (* Each third's wall runs from its first send to its last reply. *)
    let span (lo, hi) =
      let last = ref 0. in
      for i = lo to hi - 1 do
        last := Float.max !last (replies.(i).sent +. replies.(i).latency)
      done;
      !last -. replies.(lo).sent
    in
    let p50, p99, throughput, beyond =
      summarize ~tail_pct:99 lat ~wall:(sum (Array.of_list (List.map span (thirds n))))
    in
    note
      (Printf.sprintf
         "latency: p50 %.3f ms, p99 %.3f ms (%d requests, %d samples beyond the p99), \
          hit ratio %.4f"
         p50 p99 n beyond
         (float (Array.fold_left (fun acc h -> if h then acc + 1 else acc) 0 hit) /. float n));
    let metrics =
      if not trace then
        [
          ("latency_p50_ms", p50);
          ("latency_tail_ms", p99);
          ("throughput_per_s", throughput);
          ("peak_rss_mb", rss_mb);
          ("setup_s", setup_median note setups);
        ]
      else begin
        let dt, _ = set_up ~traced:true () in
        let traced_replies, traced_wall = serve "traced window" dt inputs.window in
        stop dt;
        List.iter
          (fun (i, why) -> fail (Printf.sprintf "traced window, request %d: %s" i why))
          (failures inputs traced_replies);
        per_layer ~seed inputs replies ~lat ~hit ~overhead:(traced_wall /. wall) note
      end
    in
    let failures = failures inputs replies in
    List.iter (fun (i, why) -> note (Printf.sprintf "FAIL request %d: %s" i why)) failures;
    (List.length failures, metrics)
  in
  let failed, metrics =
    match measure () with
    | r -> r
    | exception (Failure why | Sys_error why) ->
        fail why;
        (n, [])
    | exception Unix.Unix_error (e, fn, _) ->
        fail (fn ^ ": " ^ Unix.error_message e);
        (n, [])
  in
  List.iter (fun f -> note ("FAIL " ^ f)) (List.rev !run_failures);
  {
    correct = failed = 0 && !run_failures = [];
    attempted = n;
    failed;
    metrics;
    notes = List.rev !notes;
  }
