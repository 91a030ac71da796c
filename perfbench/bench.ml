(* The repository benchmark.

   Three workloads drive the system's layers from outside, through public
   library functions only:

   - verify-corpus: every corpus entry at its default width domain,
     through Engine.verify_corpus on one domain, cold verdict cache per
     pass;
   - optimize-zipf: a seeded Zipf workload through Pass.run_guarded;
   - daemon-mixed: an in-process daemon with a seeded verdict store,
     driven by two closed-loop client connections.

   With [--trace 0] a run prints the end-to-end metrics; with [--trace 1]
   it runs the same measurement untraced and then traced, and prints the
   per-layer metrics (self times of the library's spans and of the
   benchmark's own spans around each layer call, plus layer counters).
   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. See perfbench/README.md. *)

module Engine = Alive_engine.Engine
module Entry = Alive_suite.Entry
module Json = Alive_trace.Json
module Trace = Alive_trace.Trace
module Clock = Alive_trace.Clock
module Vc_cache = Alive_smt.Vc_cache
module Pass = Alive_opt.Pass
module Compiled = Alive_opt.Compiled
module Matcher = Alive_opt.Matcher
module Workload = Alive_opt.Workload
module Daemon = Alive_service.Daemon
module Client = Alive_service.Client
module Store = Alive_service.Store

let workloads = [ "verify-corpus"; "optimize-zipf"; "daemon-mixed" ]

(* ---------- Options ---------- *)

type opts = {
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
  smoke : bool;  (** tiny sizes: checks that every metric is emitted *)
  out_dir : string;
  rev : string;
  dirty : string;
  child : [ `No | `Setup_probe | `Seed_store ];
      (** child modes: set up and print "ready"; seed the daemon's store *)
  store : string;  (** daemon set-up probe: the seeded store *)
}

let usage =
  "bench.exe --workload W --seed N --seconds S --trace 0|1 [--smoke] [--out \
   DIR] [--rev REV] [--dirty FLAG]"

let parse_args () =
  let int_arg k v =
    match int_of_string_opt v with
    | Some n -> n
    | None -> raise (Arg.Bad (Printf.sprintf "%s expects an integer" k))
  in
  let rec go o = function
    | [] -> o
    | "--workload" :: v :: r -> go { o with workload = v } r
    | "--seed" :: v :: r -> go { o with seed = int_arg "--seed" v } r
    | "--seconds" :: v :: r ->
        go { o with seconds = max 1 (int_arg "--seconds" v) } r
    | "--trace" :: ("0" | "1" as v) :: r -> go { o with trace = v = "1" } r
    | "--smoke" :: r -> go { o with smoke = true } r
    | "--out" :: v :: r -> go { o with out_dir = v } r
    | "--rev" :: v :: r -> go { o with rev = v } r
    | "--dirty" :: v :: r -> go { o with dirty = v } r
    | "--setup-probe" :: r -> go { o with child = `Setup_probe } r
    | "--seed-store" :: r -> go { o with child = `Seed_store } r
    | "--store" :: v :: r -> go { o with store = v } r
    | a :: _ -> raise (Arg.Bad ("bad argument " ^ a ^ "\nusage: " ^ usage))
  in
  let o =
    go
      {
        workload = "";
        seed = 1;
        seconds = 10;
        trace = false;
        smoke = false;
        out_dir = "perfbench/out";
        rev = "unknown";
        dirty = "unknown";
        child = `No;
        store = "";
      }
      (List.tl (Array.to_list Sys.argv))
  in
  if not (List.mem o.workload workloads) then
    raise
      (Arg.Bad
         (Printf.sprintf "--workload must be one of %s\nusage: %s"
            (String.concat ", " workloads) usage));
  o

(* ---------- Measurement helpers ---------- *)

let now = Clock.now

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* CPU time the host took from this machine's virtual CPUs (the steal
   column of /proc/stat, in USER_HZ ticks), in seconds. *)
let steal_s () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> 0.0
  | ic -> (
      Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
      match
        List.filter (( <> ) "") (String.split_on_char ' ' (input_line ic))
      with
      | "cpu" :: fields when List.length fields >= 8 ->
          float_of_string (List.nth fields 7) /. 100.0
      | _ -> 0.0)

(* Peak resident set of this process (VmHWM), in MB. *)
let peak_rss_mb () =
  let prefix = "VmHWM:" in
  let n = String.length prefix in
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | ic ->
      Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
      let rec loop () =
        match input_line ic with
        | exception End_of_file -> 0.0
        | l when String.length l > n && String.sub l 0 n = prefix ->
            Scanf.sscanf (String.sub l n (String.length l - n)) " %d kB"
              (fun kb -> float_of_int kb /. 1000.0)
        | _ -> loop ()
      in
      loop ()

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median a =
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The highest percentile with at least ten samples beyond it, and which
   percentile that is. *)
let tail a =
  let n = Array.length a in
  if n = 0 then (0.0, 0.0)
  else if n <= 10 then (a.(n - 1), 100.0)
  else (a.(n - 11), 100.0 *. float_of_int (n - 10) /. float_of_int n)

let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

(* [repeat n f] runs [f] n times in order and returns the results. *)
let repeat n f =
  let rec go i acc = if i = n then List.rev acc else go (i + 1) (f () :: acc) in
  go 0 []

let rng seed salt = Random.State.make [| seed; salt |]

let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let take n l = List.filteri (fun i _ -> i < n) l

(* ---------- Host speed ----------

   On a shared virtual machine the speed this process gets drifts by tens
   of percent over minutes, with the load other guests put on the same
   host; no statistic over one run removes a drift that lasts the whole
   run. So the benchmark times a fixed piece of its own work, the
   reference, between ops every [speed_period] seconds of timed work,
   and scales the run's timings to a nominal host, on which the reference
   takes [reference_nominal_s], by the median of the host's speed over the
   run. The reference calls no library code: a change to the program
   moves the scaled times as it moves the raw ones, and only the host's
   speed cancels. The time spent on the reference is kept out of every
   timing, and the raw times are in the result file. *)

(* A pseudo-random sequence driving branches and reads and writes of a
   16 KB table: integer and branch work that stays in the core's own
   caches, so it slows with the core's clock and with what other threads
   on the same core take from it, and not with the program's memory. It
   allocates nothing, so the program's heap and its collector do not
   change its time. *)
let reference_table = Array.make 2048 0

let reference_work () =
  let t = reference_table in
  let x = ref 7 and acc = ref 0 in
  for i = 1 to 1_600_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let j = !x land 2047 in
    if !x land 4 = 0 then t.(j) <- t.(j) + i else acc := !acc + t.(j)
  done;
  !acc

let reference_nominal_s = 0.0035

external thread_cpu_s : unit -> (float[@unboxed])
  = "bench_thread_cpu_s_byte" "bench_thread_cpu_s"
[@@noalloc]

(* The reference's time now: its CPU time, which leaves out the time this
   thread waited for a CPU (other runnable threads, or the host running
   another guest), so that it measures how fast the CPU runs while this
   process has it. Of three runs, the fastest, since other work on the
   same core only ever adds to it. *)
let reference_s () =
  let once () =
    let t0 = thread_cpu_s () in
    ignore (Sys.opaque_identity (reference_work ()));
    thread_cpu_s () -. t0
  in
  let a = once () in
  let b = once () in
  Float.min a (Float.min b (once ()))

let speed_period = 0.25

(* The speed samples of the run, newest first, as (time, speed relative
   to the nominal host), and the wall time spent taking them. *)
let speed_samples = ref []
let speed_paused = ref 0.0

let sample_speed () =
  let t0 = now () in
  let r = reference_s () in
  let t1 = now () in
  speed_paused := !speed_paused +. (t1 -. t0);
  speed_samples := ((t0 +. t1) /. 2.0, reference_nominal_s /. r) :: !speed_samples

(* Between two ops: sample the speed if [speed_period] has passed since the
   last sample. *)
let tick () =
  match !speed_samples with
  | (t, _) :: _ when now () -. t < speed_period -> ()
  | _ -> sample_speed ()

(* ---------- Result ---------- *)

let attempted = ref 0
let failed = ref 0
let errors = ref []
let metrics : (string * float) list ref = ref []
let details : (string * Json.t) list ref = ref []
let detail k v = details := (k, v) :: !details

let error fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      errors := s :: !errors)
    fmt

(* Op failures: counted, and the first few named in the result file. *)
let failure_notes = ref []

let op_failed fmt =
  Printf.ksprintf
    (fun s ->
      incr failed;
      if List.length !failure_notes < 20 then
        failure_notes := s :: !failure_notes)
    fmt

(* Every per-layer metric, with its unit. Each traced run prints all of
   them; a layer the workload does not reach reads 0. *)
let per_layer_units =
  [
    ("core.parse.self_s", "s");
    ("core.typing.self_s", "s");
    ("core.typing.typings", "count");
    ("core.vcgen.self_s", "s");
    ("core.refine.check_typing.self_s", "s");
    ("core.refine.solve_query.self_s", "s");
    ("core.refine.queries", "count");
    ("absint.prover.proved", "count");
    ("absint.prover.proved_ratio", "ratio");
    ("smt.vc_cache.hits", "count");
    ("smt.vc_cache.misses", "count");
    ("smt.vc_cache.hit_ratio", "ratio");
    ("smt.lower.self_s", "s");
    ("smt.bitblast.self_s", "s");
    ("smt.aig.nodes_in", "count");
    ("smt.aig.nodes_out", "count");
    ("smt.aig.kept_ratio", "ratio");
    ("smt.solve.sat_solve.self_s", "s");
    ("smt.solve.cegar_iter.self_s", "s");
    ("smt.solve.model_extract.self_s", "s");
    ("smt.solve.cegar_iterations", "count");
    ("smt.solve.cubes_spawned", "count");
    ("smt.solve.cubes_pruned", "count");
    ("smt.solve.cube_waste_ratio", "ratio");
    ("sat.solver.cdcl.self_s", "s");
    ("sat.solver.checks", "count");
    ("sat.solver.conflicts", "count");
    ("sat.solver.decisions", "count");
    ("sat.solver.propagations", "count");
    ("sat.solver.restarts", "count");
    ("sat.solver.propagations_per_s", "1/s");
    ("sat.solver.clauses", "count");
    ("sat.solver.vars", "count");
    ("sat.solver.peak_clauses", "count");
    ("engine.task.self_s", "s");
    ("engine.pool.queue_depth_max", "count");
    ("opt.workload.generate_s", "s");
    ("opt.compiled.build_s", "s");
    ("opt.compiled.context.self_s", "s");
    ("opt.compiled.match_def.per_s", "1/s");
    ("opt.compiled.candidates_per_site", "count");
    ("opt.compiled.verified_ratio", "ratio");
    ("opt.pass.run_guarded.busy_s", "s");
    ("opt.pass.firings", "count");
    ("opt.pass.saturated", "count");
    ("opt.matcher.rewrite.self_s", "s");
    ("opt.pass.dce.self_s", "s");
    ("ir.cost.self_s", "s");
    ("ir.cost.in", "count");
    ("ir.cost.out", "count");
    ("ir.cost.ratio", "ratio");
    ("ir.defs.in", "count");
    ("ir.defs.out", "count");
    ("ir.interp.checks", "count");
    ("ir.interp.failures", "count");
    ("service.daemon.request_p50_ms", "ms");
    ("service.protocol.overhead_ms", "ms");
    ("service.store.hits", "count");
    ("service.store.misses", "count");
    ("service.store.appends", "count");
    ("service.store.hit_ratio", "ratio");
    ("service.store.replay_s", "s");
    ("service.store.seed_s", "s");
    ("trace.overhead_ratio", "ratio");
    ("trace.wall_s", "s");
    ("trace.unattributed_s", "s");
  ]

let end_to_end_units =
  [
    ("setup_s", "s");
    ("ops_per_s", "1/s");
    ("op_p50_ms", "ms");
    ("op_tail_ms", "ms");
    ("cpu_ms_per_op", "ms");
    ("peak_rss_mb", "MB");
  ]

(* Record a metric; its unit comes from the tables above. *)
let metric name value =
  if not (List.mem_assoc name per_layer_units || List.mem_assoc name end_to_end_units)
  then invalid_arg ("unknown metric " ^ name);
  metrics := (name, value) :: !metrics

(* ---------- End-to-end report ---------- *)

(* A timed run is cut into windows of equal work (a verify pass, a batch
   of functions, a slice of the daemon phase). Ops per second and CPU time
   per op are totals over the windows; the p50 and tail are computed per
   window and their median over the windows is reported.

   Every timing is then scaled to the nominal host in two ways:

   - by the run's median speed (see Host speed), which scales wall and CPU
     times alike;
   - by the share of the run's wall time the host took from this process's
     threads to run other guests ("steal" in /proc/stat), which only wall
     times contain. The steal column sums over the machine's virtual CPUs,
     and a virtual CPU only has time stolen while it has work, so this
     process's share of it is steal / (CPU + steal). *)
type window = {
  ops : int;
  wall : float;  (** without the time spent sampling the host's speed *)
  cpu : float;  (** likewise *)
  steal : float;  (** host CPU time stolen during the window *)
  lat : float list;
}

(* Work to do after each window, outside it: set-up probes (see
   [probe_between_windows]). *)
let after_window = ref ignore

(* Time [f] as one window; [lat (f ())] lists its ops' latencies. [f]
   calls [tick] between ops. *)
let window_of ~lat f =
  tick ();
  let p0 = !speed_paused and c0 = cpu_s () and s0 = steal_s () in
  let t0 = now () in
  let x = f () in
  let t1 = now () and c1 = cpu_s () and s1 = steal_s () in
  let paused = !speed_paused -. p0 in
  sample_speed ();
  !after_window ();
  let lat = lat x in
  ( x,
    {
      ops = List.length lat;
      wall = t1 -. t0 -. paused;
      cpu = c1 -. c0 -. paused;
      steal = s1 -. s0;
      lat;
    } )

(* With [pooled], the p50 and tail are over the ops of all windows
   together; otherwise both are medians over the windows. [setup] is the
   raw set-up time. The metrics are the scaled values; the raw ones go to
   the result file. *)
let report_e2e ?(pooled = false) ~setup ~rss windows =
  let total f = List.fold_left (fun a w -> a +. f w) 0.0 windows in
  let speed = median (sorted (List.map snd !speed_samples)) in
  let stolen =
    Float.min 0.9
      (ratio (total (fun w -> w.steal))
         (total (fun w -> Float.max 0.0 w.cpu +. w.steal)))
  in
  let values ~wall_k ~cpu_k =
    let med f = median (sorted (List.map f windows)) in
    let p50, tail_v =
      if pooled then
        let a = sorted (List.concat_map (fun w -> w.lat) windows) in
        (median a, fst (tail a))
      else
        ( med (fun w -> median (sorted w.lat)),
          med (fun w -> fst (tail (sorted w.lat))) )
    in
    [
      ("setup_s", wall_k *. setup);
      ( "ops_per_s",
        ratio (total (fun w -> fi w.ops)) (wall_k *. total (fun w -> w.wall)) );
      ("op_p50_ms", wall_k *. 1000.0 *. p50);
      ("op_tail_ms", wall_k *. 1000.0 *. tail_v);
      ( "cpu_ms_per_op",
        cpu_k *. 1000.0
        *. ratio (total (fun w -> w.cpu)) (total (fun w -> fi w.ops)) );
      ("peak_rss_mb", rss);
    ]
  in
  List.iter (fun (k, v) -> metric k v)
    (values ~wall_k:(speed *. (1.0 -. stolen)) ~cpu_k:speed);
  let floats l = Json.List (List.map (fun x -> Json.Float x) l) in
  detail "unscaled_metrics"
    (Json.Obj
       (List.map (fun (k, v) -> (k, Json.Float v)) (values ~wall_k:1.0 ~cpu_k:1.0)));
  detail "host"
    (Json.Obj
       [
         ("speed", Json.Float speed);
         ("stolen_share", Json.Float stolen);
         ("speed_samples", floats (List.rev_map snd !speed_samples));
       ]);
  let per f = List.map f windows in
  detail "windows"
    (Json.Obj
       [
         ("ops", Json.List (per (fun w -> Json.Int w.ops)));
         ("wall_s", floats (per (fun w -> w.wall)));
         ("cpu_s", floats (per (fun w -> w.cpu)));
         ("steal_s", floats (per (fun w -> w.steal)));
         ( "tail_percentile",
           if pooled then
             Json.Float
               (snd (tail (sorted (List.concat_map (fun w -> w.lat) windows))))
           else floats (per (fun w -> snd (tail (sorted w.lat)))) );
       ])

(* ---------- Set-up probes ----------

   setup_s is the wall time from exec of a fresh process until its first
   op can be issued: the process re-runs this executable in set-up probe
   mode, which does the workload's set-up, prints "ready" and exits. The
   median of several probes is reported. The host's speed moves within a
   run, so on the in-process workloads the probes are spread over the
   timed work: a share of them runs after each window, and the rest after
   the last. *)

let probe_count o = if o.smoke then 1 else 31

(* Run this executable again in a child mode ([--setup-probe] or
   [--seed-store]); returns the wall time from exec to its first line of
   output, and all its lines. *)
let run_self o ~mode ~out_dir =
  let exe = Sys.executable_name in
  let args =
    Array.of_list
      ([
         exe; mode; "--workload"; o.workload; "--seed"; string_of_int o.seed;
         "--out"; out_dir; "--store"; o.store;
       ]
      @ if o.smoke then [ "--smoke" ] else [])
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let t0 = Unix.gettimeofday () in
  let pid = Unix.create_process exe args Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let first = ref 0.0 in
  let rec read acc =
    match input_line ic with
    | l ->
        if acc = [] then first := Unix.gettimeofday () -. t0;
        read (l :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = read [] in
  close_in ic;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith (mode ^ ": child process failed"));
  (!first, lines)

let setup_samples = ref []

let probe o ~out_dir =
  match run_self o ~mode:"--setup-probe" ~out_dir with
  | dt, [ "ready" ] -> setup_samples := dt :: !setup_samples
  | _ -> failwith "set-up probe printed no ready line"

(* From now on, run a share of the probes after each of the next
   [windows] windows. *)
let probe_between_windows o ~out_dir ~windows =
  let share = probe_count o / max 1 windows in
  after_window :=
    fun () ->
      for _ = 1 to min share (probe_count o - List.length !setup_samples) do
        probe o ~out_dir
      done

(* Run the probes still due; the median of all of them. *)
let setup_probes o ~out_dir =
  after_window := ignore;
  while List.length !setup_samples < probe_count o do
    probe o ~out_dir
  done;
  detail "setup_samples_s"
    (Json.List (List.rev_map (fun s -> Json.Float s) !setup_samples));
  median (sorted !setup_samples)

(* ---------- Tracing ---------- *)

(* Self times per span phase, over every domain ([all]) and over the
   spans on the ops' own path ([path]): a helper domain's work runs in
   parallel with the op that waits for it. *)
type selfs = {
  all : (string, float) Hashtbl.t;
  path : (string, float) Hashtbl.t;
}

let selfs () = { all = Hashtbl.create 32; path = Hashtbl.create 32 }

(* Self time: each span's duration minus the part its child spans cover,
   nesting recovered per domain from the intervals. *)
let add_self_times acc ~on_path (events : Trace.event list) =
  let add tbl phase v =
    Hashtbl.replace tbl phase
      (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl phase))
  in
  let by_domain = Hashtbl.create 8 in
  List.iter
    (fun (e : Trace.event) ->
      if e.dur > 0.0 then
        Hashtbl.replace by_domain e.domain
          (e :: Option.value ~default:[] (Hashtbl.find_opt by_domain e.domain)))
    events;
  let stop (e : Trace.event) = e.start +. e.dur in
  Hashtbl.iter
    (fun _ evs ->
      let evs =
        List.sort
          (fun (a : Trace.event) (b : Trace.event) ->
            match Float.compare a.start b.start with
            | 0 -> Float.compare b.dur a.dur
            | c -> c)
          evs
      in
      let close ((e : Trace.event), child) =
        let v = Float.max 0.0 (e.dur -. !child) in
        add acc.all e.phase v;
        if on_path e then add acc.path e.phase v
      in
      let stack = ref [] in
      List.iter
        (fun (e : Trace.event) ->
          let rec unwind () =
            match !stack with
            | ((p : Trace.event), c) :: rest
              when not (e.start >= p.start && stop e <= stop p +. 1e-9) ->
                close (p, c);
                stack := rest;
                unwind ()
            | _ -> ()
          in
          unwind ();
          (match !stack with (_, c) :: _ -> c := !c +. e.dur | [] -> ());
          stack := (e, ref 0.0) :: !stack)
        evs;
      List.iter close !stack)
    by_domain

(* Spans on the calling domain: the ops' path for the in-process
   workloads. *)
let on_this_domain =
  let d = (Domain.self () :> int) in
  fun (e : Trace.event) -> e.domain = d

(* Folded stacks of every traced region of the run. *)
let folded = Buffer.create 4096

(* Run [f] with tracing on; add the self times of its spans into [into]. *)
let traced ?(on_path = on_this_domain) ~into f =
  Trace.clear ();
  Trace.set_enabled true;
  let r = Fun.protect ~finally:(fun () -> Trace.set_enabled false) f in
  let events = Trace.drain () in
  Trace.clear ();
  add_self_times into ~on_path events;
  Buffer.add_string folded (Trace.collapsed ~events ());
  r

(* The library's span phases, and the benchmark's own spans around layer
   calls, that map to a per-layer self-time metric. *)
let span_metrics =
  [
    ("parse", "core.parse.self_s");
    ("typing", "core.typing.self_s");
    ("vcgen", "core.vcgen.self_s");
    ("check_typing", "core.refine.check_typing.self_s");
    ("solve_query", "core.refine.solve_query.self_s");
    ("lower", "smt.lower.self_s");
    ("bitblast", "smt.bitblast.self_s");
    ("sat_solve", "smt.solve.sat_solve.self_s");
    ("cegar_iter", "smt.solve.cegar_iter.self_s");
    ("model_extract", "smt.solve.model_extract.self_s");
    ("cdcl", "sat.solver.cdcl.self_s");
    ("task", "engine.task.self_s");
    ("opt.pass.run_guarded", "opt.pass.run_guarded.busy_s");
    ("opt.compiled.context", "opt.compiled.context.self_s");
    ("opt.matcher.rewrite", "opt.matcher.rewrite.self_s");
    ("opt.pass.dce", "opt.pass.dce.self_s");
    ("ir.cost", "ir.cost.self_s");
  ]

let self_of tbl phase = Option.value ~default:0.0 (Hashtbl.find_opt tbl phase)

(* Report the self-time metrics of the traced timed region, its traced
   wall time, the part of it no reported layer accounts for, and the
   tracing overhead against the untraced measurement of the same work.
   [extra] holds self times of traced work outside the timed region. *)
let report_trace ?(extra = selfs ()) o ~self ~traced_wall ~traced_ops
    ~untraced_wall ~untraced_ops =
  let attributed = ref 0.0 in
  List.iter
    (fun (phase, name) ->
      attributed := !attributed +. self_of self.path phase;
      let v = self_of self.all phase +. self_of extra.all phase in
      if v > 0.0 then metric name v)
    span_metrics;
  metric "trace.wall_s" traced_wall;
  metric "trace.unattributed_s" (traced_wall -. !attributed);
  metric "trace.overhead_ratio"
    (ratio (ratio traced_wall (fi traced_ops))
       (ratio untraced_wall (fi untraced_ops)));
  let table t =
    Json.Obj
      (List.sort compare (Hashtbl.fold (fun k v acc -> (k, Json.Float v) :: acc) t []))
  in
  detail "trace_self_s" (table self.all);
  detail "trace_self_s_on_op_path" (table self.path);
  detail "trace_self_s_outside_timed" (table extra.all);
  let path =
    Filename.concat o.out_dir
      (Printf.sprintf "trace-%s-seed%d.folded" o.workload o.seed)
  in
  Out_channel.with_open_text path (fun oc -> Buffer.output_buffer oc folded);
  detail "trace_folded" (Json.String path)

(* The run's size in seconds of untraced work. A traced run measures
   that work twice, untraced and traced, so it sizes each half to half
   of [--seconds] and takes about as long as an untraced run. *)
let sized_seconds o = if o.trace then fi o.seconds /. 2.0 else fi o.seconds

(* ---------- Verify workloads ---------- *)

let corpus = Alive_suite.Registry.all

let expected_name (e : Entry.t) =
  match e.expected with
  | Entry.Expect_valid -> "valid"
  | Entry.Expect_invalid -> "invalid"

type vitem = { entry : Entry.t; widths : int list option; label : string }

let verify_items () =
  List.map
    (fun (e : Entry.t) -> { entry = e; widths = e.widths; label = e.name })
    corpus

let tasks_of items =
  List.map
    (fun it ->
      {
        Engine.task_name = it.label;
        widths = it.widths;
        prepare = (fun () -> Entry.parse it.entry);
      })
    items

(* The op order of a pass: the seed shuffles it. *)
let verify_order o ~salt =
  let items = shuffle (rng o.seed salt) (verify_items ()) in
  if o.smoke then take 24 items else items

(* The counters that must repeat exactly for a fixed seed. *)
let vcount_of (s : Alive.Refine.stats) =
  let t = s.telemetry in
  [
    ("sat.solver.conflicts", t.conflicts);
    ("core.refine.queries", s.queries);
    ("absint.prover.proved", t.static_proved);
    ("smt.vc_cache.misses", t.cache_misses);
    ("smt.aig.nodes_in", t.aig_nodes_in);
    ("smt.aig.nodes_out", t.aig_nodes_out);
  ]

let counts_json c = Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) c)

type vpass = { win : window; total : Alive.Refine.stats }

(* One pass over the items with a cold verdict cache, as a fresh
   corpus_check starts. An op fails unless its verdict is the entry's
   expected one. *)
let verify_pass ?(traced = false) items =
  let expected = Hashtbl.create 1024 in
  List.iter
    (fun it -> Hashtbl.replace expected it.label (expected_name it.entry))
    items;
  let tasks = tasks_of items in
  Vc_cache.clear ();
  let lat = ref [] in
  let on_result (r : Engine.task_result) =
    lat := r.elapsed :: !lat;
    tick ();
    let v = Engine.verdict_name r in
    if v <> Hashtbl.find expected r.name then op_failed "%s: %s" r.name v
  in
  let run () = Engine.verify_corpus ~jobs:1 ~on_result tasks in
  let ops = List.length tasks in
  let report, win =
    window_of
      ~lat:(fun _ -> !lat)
      (fun () ->
        if traced then Trace.with_span "engine.verify_corpus" run else run ())
  in
  attempted := !attempted + ops;
  { win; total = report.total }

let check_repeats what counts =
  match counts with
  | [] -> ()
  | first :: rest ->
      List.iteri
        (fun i c ->
          if c <> first then
            error "%s: deterministic counters drifted on repeat %d" what (i + 2))
        rest

let wall_sum ws = List.fold_left (fun a (w : window) -> a +. w.wall) 0.0 ws

(* Passes per run: about [seconds] of verifying at a nominal 5 s a pass. *)
let verify_passes o =
  if o.smoke then 1 else max 1 (int_of_float ((sized_seconds o /. 5.0) +. 0.5))

let run_verify o =
  let items = verify_order o ~salt:1 in
  let passes = verify_passes o in
  let ops = List.length items * passes in
  detail "sizes"
    (Json.Obj
       [
         ("ops_per_pass", Json.Int (List.length items));
         ("passes", Json.Int passes);
         ("jobs", Json.Int 1);
       ]);
  if not o.trace then begin
    (* Each pass takes another shuffle of the entries, since the order
       decides which entries find their queries in the verdict cache; the
       last pass repeats the first shuffle, and its counters must repeat
       exactly. *)
    let salts = List.init passes (fun i -> if i = passes - 1 then 1 else i + 1) in
    probe_between_windows o ~out_dir:o.out_dir ~windows:passes;
    let ps =
      List.map
        (fun salt ->
          verify_pass (if salt = 1 then items else verify_order o ~salt))
        salts
    in
    let first = List.hd ps and last = List.nth ps (passes - 1) in
    check_repeats o.workload [ vcount_of first.total; vcount_of last.total ];
    detail "counters" (counts_json (vcount_of first.total));
    let rss = peak_rss_mb () in
    let setup = setup_probes o ~out_dir:o.out_dir in
    (* A pass has too few ops for its own tail: the p50 and tail are taken
       over the ops of all passes together, so the tail lands on the few
       entries that hold most of the SAT work. *)
    report_e2e ~pooled:true ~setup ~rss (List.map (fun p -> p.win) ps)
  end
  else begin
    (* Untraced and traced passes alternate, so both see the same host. *)
    let self = selfs () in
    let pairs =
      repeat passes (fun () ->
          let u = verify_pass items in
          (u, traced ~into:self (fun () -> verify_pass ~traced:true items)))
    in
    let untraced = List.map fst pairs and tps = List.map snd pairs in
    check_repeats o.workload
      (List.map (fun p -> vcount_of p.total) (untraced @ tps));
    (* Does another shuffle of the same entries move the counters? *)
    let base = vcount_of (List.hd untraced).total in
    let other = vcount_of (verify_pass (verify_order o ~salt:2)).total in
    detail "counters" (counts_json base);
    detail "shuffle"
      (Json.Obj
         [
           ("moves_counters", Json.Bool (other <> base));
           ("other_order", counts_json other);
         ]);
    let wins ps = List.map (fun p -> p.win) ps in
    report_trace o ~self ~traced_wall:(wall_sum (wins tps)) ~traced_ops:ops
      ~untraced_wall:(wall_sum (wins untraced)) ~untraced_ops:ops;
    let s =
      List.fold_left
        (fun acc p -> Alive.Refine.merge_stats acc p.total)
        (Alive.Refine.empty_stats ()) tps
    in
    let t = s.telemetry in
    metric "core.typing.typings" (fi s.typings_done);
    metric "core.refine.queries" (fi s.queries);
    metric "absint.prover.proved" (fi t.static_proved);
    metric "absint.prover.proved_ratio" (ratio (fi t.static_proved) (fi s.queries));
    metric "smt.vc_cache.hits" (fi t.cache_hits);
    metric "smt.vc_cache.misses" (fi t.cache_misses);
    metric "smt.vc_cache.hit_ratio"
      (ratio (fi t.cache_hits) (fi (t.cache_hits + t.cache_misses)));
    metric "smt.aig.nodes_in" (fi t.aig_nodes_in);
    metric "smt.aig.nodes_out" (fi t.aig_nodes_out);
    metric "smt.aig.kept_ratio" (ratio (fi t.aig_nodes_out) (fi t.aig_nodes_in));
    metric "smt.solve.cegar_iterations" (fi t.cegar_iterations);
    metric "smt.solve.cubes_spawned" (fi t.cubes_spawned);
    metric "smt.solve.cubes_pruned" (fi t.cubes_pruned);
    metric "smt.solve.cube_waste_ratio"
      (ratio (fi t.cubes_pruned) (fi t.cubes_spawned));
    metric "sat.solver.checks" (fi t.checks);
    metric "sat.solver.conflicts" (fi t.conflicts);
    metric "sat.solver.decisions" (fi t.decisions);
    metric "sat.solver.propagations" (fi t.propagations);
    metric "sat.solver.restarts" (fi t.restarts);
    metric "sat.solver.propagations_per_s" (ratio (fi t.propagations) t.sat_time);
    metric "sat.solver.clauses" (fi t.clauses);
    metric "sat.solver.vars" (fi t.vars);
    metric "sat.solver.peak_clauses" (fi t.peak_clauses)
  end

(* ---------- optimize-zipf ---------- *)

let extract_rules () =
  List.filter_map
    (fun (e : Entry.t) ->
      if e.expected = Entry.Expect_valid && e.canonical then
        Result.to_option (Matcher.rule_of_transform (Entry.parse e))
      else None)
    corpus

(* A function outside every generated workload; optimizing it triggers
   the pass's lazy tree compile. *)
let warm_func =
  {
    Ir.fname = "warm";
    params = [ ("x", 8) ];
    body =
      [
        {
          Ir.name = "a";
          width = 8;
          inst = Ir.Binop (Ir.Add, [], Ir.Var "x", Ir.Const (Bitvec.zero 8));
        };
      ];
    ret = Ir.Var "a";
  }

let opt_setup () =
  let rules = extract_rules () in
  ignore (Pass.run_guarded ~rules warm_func);
  rules

(* Functions per run: about [seconds] of optimizing at the nominal rate,
   generated, optimized and checked in batches of [opt_batch]. *)
let opt_functions o =
  if o.smoke then 60 else int_of_float (700.0 *. sized_seconds o)
let opt_batch o = if o.smoke then 30 else 500

type opass = { win : window; outs : Pass.outcome array }

let opt_pass ?(traced = false) rules funcs =
  let n = Array.length funcs in
  let outs =
    Array.make n { Pass.func = warm_func; stats = []; saturated = false }
  in
  let lat = ref [] in
  let (), win =
    window_of
      ~lat:(fun () -> !lat)
      (fun () ->
        for i = 0 to n - 1 do
          let s = now () in
          let run () = Pass.run_guarded ~rules funcs.(i) in
          outs.(i) <-
            (if traced then Trace.with_span "opt.pass.run_guarded" run
             else run ());
          lat := (now () -. s) :: !lat;
          tick ()
        done)
  in
  attempted := !attempted + n;
  { win; outs }

(* What a repeat must reproduce per function. Names of new definitions
   come from a process-wide counter, so the functions themselves differ
   between repeats; their firings and costs do not. *)
let outcome_key (r : Pass.outcome) =
  (r.stats, r.saturated, Cost.func_cost r.func, List.length r.func.Ir.body)

(* Arguments for the refinement check: three corner vectors, then seeded
   random ones. *)
let interp_args st (f : Ir.func) k =
  let vec i =
    List.map
      (fun (_, w) ->
        match i with
        | 0 -> Bitvec.zero w
        | 1 -> Bitvec.all_ones w
        | 2 -> Bitvec.min_signed w
        | _ -> Bitvec.make ~width:w (Random.State.bits64 st))
      f.params
  in
  List.map vec (List.init k Fun.id)

(* Per-run totals of the optimizer's counters. *)
type ocount = {
  mutable firings : int;
  mutable saturated : int;
  mutable cost_in : int;
  mutable cost_out : int;
  mutable defs_in : int;
  mutable defs_out : int;
  mutable checks : int;
  mutable bad : int;
}

(* An op fails unless its output refines its input under the interpreter
   (undef pinned to zero) on every argument vector, and its cost did not
   rise. *)
let check_opt o c ~offset funcs (p : opass) =
  Array.iteri
    (fun i (f : Ir.func) ->
      let r = p.outs.(i) in
      let cost_f = Cost.func_cost f and cost_g = Cost.func_cost r.func in
      c.firings <- c.firings + List.fold_left (fun a (_, k) -> a + k) 0 r.stats;
      if r.saturated then c.saturated <- c.saturated + 1;
      c.cost_in <- c.cost_in + cost_f;
      c.cost_out <- c.cost_out + cost_g;
      c.defs_in <- c.defs_in + List.length f.Ir.body;
      c.defs_out <- c.defs_out + List.length r.func.Ir.body;
      let ok = ref (cost_g <= cost_f) in
      let st = rng o.seed (1000 + offset + i) in
      List.iter
        (fun args ->
          c.checks <- c.checks + 1;
          match
            ( Interp.run ~policy:Interp.Zero f args,
              Interp.run ~policy:Interp.Zero r.func args )
          with
          | Ok s, Ok t when Interp.refines s t -> ()
          | _ ->
              c.bad <- c.bad + 1;
              ok := false)
        (interp_args st f 6);
      if not !ok then op_failed "%s: output does not refine input" f.Ir.fname)
    funcs

type replay = {
  mutable sites : int;
  mutable cands : int;
  mutable hits : int;
  mutable match_s : float;
}

(* Replay the calls the pass makes, on the workload's input functions,
   inside the benchmark's own spans: lib/opt has none of its own. *)
let opt_replay tree rp funcs (outs : Pass.outcome array) =
  Array.iteri
    (fun i (f : Ir.func) ->
      let ctx =
        Trace.with_span "opt.compiled.context" (fun () ->
            Compiled.context tree f)
      in
      List.iter
        (fun d -> rp.cands <- rp.cands + List.length (Compiled.candidates ctx d))
        f.Ir.body;
      rp.sites <- rp.sites + List.length f.Ir.body;
      let t0 = now () in
      let found =
        Trace.with_span "opt.compiled.match_def" (fun () ->
            List.filter_map (Compiled.match_def ctx) f.Ir.body)
      in
      rp.match_s <- rp.match_s +. (now () -. t0);
      rp.hits <- rp.hits + List.length found;
      List.iter
        (fun ((rule : Matcher.rule), m) ->
          match
            Trace.with_span "opt.matcher.rewrite" (fun () ->
                Matcher.rewrite rule f m)
          with
          | Some f' ->
              ignore (Trace.with_span "opt.pass.dce" (fun () -> Pass.dce f'))
          | None -> ())
        found;
      ignore
        (Trace.with_span "ir.cost" (fun () ->
             Cost.func_cost f + Cost.func_cost outs.(i).func)))
    funcs

let run_optimize o =
  let rules = opt_setup () in
  let n = opt_functions o in
  let batches =
    Workload.batches
      { Workload.default with seed = o.seed; functions = n }
      ~batch_size:(opt_batch o)
  in
  detail "sizes"
    (Json.Obj
       [
         ("functions", Json.Int n);
         ("batch", Json.Int (opt_batch o));
         ( "instructions_per_function",
           Json.Int Workload.default.instructions_per_function );
         ("jobs", Json.Int 1);
       ]);
  let c =
    {
      firings = 0;
      saturated = 0;
      cost_in = 0;
      cost_out = 0;
      defs_in = 0;
      defs_out = 0;
      checks = 0;
      bad = 0;
    }
  in
  let rp = { sites = 0; cands = 0; hits = 0; match_s = 0.0 } in
  let self = selfs () and replay_self = selfs () in
  let t0 = now () in
  let tree = Compiled.build rules in
  metric "opt.compiled.build_s" (now () -. t0);
  let generate_s = ref 0.0 in
  if not o.trace then
    probe_between_windows o ~out_dir:o.out_dir ~windows:(List.length batches);
  (* Each batch is generated and checked outside the timed region; with
     tracing, the traced pass follows the untraced one on the same batch. *)
  let passes =
    List.map
      (fun (offset, bc) ->
        let t0 = now () in
        let funcs = Array.of_list (Workload.generate ~offset bc rules) in
        generate_s := !generate_s +. (now () -. t0);
        let p = opt_pass rules funcs in
        check_opt o c ~offset funcs p;
        let repeat_of q =
          Array.iteri
            (fun i r ->
              if outcome_key r <> outcome_key p.outs.(i) then
                error "optimize-zipf: function %s optimized differently on repeat"
                  funcs.(i).Ir.fname)
            q.outs
        in
        if not o.trace then begin
          if offset = 0 then begin
            (* A prefix again, untimed: it must fire the same rules. *)
            let k = min (Array.length funcs) 100 in
            repeat_of (opt_pass rules (Array.sub funcs 0 k));
            attempted := !attempted - k
          end;
          (p, None)
        end
        else begin
          let tp =
            traced ~into:self (fun () -> opt_pass ~traced:true rules funcs)
          in
          repeat_of tp;
          traced ~into:replay_self (fun () -> opt_replay tree rp funcs p.outs);
          (p, Some tp)
        end)
      batches
  in
  detail "counters"
    (Json.Obj
       [
         ("opt.pass.firings", Json.Int c.firings);
         ("opt.pass.saturated", Json.Int c.saturated);
         ("ir.cost.in", Json.Int c.cost_in);
         ("ir.cost.out", Json.Int c.cost_out);
       ]);
  let cost_ratio = ratio (fi c.cost_out) (fi c.cost_in) in
  detail "cost_ratio" (Json.Float cost_ratio);
  let wins = List.map (fun ((p : opass), _) -> p.win) passes in
  if not o.trace then
    let rss = peak_rss_mb () in
    report_e2e ~setup:(setup_probes o ~out_dir:o.out_dir) ~rss wins
  else begin
    metric "opt.workload.generate_s" !generate_s;
    let tws =
      List.filter_map (fun (_, t) -> Option.map (fun (t : opass) -> t.win) t) passes
    in
    report_trace o ~extra:replay_self ~self ~traced_wall:(wall_sum tws)
      ~traced_ops:n ~untraced_wall:(wall_sum wins) ~untraced_ops:n;
    metric "opt.compiled.match_def.per_s" (ratio (fi rp.sites) rp.match_s);
    metric "opt.compiled.candidates_per_site" (ratio (fi rp.cands) (fi rp.sites));
    metric "opt.compiled.verified_ratio" (ratio (fi rp.hits) (fi rp.cands));
    metric "opt.pass.firings" (fi c.firings);
    metric "opt.pass.saturated" (fi c.saturated);
    metric "ir.cost.in" (fi c.cost_in);
    metric "ir.cost.out" (fi c.cost_out);
    metric "ir.cost.ratio" cost_ratio;
    metric "ir.defs.in" (fi c.defs_in);
    metric "ir.defs.out" (fi c.defs_out);
    metric "ir.interp.checks" (fi c.checks);
    metric "ir.interp.failures" (fi c.bad)
  end

(* ---------- daemon-mixed ---------- *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Start an in-process daemon on a two-worker pool and connect to it. *)
let start_daemon ~socket ~store =
  let config =
    {
      (Daemon.default_config ~socket_path:socket) with
      store_dir = Some store;
      jobs = Some 2;
    }
  in
  let th = Thread.create (fun () -> ignore (Daemon.serve config)) () in
  let rec connect tries =
    match Client.connect socket with
    | Ok c -> c
    | Error e when tries = 0 -> failwith e
    | Error _ ->
        Thread.delay 0.002;
        connect (tries - 1)
  in
  (th, connect 5000)

let connect socket =
  match Client.connect socket with Ok c -> c | Error e -> failwith e

let stop_daemon th clients =
  (match clients with
  | c :: rest ->
      List.iter Client.close rest;
      ignore (Client.shutdown c);
      Client.close c
  | [] -> ());
  Thread.join th

type ditem = { d_entry : Entry.t; d_widths : int list option; cold : bool }

(* The seeded request plan: about 9 in 10 requests repeat an (entry,
   default widths) pair already in the store; the rest ask for one width
   in 9..24 of an uncapped entry that no request has asked for before. *)
let make_plan o warm =
  let st = rng o.seed 3 in
  let cold =
    ref
      (shuffle st
         (List.concat_map
            (fun (e : Entry.t) ->
              if e.widths <> None then [] else List.init 16 (fun i -> (e, 9 + i)))
            corpus))
  in
  let warm = Array.of_list warm in
  let m = Mutex.create () in
  fun () ->
    Mutex.protect m (fun () ->
        match !cold with
        | (e, w) :: rest when Random.State.int st 10 = 0 ->
            cold := rest;
            { d_entry = e; d_widths = Some [ w ]; cold = true }
        | _ ->
            let e = warm.(Random.State.int st (Array.length warm)) in
            { d_entry = e; d_widths = e.widths; cold = false })

let verdict_of_response r =
  match r with
  | Error e -> Error e
  | Ok j -> (
      match Json.to_list j with
      | Some [ v ] -> (
          match Option.bind (Json.member "verdict" v) Json.to_str with
          | Some s -> Ok (s, v)
          | None -> Error "response without a verdict")
      | _ -> Error "expected one result")

type dreq = {
  item : ditem;
  d_lat : float;
  resp : (string * Json.t, string) result;
}

(* Two closed-loop clients: each sends its next request when the previous
   reply arrives. The phase is cut into windows of [window_s] seconds: in
   each, both clients run until its deadline and the calling thread waits
   for them, so the host's speed is timed between windows while the daemon
   is idle. [sample] runs on the first client every 25 requests. *)
let daemon_phase clients ~seconds ~window_s ~next ?sample () =
  let reqs = ref [] and m = Mutex.create () in
  let slice () =
    let deadline = now () +. window_s in
    let mine = ref [] in
    let loop i c =
      let k = ref 0 in
      while now () < deadline do
        let it = next () in
        let s = now () in
        let r =
          Client.verify c ?widths:it.d_widths ~text:it.d_entry.Entry.text ()
        in
        let d_lat = now () -. s in
        let resp = verdict_of_response r in
        Mutex.protect m (fun () -> mine := { item = it; d_lat; resp } :: !mine);
        incr k;
        match sample with
        | Some f when i = 0 && !k mod 25 = 0 -> f c
        | _ -> ()
      done
    in
    List.iter Thread.join (List.mapi (fun i c -> Thread.create (loop i) c) clients);
    !mine
  in
  let n = max 1 (int_of_float (seconds /. window_s)) in
  let windows =
    repeat n (fun () ->
        let mine, win =
          window_of ~lat:(List.map (fun r -> r.d_lat)) slice
        in
        reqs := mine @ !reqs;
        win)
  in
  let reqs = List.rev !reqs in
  attempted := !attempted + List.length reqs;
  (windows, reqs)

(* Verify entries in-process on [jobs] domains; verdict per task name. *)
let verify_in_process ~jobs items =
  let verdicts = Hashtbl.create 256 in
  let report =
    Engine.verify_corpus ~jobs
      ~on_result:(fun r -> Hashtbl.replace verdicts r.Engine.name (Engine.verdict_name r))
      (tasks_of items)
  in
  (verdicts, report.total)

let pair_label (e : Entry.t) widths =
  match widths with
  | None -> e.name
  | Some ws -> e.name ^ "@" ^ String.concat "," (List.map string_of_int ws)

(* An op fails unless the daemon answered, its verdict is the entry's
   expected one, and it equals the in-process verdict of the same pair:
   from store seeding for warm pairs, from a cold in-process re-check
   (after the daemon stopped) for the others. Returns the re-check's
   solver statistics. *)
let check_daemon ~warm_verdicts reqs =
  let cold_items =
    List.sort_uniq compare
      (List.filter_map
         (fun r ->
           if r.item.cold then
             Some
               {
                 entry = r.item.d_entry;
                 widths = r.item.d_widths;
                 label = pair_label r.item.d_entry r.item.d_widths;
               }
           else None)
         reqs)
  in
  Vc_cache.clear ();
  let cold_verdicts, cold_stats = verify_in_process ~jobs:1 cold_items in
  List.iter
    (fun r ->
      let label = pair_label r.item.d_entry r.item.d_widths in
      let inproc =
        Hashtbl.find_opt (if r.item.cold then cold_verdicts else warm_verdicts) label
      in
      match r.resp with
      | Error e -> op_failed "%s: %s" label e
      | Ok (v, _) ->
          if v <> expected_name r.item.d_entry || Some v <> inproc then
            op_failed "%s: daemon %s, in-process %s" label v
              (Option.value ~default:"none" inproc))
    reqs;
  cold_stats

(* The member at [path] of a JSON object, through nested objects. *)
let json_at conv default path j =
  let rec go j = function
    | [] -> conv j
    | k :: rest -> Option.bind (Json.member k j) (fun j -> go j rest)
  in
  Option.value ~default (go j path)

let json_int = json_at Json.to_int 0
let json_float = json_at Json.to_float 0.0

let ok_or_fail what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

let warm_entries o =
  let all = shuffle (rng o.seed 4) corpus in
  if o.smoke then take 20 all else all

(* Child mode: verify the warm entries on two domains with the store
   installed as backing, and print each verdict as "label<TAB>verdict". *)
let seed_store o =
  let s = ok_or_fail "store" (Store.open_store o.store) in
  Store.install_backing s;
  let verdicts, _ =
    verify_in_process ~jobs:2
      (List.map
         (fun (e : Entry.t) ->
           { entry = e; widths = e.widths; label = pair_label e e.widths })
         (warm_entries o))
  in
  Store.remove_backing ();
  Store.close s;
  Hashtbl.iter (fun label v -> Printf.printf "%s\t%s\n" label v) verdicts

let run_daemon o =
  let dir = Filename.concat o.out_dir (Printf.sprintf "daemon-%d" (Unix.getpid ())) in
  rm_rf dir;
  mkdir_p dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let store = Filename.concat dir "store" in
  let socket = Filename.concat dir "d.sock" in
  let warm = warm_entries o in
  let seconds = if o.smoke then 0.5 else sized_seconds o in
  let window_s = 1.0 in
  detail "sizes"
    (Json.Obj
       [
         ("warm_entries", Json.Int (List.length warm));
         ("clients", Json.Int 2);
         ("workers", Json.Int 2);
         ("phase_s", Json.Float seconds);
         ("window_s", Json.Float window_s);
       ]);
  (* Benchmark preparation, in a child process so that its memory is not
     the workload's: seed the store through the verify path. *)
  let t0 = now () in
  let _, lines = run_self { o with store } ~mode:"--seed-store" ~out_dir:dir in
  let seed_s = now () -. t0 in
  let warm_verdicts = Hashtbl.create 256 in
  List.iter
    (fun l ->
      match String.split_on_char '\t' l with
      | [ label; v ] -> Hashtbl.replace warm_verdicts label v
      | _ -> failwith ("--seed-store: bad line " ^ l))
    lines;
  let next = make_plan o warm in
  let cold_count reqs =
    Json.Int (List.length (List.filter (fun r -> r.item.cold) reqs))
  in
  if not o.trace then begin
    let setup = setup_probes { o with store } ~out_dir:dir in
    let th, c0 = start_daemon ~socket ~store in
    let clients = [ c0; connect socket ] in
    let windows, reqs = daemon_phase clients ~seconds ~window_s ~next () in
    let rss = peak_rss_mb () in
    stop_daemon th clients;
    ignore (check_daemon ~warm_verdicts reqs);
    detail "cold_requests" (cold_count reqs);
    report_e2e ~setup ~rss windows
  end
  else begin
    metric "service.store.seed_s" seed_s;
    let replay =
      repeat 3 (fun () ->
          let t0 = now () in
          Store.close
            (ok_or_fail "store" (Store.open_store ~readonly:true store));
          now () -. t0)
    in
    metric "service.store.replay_s" (median (sorted replay));
    let th, c0 = start_daemon ~socket ~store in
    let clients = [ c0; connect socket ] in
    let _, reqs0 = daemon_phase clients ~seconds ~window_s ~next () in
    let m0 = ok_or_fail "metrics" (Client.metrics c0) in
    let server_p50 =
      1000.0
      *. json_float [ "histograms"; "service.request_s.verify"; "p50_s" ] m0
    in
    let client_p50 =
      1000.0 *. median (sorted (List.map (fun r -> r.d_lat) reqs0))
    in
    metric "service.daemon.request_p50_ms" server_p50;
    metric "service.protocol.overhead_ms" (client_p50 -. server_p50);
    let appended () =
      json_int [ "appended" ] (ok_or_fail "store-stats" (Client.store_stats c0))
    in
    let a0 = appended () in
    let depth = ref 0 in
    let sample c =
      match Client.metrics c with
      | Ok m ->
          depth := max !depth (json_int [ "gauges"; "service.queue_depth" ] m)
      | Error _ -> ()
    in
    let self = selfs () in
    (* A request's own spans carry its id; cube tasks on helper domains
       do not. *)
    let on_path (e : Trace.event) = List.mem_assoc "rid" e.meta in
    let _, reqs1 =
      traced ~on_path ~into:self (fun () ->
          daemon_phase clients ~seconds ~window_s ~next ~sample ())
    in
    let m1 = ok_or_fail "metrics" (Client.metrics c0) in
    let delta k =
      fi (json_int [ "counters"; k ] m1 - json_int [ "counters"; k ] m0)
    in
    metric "smt.aig.nodes_in" (delta "solve.aig_nodes_in");
    metric "smt.aig.nodes_out" (delta "solve.aig_nodes_out");
    metric "smt.aig.kept_ratio"
      (ratio (delta "solve.aig_nodes_out") (delta "solve.aig_nodes_in"));
    metric "smt.solve.cubes_spawned" (delta "solve.cubes_spawned");
    metric "smt.solve.cubes_pruned" (delta "solve.cubes_pruned");
    metric "smt.solve.cube_waste_ratio"
      (ratio (delta "solve.cubes_pruned") (delta "solve.cubes_spawned"));
    metric "service.store.appends" (fi (appended () - a0));
    metric "engine.pool.queue_depth_max" (fi !depth);
    stop_daemon th clients;
    (* Traced wall of a closed loop: the client-side latency summed over
       both connections. *)
    let lat_sum rs = List.fold_left (fun a r -> a +. r.d_lat) 0.0 rs in
    report_trace o ~self ~traced_wall:(lat_sum reqs1)
      ~traced_ops:(List.length reqs1) ~untraced_wall:(lat_sum reqs0)
      ~untraced_ops:(List.length reqs0);
    let sum k =
      fi
        (List.fold_left
           (fun a r ->
             match r.resp with Ok (_, v) -> a + json_int [ k ] v | Error _ -> a)
           0 reqs1)
    in
    metric "core.typing.typings" (sum "typings");
    metric "core.refine.queries" (sum "queries");
    metric "absint.prover.proved" (sum "static_proved");
    metric "absint.prover.proved_ratio"
      (ratio (sum "static_proved") (sum "queries"));
    metric "smt.vc_cache.hits" (sum "cache_hits");
    metric "smt.vc_cache.misses" (sum "cache_misses");
    metric "smt.vc_cache.hit_ratio"
      (ratio (sum "cache_hits") (sum "cache_hits" +. sum "cache_misses"));
    metric "service.store.hits" (sum "store_hits");
    metric "service.store.misses" (sum "store_misses");
    metric "service.store.hit_ratio"
      (ratio (sum "store_hits") (sum "store_hits" +. sum "store_misses"));
    metric "sat.solver.conflicts" (sum "conflicts");
    metric "smt.solve.cegar_iterations" (sum "cegar");
    detail "cold_requests" (cold_count (reqs0 @ reqs1));
    ignore (check_daemon ~warm_verdicts reqs0);
    (* The daemon does not return the remaining solver counts; take them
       from the in-process re-check of the traced phase's cold requests. *)
    let t = (check_daemon ~warm_verdicts reqs1).telemetry in
    metric "sat.solver.checks" (fi t.checks);
    metric "sat.solver.decisions" (fi t.decisions);
    metric "sat.solver.propagations" (fi t.propagations);
    metric "sat.solver.restarts" (fi t.restarts);
    metric "sat.solver.propagations_per_s"
      (ratio (fi t.propagations) t.sat_time);
    metric "sat.solver.clauses" (fi t.clauses);
    metric "sat.solver.vars" (fi t.vars);
    metric "sat.solver.peak_clauses" (fi t.peak_clauses)
  end

(* ---------- Set-up probe (child process) ---------- *)

let ready () =
  print_endline "ready";
  flush stdout

let probe o =
  match o.workload with
  | "verify-corpus" ->
      ignore (tasks_of (verify_order o ~salt:1));
      ready ()
  | "optimize-zipf" ->
      ignore (opt_setup ());
      ready ()
  | _ ->
      let socket =
        Filename.concat o.out_dir (Printf.sprintf "p%d.sock" (Unix.getpid ()))
      in
      let _, c = start_daemon ~socket ~store:o.store in
      ignore (ok_or_fail "ping" (Client.ping c));
      ready ();
      (* Nothing was written: end the process, and the daemon with it,
         without waiting out the accept loop's shutdown poll. *)
      Unix._exit 0

(* ---------- Output ---------- *)

let provenance o =
  let cpu_model =
    match open_in "/proc/cpuinfo" with
    | exception Sys_error _ -> "unknown"
    | ic ->
        Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
        let rec loop () =
          match input_line ic with
          | exception End_of_file -> "unknown"
          | l when String.length l > 10 && String.sub l 0 10 = "model name" -> (
              match String.index_opt l ':' with
              | Some i -> String.trim (String.sub l (i + 1) (String.length l - i - 1))
              | None -> loop ())
          | _ -> loop ()
        in
        loop ()
  in
  Json.Obj
    [
      ("rev", Json.String o.rev);
      ("dirty", Json.String o.dirty);
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("cpu_model", Json.String cpu_model);
      ("ocaml", Json.String Sys.ocaml_version);
      ("workload", Json.String o.workload);
      ("seed", Json.Int o.seed);
      ("seconds", Json.Int o.seconds);
      ("smoke", Json.Bool o.smoke);
      ("trace", Json.Bool o.trace);
    ]

(* All digits of a measured value. *)
let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let () =
  let o =
    try parse_args ()
    with Arg.Bad msg ->
      prerr_endline msg;
      exit 2
  in
  match o.child with
  | `Setup_probe -> probe o
  | `Seed_store -> seed_store o
  | `No ->
    mkdir_p o.out_dir;
    (match o.workload with
    | "verify-corpus" -> run_verify o
    | "optimize-zipf" -> run_optimize o
    | _ -> run_daemon o);
    let names = if o.trace then per_layer_units else end_to_end_units in
    let values =
      List.map
        (fun (name, unit_) ->
          (name, Option.value ~default:0.0 (List.assoc_opt name !metrics), unit_))
        names
    in
    let failed_share = ratio (fi !failed) (fi !attempted) in
    let correct = !errors = [] && !failed = 0 && !attempted > 0 in
    let result =
      Json.Obj
        [
          ("provenance", provenance o);
          ("correct", Json.Bool correct);
          ("attempted", Json.Int !attempted);
          ("failed", Json.Int !failed);
          ("failed_share", Json.Float failed_share);
          ("errors", Json.List (List.rev_map (fun s -> Json.String s) !errors));
          ("failures", Json.List (List.rev_map (fun s -> Json.String s) !failure_notes));
          ( "metrics",
            Json.Obj
              (List.map
                 (fun (n, v, u) ->
                   (n, Json.Obj [ ("value", Json.Float v); ("unit", Json.String u) ]))
                 values) );
          ("details", Json.Obj (List.rev !details));
        ]
    in
    let path =
      Filename.concat o.out_dir
        (Printf.sprintf "result-%s-seed%d-trace%d.json" o.workload o.seed
           (if o.trace then 1 else 0))
    in
    Json.to_file path result;
    Printf.printf "perfbench %s seed=%d seconds=%d trace=%b rev=%s dirty=%s\n"
      o.workload o.seed o.seconds o.trace o.rev o.dirty;
    List.iter (fun (n, v, u) -> Printf.printf "  %-36s %16.6g %s\n" n v u) values;
    Printf.printf "  %-36s %16.6g ratio (%d of %d ops)\n" "failed_share"
      failed_share !failed !attempted;
    Printf.printf "  details: %s\n" path;
    Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
      correct !attempted !failed
      (String.concat ", "
         (List.map
            (fun (n, v, u) ->
              Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n (num v) u)
            values))
