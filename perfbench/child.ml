(* One cold benchmark process.  [run.py] starts a fresh one for every
   workload iteration (and two for a serve kill/resume pair), so the
   process-global caches — Stagecache, compile front ends, the Blockplan
   cache, domain-local replay templates — never carry warmth between
   iterations or into a resume.

   The process drives the public pipeline API only and times each call
   from outside.  With [--trace] it also enables [Repro_util.Trace] and
   reduces the recorded spans and counters to per-layer figures.  Its last
   stdout line is one JSON object of raw measurements; [metrics.py] turns
   those into the benchmark's metrics.

   Usage:
     child.exe search --apps A,B --seed S --corpus K --jobs J [--trace]
     child.exe serve  --apps A,B --seed S --jobs J --dir D
                      [--abort N] [--baselines] [--trace] *)

open Repro_core
module App = Repro_apps.Registry
module Ga = Repro_search.Ga
module Stagecache = Repro_lir.Stagecache
module Capture = Repro_capture.Capture
module Trace = Repro_util.Trace
module Clock = Repro_util.Clock

(* ---------------------------------------------------------------- JSON *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let rec emit b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Int v -> Buffer.add_string b (string_of_int v)
  | Num v when Float.is_finite v -> Printf.bprintf b "%.17g" v
  | Num _ -> Buffer.add_string b "null"
  | Str s ->
    Buffer.add_char b '"';
    String.iter
      (function
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"'
  | Arr l ->
    Buffer.add_char b '[';
    List.iteri (fun i v -> if i > 0 then Buffer.add_char b ','; emit b v) l;
    Buffer.add_char b ']'
  | Obj l ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
         if i > 0 then Buffer.add_char b ',';
         emit b (Str k);
         Buffer.add_char b ':';
         emit b v)
      l;
    Buffer.add_char b '}'

let nums l = Arr (List.map (fun v -> Num v) l)
let opt_num = function Some v -> Num v | None -> Null
let opt_str = function Some v -> Str v | None -> Null

(* -------------------------------------------------------------- timing *)

(* [timed name f]: run [f] under the benchmark's own span
   ["bench:" ^ name] (a no-op unless tracing) and return its wall time. *)
let timed name f =
  let t0 = Clock.now () in
  let v = Trace.span ~cat:"bench" ("bench:" ^ name) f in
  (v, Clock.elapsed t0)

(* Process-wide user+sys CPU (all domains) and kernel high-water RSS. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  scan ()

(* ------------------------------------------------------- trace reduction *)

let has_prefix p s = String.starts_with ~prefix:p s

(* The repo's modules, as the benchmark's per-layer ledger names them. *)
let layer_of name =
  if has_prefix "compile:" name || has_prefix "pass:" name then "compile"
  else if name = "verify" || has_prefix "verify:" name
          || has_prefix "replay:" name || has_prefix "snapshot:" name then
    "verify"
  else if has_prefix "evalpool:" name || name = "bench:search_step" then
    "search"
  else if List.mem name
      [ "online_run"; "capture_once"; "capture_variant"; "capture_corpus";
        "capture"; "make_eval_env"; "bench:capture_corpus";
        "bench:start_search" ] then "capture"
  else if name = "bench:submit" || name = "bench:drive" then "core"
  else "other"

(* Spans whose individual durations the metrics need. *)
let kept_spans =
  [ "compile:llvm"; "verify"; "evalpool:batch"; "pass:licm";
    "bench:search_step"; "bench:drive"; "make_eval_env"; "capture_corpus";
    "online_run" ]

type closed = {
  c_name : string;
  c_start : float;
  c_stop : float;
  c_worker : string option;
}

(* Pair every domain's B/E events into closed spans, charging each layer
   its self time: a span's duration minus the spans nested directly in it
   on the same domain.  [ga:generation] is left out: the GA runs as a
   coroutine that suspends inside that span for every batch, so it opens
   in one benchmark call and closes in a later one instead of nesting. *)
let reduce_spans events =
  let self = Hashtbl.create 8 in
  let closed = ref [] in
  let by_tid = Hashtbl.create 8 in
  List.iter
    (fun ev ->
       if ev.Trace.ev_name <> "ga:generation" then
         Hashtbl.replace by_tid ev.Trace.ev_tid
           (ev :: Option.value (Hashtbl.find_opt by_tid ev.Trace.ev_tid)
                    ~default:[]))
    events;
  let charge layer v =
    Hashtbl.replace self layer
      (v +. Option.value (Hashtbl.find_opt self layer) ~default:0.0)
  in
  Hashtbl.iter
    (fun _ evs ->
       (* a domain id can be reused once its domain has exited, so order by
          time first; emission order breaks ties *)
       let evs =
         List.sort
           (fun a b ->
              compare (a.Trace.ev_ts, a.Trace.ev_seq) (b.Trace.ev_ts, b.Trace.ev_seq))
           evs
       in
       let stack = ref [] in
       List.iter
         (fun ev ->
            match ev.Trace.ev_ph, !stack with
            | Trace.B, _ -> stack := (ev, ref 0.0) :: !stack
            | Trace.E, (b, children) :: rest ->
              let dur = ev.Trace.ev_ts -. b.Trace.ev_ts in
              charge (layer_of b.Trace.ev_name) (dur -. !children);
              (match rest with
               | (_, parent_children) :: _ ->
                 parent_children := !parent_children +. dur
               | [] -> ());
              stack := rest;
              closed :=
                { c_name = b.Trace.ev_name; c_start = b.Trace.ev_ts;
                  c_stop = ev.Trace.ev_ts;
                  c_worker = List.assoc_opt "worker" b.Trace.ev_args }
                :: !closed
            | Trace.E, [] -> ())
         evs)
    by_tid;
  let closed =
    List.sort (fun a b -> compare a.c_start b.c_start) !closed
  in
  (self, closed)

(* Evaluation-pool phases: the worker spans of each batch, split wherever a
   worker id repeats (a batch runs a compile phase then a verify phase,
   each a barrier-terminated fan-out over the workers). *)
let pool_phases closed =
  let batches = List.filter (fun c -> c.c_name = "evalpool:batch") closed in
  let workers = List.filter (fun c -> c.c_name = "evalpool:worker") closed in
  List.concat_map
    (fun b ->
       let inside =
         List.filter
           (fun w -> w.c_start >= b.c_start && w.c_stop <= b.c_stop)
           workers
       in
       let phases, cur, _ =
         List.fold_left
           (fun (done_, cur, seen) w ->
              if List.mem w.c_worker seen then
                (List.rev cur :: done_, [ w ], [ w.c_worker ])
              else (done_, w :: cur, w.c_worker :: seen))
           ([], [], []) inside
       in
       let phases = if cur = [] then phases else List.rev cur :: phases in
       List.rev phases)
    batches

let trace_json () =
  let self, closed = reduce_spans (Trace.events ()) in
  let durations name =
    List.filter_map
      (fun c ->
         if c.c_name = name then Some ((c.c_stop -. c.c_start) *. 1000.)
         else None)
      closed
  in
  Obj
    [ ("counters",
       Obj (List.map (fun (k, v) -> (k, Int v)) (Trace.counters ())));
      ("spans_ms", Obj (List.map (fun n -> (n, nums (durations n))) kept_spans));
      ("layer_self_s",
       Obj
         (List.map
            (fun l ->
               (l, Num (Option.value (Hashtbl.find_opt self l) ~default:0.0)))
            [ "capture"; "search"; "compile"; "verify"; "core" ]));
      ("pool_phases",
       Arr
         (List.map
            (fun ph ->
               Arr (List.map (fun w -> nums [ w.c_start; w.c_stop ]) ph))
            (pool_phases closed))) ]

let stagecache_json () =
  let s = Stagecache.stats () in
  Obj
    [ ("prefix_hits", Int s.Stagecache.prefix_hits);
      ("prefix_misses", Int s.Stagecache.prefix_misses);
      ("binary_hits", Int s.Stagecache.binary_hits);
      ("binary_misses", Int s.Stagecache.binary_misses);
      ("genes_reused", Int s.Stagecache.genes_reused);
      ("genes_run", Int s.Stagecache.genes_run);
      ("evictions", Int s.Stagecache.evictions);
      ("bytes_held", Int s.Stagecache.bytes_held) ]

(* ----------------------------------------------------------- workloads *)

let find_app name =
  match App.find name with
  | Some a -> a
  | None -> failwith ("unknown app " ^ name)

let error_string = function
  | Failure m -> m
  | e -> Printexc.to_string e

(* One standalone search, exactly as [repro optimize APP --seed S
   --corpus K -j J]: capture at [seed], search at [seed + 13]. *)
let search_app ~seed ~k ~jobs name =
  let app = find_app name in
  let t0 = Clock.now () in
  let steps = ref [] in
  let base = [ ("app", Str name) ] in
  match
    let co, capture_s =
      timed "capture_corpus" (fun () -> Pipeline.capture_corpus ~seed ~k app)
    in
    let co =
      match co with
      | Some co -> co
      | None -> failwith "no replayable hot region"
    in
    let session, start_s =
      timed "start_search" (fun () ->
          Pipeline.start_search ~seed:(seed + 13) ~cfg:Ga.quick_config ~jobs
            ~corpus:co.Pipeline.co_entries app co.Pipeline.co_primary)
    in
    let rec loop () =
      let r, dt = timed "search_step" (fun () -> Pipeline.search_step session) in
      steps := dt :: !steps;
      match r with `Finished o -> o | `Live | `Replayed -> loop ()
    in
    let opt = loop () in
    (co, capture_s, start_s, session, opt, Clock.elapsed t0)
  with
  | co, capture_s, start_s, session, opt, total_s ->
    let env = opt.Pipeline.env in
    Obj
      (base
       @ [ ("ok", Bool true);
           ("digest", Str (Pipeline.search_digest opt));
           ("capture_s", Num capture_s);
           ("start_s", Num start_s);
           ("steps_s", nums (List.rev !steps));
           ("total_s", Num total_s);
           ("live_batches", Int (Pipeline.session_live_batches session));
           ("android_ms", Num env.Pipeline.android_region_ms);
           ("o3_ms", Num env.Pipeline.o3_region_ms);
           ("best_ms", opt_num opt.Pipeline.best_fitness);
           ("pause_ms",
            Num (Capture.total_ms co.Pipeline.co_primary.Pipeline.overhead));
           ("snapshots", Int (1 + List.length co.Pipeline.co_entries)) ])
  | exception e ->
    Obj (base @ [ ("ok", Bool false); ("error", Str (error_string e)) ])

let ckpt_file dir name = Filename.concat dir (name ^ ".ckpt")

let file_size f = try (Unix.stat f).Unix.st_size with Unix.Unix_error _ -> 0

(* Baseline replay times and capture charge of a served app: the same
   capture and evaluation environment its tenant built (serve derives
   both from the request seed exactly as a standalone search does), which
   the Serve API does not expose.  Runs after the measured section. *)
let serve_baselines ~seed name =
  let app = find_app name in
  match Pipeline.capture_once ~seed app with
  | None -> failwith ("no replayable hot region: " ^ name)
  | Some cap ->
    let env = Pipeline.make_eval_env ~seed:(seed + 13 + 1) app cap in
    [ ("app", Str name);
      ("android_ms", Num env.Pipeline.android_region_ms);
      ("o3_ms", Num env.Pipeline.o3_region_ms);
      ("pause_ms", Num (Capture.total_ms cap.Pipeline.overhead)) ]

(* Half of a serve kill/resume pair: submit every app as one burst (with a
   checkpoint per tenant) and drive; with [abort] the drive is killed by
   the scheduler's simulated-crash hook after that many live batches. *)
let serve_run ~seed ~jobs ~dir ~abort names =
  let t = Serve.create ~jobs ~max_active:4 ?abort_after:abort () in
  let submit_s, drive_s, aborted =
    Fun.protect ~finally:(fun () -> Serve.shutdown t) @@ fun () ->
    let submit_s =
      List.fold_left
        (fun acc name ->
           let r =
             Serve.request ~seed ~cfg:Ga.quick_config
               ~checkpoint:(ckpt_file dir name) (find_app name)
           in
           let adm, dt = timed "submit" (fun () -> Serve.submit t r) in
           if adm <> `Admitted then failwith ("not admitted: " ^ name);
           acc +. dt)
        0.0 names
    in
    let aborted, drive_s =
      timed "drive" (fun () ->
          match Serve.drive t with
          | () -> false
          | exception Checkpoint.Injected_abort -> true)
    in
    (submit_s, drive_s, aborted)
  in
  let st = Serve.stats t in
  let reports =
    List.map
      (fun r ->
         let outcome, error =
           match r.Serve.rp_outcome with
           | `Finished -> ("finished", Null)
           | `Failed why -> ("failed", Str why)
           | `Unstarted -> ("unstarted", Null)
         in
         Obj
           [ ("app", Str r.Serve.rp_app);
             ("outcome", Str outcome);
             ("error", error);
             ("digest", opt_str r.Serve.rp_digest);
             ("best_ms", opt_num r.Serve.rp_best_ms);
             ("live_batches", Int r.Serve.rp_live_batches);
             ("replayed_batches", Int r.Serve.rp_replayed_batches);
             ("journal_bytes", Int (file_size (ckpt_file dir r.Serve.rp_app)))
           ])
      (Serve.reports t)
  in
  [ ("submit_s", Num submit_s);
    ("drive_s", Num drive_s);
    ("aborted", Bool aborted);
    ("rounds", Int st.Serve.st_rounds);
    ("fairness_spread", Num st.Serve.st_fairness_spread);
    ("live_batches", Int st.Serve.st_live_batches);
    ("reports", Arr reports) ]

(* ---------------------------------------------------------------- main *)

let () =
  let mode = if Array.length Sys.argv > 1 then Sys.argv.(1) else "" in
  let apps = ref [] and seed = ref 7 and corpus = ref 1 and jobs = ref 1 in
  let dir = ref "." and abort = ref None and baselines = ref false in
  let trace = ref false in
  let spec =
    [ ("--apps", Arg.String (fun s -> apps := String.split_on_char ',' s),
       "A,B apps, in run/submission order");
      ("--seed", Arg.Set_int seed, "S capture seed (search seed S+13)");
      ("--corpus", Arg.Set_int corpus, "K capture-corpus size");
      ("--jobs", Arg.Set_int jobs, "J worker domains");
      ("--dir", Arg.Set_string dir, "D checkpoint directory (serve)");
      ("--abort", Arg.Int (fun n -> abort := Some n),
       "N kill the serve drive after N live batches");
      ("--baselines", Arg.Set baselines,
       " after serving, rebuild each app's baselines");
      ("--trace", Arg.Set trace, " record Trace spans and counters") ]
  in
  let usage = "child.exe (search|serve) [options]" in
  (try
     Arg.parse_argv ~current:(ref 1) Sys.argv spec
       (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
       usage
   with Arg.Bad m | Arg.Help m -> prerr_string m; exit 2);
  if !apps = [] || not (List.mem mode [ "search"; "serve" ]) then begin
    prerr_endline usage;
    exit 2
  end;
  if !trace then Trace.enable ();
  let t0 = Clock.now () in
  let body =
    if mode = "search" then
      [ ("apps",
         Arr (List.map (search_app ~seed:!seed ~k:!corpus ~jobs:!jobs) !apps)) ]
    else serve_run ~seed:!seed ~jobs:!jobs ~dir:!dir ~abort:!abort !apps
  in
  let wall_s = Clock.elapsed t0 in
  let cpu = cpu_s () and rss = peak_rss_mb () and sc = stagecache_json () in
  let traced = if !trace then [ ("trace", trace_json ()) ] else [] in
  Trace.disable ();
  let extra =
    if !baselines then
      [ ("baselines",
         Arr (List.map (fun n -> Obj (serve_baselines ~seed:!seed n)) !apps)) ]
    else []
  in
  let b = Buffer.create 65536 in
  emit b
    (Obj
       ([ ("mode", Str mode); ("wall_s", Num wall_s); ("cpu_s", Num cpu);
          ("peak_rss_mb", Num rss); ("stagecache", sc) ]
        @ body @ traced @ extra));
  print_string (Buffer.contents b);
  print_newline ()
