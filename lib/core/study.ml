module App = Repro_apps.Registry
module Ga = Repro_search.Ga

type t = {
  app : App.t;
  capture : Pipeline.captured;
  opt : Pipeline.optimized;
  speedups : Pipeline.speedups;
}

let cache : (string * int, t option) Hashtbl.t = Hashtbl.create 32

let config_id (cfg : Ga.config) =
  Hashtbl.hash (cfg.Ga.population, cfg.Ga.generations, cfg.Ga.max_identical)

(* [pool]/[cache] are deliberately absent from the memo key: the pool
   guarantees identical results for every combination, so studies computed
   at different parallelism levels are interchangeable. *)
let run ?(seed = 7) ?(cfg = Ga.quick_config) ?pool ?cache:pool_cache app =
  let key = (app.App.name, config_id cfg + seed) in
  match Hashtbl.find_opt cache key with
  | Some s -> s
  | None ->
    let study =
      match Pipeline.capture_once ~seed app with
      | None -> None
      | Some capture ->
        let opt =
          Pipeline.optimize ~seed:(seed + 13) ~cfg ?pool ?cache:pool_cache app
            capture
        in
        let speedups = Pipeline.measure_speedups app opt in
        Some { app; capture; opt; speedups }
    in
    Hashtbl.replace cache key study;
    study

let clear_cache () = Hashtbl.reset cache
