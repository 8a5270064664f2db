(* Weight-budgeted LRU over a string-keyed Hashtbl.  See bounded.mli. *)

type 'a slot = { value : 'a; w : int; mutable tick : int }

type 'a t = {
  table : (string, 'a slot) Hashtbl.t;
  weight_of : 'a -> int;
  mutable budget : int;
  mutable held : int;
  mutable clock : int;
  mutable evictions : int;
}

let check_budget fn b = if b < 0 then invalid_arg ("Bounded." ^ fn ^ ": negative budget")

let create ?(weight = fun _ -> 1) ~budget () =
  check_budget "create" budget;
  { table = Hashtbl.create 64; weight_of = weight; budget; held = 0;
    clock = 0; evictions = 0 }

let stamp t s =
  t.clock <- t.clock + 1;
  s.tick <- t.clock

let find t key =
  match Hashtbl.find_opt t.table key with
  | Some s ->
    stamp t s;
    Some s.value
  | None -> None

let mem t key = Hashtbl.mem t.table key

let evict t =
  let n = ref 0 in
  while t.held > t.budget do
    let victim =
      Hashtbl.fold
        (fun k s acc ->
           match acc with
           | Some (_, best) when best.tick <= s.tick -> acc
           | _ -> Some (k, s))
        t.table None
    in
    match victim with
    | None -> assert false   (* held > 0 implies a resident entry *)
    | Some (k, s) ->
      Hashtbl.remove t.table k;
      t.held <- t.held - s.w;
      t.evictions <- t.evictions + 1;
      incr n
  done;
  !n

let add t key value =
  if Hashtbl.mem t.table key then 0
  else begin
    let s = { value; w = t.weight_of value; tick = 0 } in
    stamp t s;
    Hashtbl.add t.table key s;
    t.held <- t.held + s.w;
    evict t
  end

let budget t = t.budget

let set_budget t b =
  check_budget "set_budget" b;
  t.budget <- b;
  evict t

let clear t =
  Hashtbl.reset t.table;
  t.held <- 0;
  t.clock <- 0;
  t.evictions <- 0

let length t = Hashtbl.length t.table
let weight t = t.held
let evictions t = t.evictions
