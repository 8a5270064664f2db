(* Structured tracing/metrics.  Design: a global enabled flag read with one
   atomic load per span; per-domain event buffers (domain-local storage,
   single writer each) registered in a mutex-protected list so the main
   domain can merge them after workers are joined; counters — the process
   set and every scope — behind the same mutex, always counting. *)

type phase = B | E

type event = {
  ev_name : string;
  ev_cat : string;
  ev_ph : phase;
  ev_ts : float;
  ev_tid : int;
  ev_seq : int;
  ev_args : (string * string) list;
}

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag

(* The clock is swappable for deterministic golden tests; [t0] is the epoch
   subtracted from every timestamp.  The default routes through the
   monotonic Clock so span durations stay non-negative across NTP steps. *)
let clock = ref Clock.now
let t0 = Atomic.make 0.0

type buffer = {
  b_tid : int;
  mutable b_rev : event list;  (* newest first *)
  mutable b_seq : int;
}

let lock = Mutex.create ()
let registry : buffer list ref = ref []

(* A scope is just another counter table.  Nothing holds on to it but its
   owner, so it is freed with that owner. *)
type scope = (string, int ref) Hashtbl.t

let counter_tbl : scope = Hashtbl.create 32

let buffer_key =
  Domain.DLS.new_key (fun () ->
      let b = { b_tid = (Domain.self () :> int); b_rev = []; b_seq = 0 } in
      Mutex.protect lock (fun () -> registry := b :: !registry);
      b)

let now () = !clock () -. Atomic.get t0

let emit b name cat ph args =
  let seq = b.b_seq in
  b.b_seq <- seq + 1;
  b.b_rev <-
    { ev_name = name; ev_cat = cat; ev_ph = ph; ev_ts = now ();
      ev_tid = b.b_tid; ev_seq = seq; ev_args = args }
    :: b.b_rev

let span ?(cat = "repro") ?(args = []) name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let b = Domain.DLS.get buffer_key in
    emit b name cat B args;
    match f () with
    | v ->
      emit b name cat E [];
      v
    | exception e ->
      emit b name cat E [];
      raise e
  end

let scope () : scope = Hashtbl.create 16

let bump tbl name n =
  match Hashtbl.find_opt tbl name with
  | Some r -> r := !r + n
  | None -> Hashtbl.add tbl name (ref n)

let add ?scope name n =
  Mutex.protect lock (fun () ->
      bump counter_tbl name n;
      Option.iter (fun s -> bump s name n) scope)

let incr ?scope name = add ?scope name 1

let counter_value ?(scope = counter_tbl) name =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt scope name with
      | Some r -> !r
      | None -> 0)

let reset_scope s = Mutex.protect lock (fun () -> Hashtbl.reset s)

let enable () =
  if Atomic.get t0 = 0.0 then Atomic.set t0 (!clock ());
  Atomic.set enabled_flag true

let disable () = Atomic.set enabled_flag false

let set_clock f = clock := f

let reset () =
  Mutex.protect lock (fun () ->
      List.iter (fun b -> b.b_rev <- []; b.b_seq <- 0) !registry;
      Hashtbl.reset counter_tbl);
  Atomic.set t0 (!clock ())

let events () =
  let bufs = Mutex.protect lock (fun () -> !registry) in
  List.concat_map (fun b -> List.rev b.b_rev) bufs
  |> List.sort (fun a b ->
         match Float.compare a.ev_ts b.ev_ts with
         | 0 ->
           (match Int.compare a.ev_tid b.ev_tid with
            | 0 -> Int.compare a.ev_seq b.ev_seq
            | c -> c)
         | c -> c)

let counters () =
  Mutex.protect lock (fun () ->
      Hashtbl.fold (fun k r acc -> (k, !r) :: acc) counter_tbl [])
  |> List.sort (fun (ka, _) (kb, _) -> String.compare ka kb)

(* ------------------------- Chrome exporter -------------------------- *)

let escaped s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string buf "\\\""
       | '\\' -> Buffer.add_string buf "\\\\"
       | '\n' -> Buffer.add_string buf "\\n"
       | '\r' -> Buffer.add_string buf "\\r"
       | '\t' -> Buffer.add_string buf "\\t"
       | '\b' -> Buffer.add_string buf "\\b"
       | '\012' -> Buffer.add_string buf "\\f"
       | c when Char.code c < 0x20 ->
         Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let fmt_ts ts = Printf.sprintf "%.3f" (ts *. 1e6)  (* seconds -> µs *)

let add_span_event buf ev =
  Buffer.add_string buf "{\"name\":\"";
  Buffer.add_string buf (escaped ev.ev_name);
  Buffer.add_string buf "\",\"cat\":\"";
  Buffer.add_string buf (escaped ev.ev_cat);
  Buffer.add_string buf "\",\"ph\":\"";
  Buffer.add_string buf (match ev.ev_ph with B -> "B" | E -> "E");
  Buffer.add_string buf "\",\"ts\":";
  Buffer.add_string buf (fmt_ts ev.ev_ts);
  Buffer.add_string buf ",\"pid\":1,\"tid\":";
  Buffer.add_string buf (string_of_int ev.ev_tid);
  (match ev.ev_args with
   | [] -> ()
   | args ->
     Buffer.add_string buf ",\"args\":{";
     List.iteri
       (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          Buffer.add_string buf (escaped k);
          Buffer.add_string buf "\":\"";
          Buffer.add_string buf (escaped v);
          Buffer.add_char buf '"')
       args;
     Buffer.add_char buf '}');
  Buffer.add_char buf '}'

let add_counter_event buf ~ts name value =
  Buffer.add_string buf "{\"name\":\"";
  Buffer.add_string buf (escaped name);
  Buffer.add_string buf "\",\"ph\":\"C\",\"ts\":";
  Buffer.add_string buf (fmt_ts ts);
  Buffer.add_string buf ",\"pid\":1,\"tid\":0,\"args\":{\"value\":";
  Buffer.add_string buf (string_of_int value);
  Buffer.add_string buf "}}"

let to_chrome_json () =
  let evs = events () in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  let first = ref true in
  let sep () =
    if !first then first := false else Buffer.add_char buf ',';
    Buffer.add_char buf '\n'
  in
  List.iter (fun ev -> sep (); add_span_event buf ev) evs;
  (* counters are aggregates: one sample each at the trace's end *)
  let end_ts = List.fold_left (fun acc ev -> max acc ev.ev_ts) 0.0 evs in
  List.iter
    (fun (name, v) ->
       sep ();
       add_counter_event buf ~ts:end_ts name v)
    (counters ());
  Buffer.add_string buf "\n]}";
  Buffer.contents buf

let write_chrome file =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
       output_string oc (to_chrome_json ());
       output_char oc '\n')

(* --------------------------- text summary --------------------------- *)

(* Pair up each buffer's B/E events with a stack (events within a buffer
   are already in emission order) and aggregate durations by span name. *)
let span_durations () =
  let bufs = Mutex.protect lock (fun () -> !registry) in
  let acc : (string, int ref * float ref * float ref) Hashtbl.t =
    Hashtbl.create 32
  in
  List.iter
    (fun b ->
       let stack = ref [] in
       List.iter
         (fun ev ->
            match ev.ev_ph with
            | B -> stack := ev :: !stack
            | E ->
              (match !stack with
               | b_ev :: rest when b_ev.ev_name = ev.ev_name ->
                 stack := rest;
                 let dur = ev.ev_ts -. b_ev.ev_ts in
                 (match Hashtbl.find_opt acc ev.ev_name with
                  | Some (n, total, mx) ->
                    Stdlib.incr n;
                    total := !total +. dur;
                    mx := Float.max !mx dur
                  | None ->
                    Hashtbl.add acc ev.ev_name (ref 1, ref dur, ref dur))
               | _ -> () (* unmatched end: ignore *)))
         (List.rev b.b_rev))
    bufs;
  Hashtbl.fold
    (fun name (n, total, mx) rows -> (name, !n, !total, !mx) :: rows)
    acc []
  |> List.sort (fun (_, _, ta, _) (_, _, tb, _) -> Float.compare tb ta)

let summary () =
  let sections = ref [] in
  let spans = span_durations () in
  if spans <> [] then
    sections :=
      Table.render
        ~header:[ "span"; "count"; "total ms"; "mean ms"; "max ms" ]
        (List.map
           (fun (name, n, total, mx) ->
              [ name; string_of_int n;
                Table.fmt_f ~decimals:3 (total *. 1e3);
                Table.fmt_f ~decimals:3 (total *. 1e3 /. float_of_int n);
                Table.fmt_f ~decimals:3 (mx *. 1e3) ])
           spans)
      :: !sections;
  let cs = counters () in
  if cs <> [] then
    sections :=
      Table.render ~header:[ "counter"; "value" ]
        (List.map (fun (k, v) -> [ k; string_of_int v ]) cs)
      :: !sections;
  match List.rev !sections with
  | [] -> "trace: nothing recorded"
  | ss -> String.concat "\n\n" ss

let print_summary () = print_endline (summary ())
