(* Persistent worker domains with a broadcast/rendezvous handshake: the
   caller installs a job under the mutex and bumps a sequence number;
   workers wake on the condition variable, run the job once each, and the
   last one out signals completion.  The mutex acquisitions on both sides
   of a job give the happens-before edge that publishes worker writes to
   the caller. *)

type t = {
  lock : Mutex.t;
  cv : Condition.t;
  mutable job : (int -> unit) option;
  mutable seq : int;           (* bumped once per job *)
  mutable remaining : int;     (* pool domains still inside the job *)
  mutable stop : bool;
  mutable domains : unit Domain.t array;
  total : int;
}

let worker_loop t wid =
  let done_seq = ref 0 in
  let rec loop () =
    Mutex.lock t.lock;
    while (not t.stop) && t.seq = !done_seq do
      Condition.wait t.cv t.lock
    done;
    if t.stop then Mutex.unlock t.lock
    else begin
      let job = Option.get t.job in
      done_seq := t.seq;
      Mutex.unlock t.lock;
      (* Jobs confine their own exceptions; this is a backstop so a buggy
         job cannot kill a pool domain and deadlock every later run. *)
      (try job wid with _ -> ());
      Mutex.lock t.lock;
      t.remaining <- t.remaining - 1;
      if t.remaining = 0 then Condition.broadcast t.cv;
      Mutex.unlock t.lock;
      loop ()
    end
  in
  loop ()

let create ~workers =
  if workers < 1 then invalid_arg "Domainpool.create: workers must be >= 1";
  let t =
    { lock = Mutex.create (); cv = Condition.create (); job = None; seq = 0;
      remaining = 0; stop = false; domains = [||]; total = workers }
  in
  t.domains <-
    Array.init (workers - 1) (fun k ->
        Domain.spawn (fun () -> worker_loop t (k + 1)));
  t

let size t = t.total

let run t job =
  Mutex.lock t.lock;
  if t.job <> None then begin
    Mutex.unlock t.lock;
    invalid_arg "Domainpool.run: a job is already running"
  end;
  t.job <- Some job;
  t.remaining <- Array.length t.domains;
  t.seq <- t.seq + 1;
  Condition.broadcast t.cv;
  Mutex.unlock t.lock;
  let caller_exn = (try job 0; None with e -> Some e) in
  Mutex.lock t.lock;
  while t.remaining > 0 do
    Condition.wait t.cv t.lock
  done;
  t.job <- None;
  Mutex.unlock t.lock;
  Option.iter raise caller_exn

let shutdown t =
  if Array.length t.domains > 0 then begin
    Mutex.lock t.lock;
    t.stop <- true;
    Condition.broadcast t.cv;
    Mutex.unlock t.lock;
    Array.iter Domain.join t.domains;
    t.domains <- [||]
  end

let with_pool ~workers f =
  let t = create ~workers in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
