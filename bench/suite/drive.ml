(* The load generator: closed loops from one process, with at most two
   threads and two connections.

   A closed loop keeps a fixed number of requests in flight and sends
   the next one as soon as a reply is in: one (lockstep, protocol v1) on
   hot-count, cold-count and the fleet reader, four (pipelined, v2 tags)
   on the dashboard.  Requests are counted as attempted in the warm-up
   too; only the measured window's replies give latency samples. *)

module Samples = Stats.Samples

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type result = {
  latency : Samples.t;  (** seconds, measured window *)
  sent : Samples.t;
      (** when each [latency] sample's request was sent, in seconds from
          the window's start *)
  lag : Samples.t;
      (** seconds the generator itself took between a reply and the next
          send, measured window *)
  attempted : int;
  failed : int;  (** ERR replies and transport errors *)
  before : (string * float) list;  (** STATS at the window's start *)
  after : (string * float) list;  (** ... and end *)
  errors : string list;  (** the first few failure messages *)
}

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
}

let tally () = { attempted = 0; failed = 0; errors = [] }

let fail t msg =
  t.failed <- t.failed + 1;
  if List.length t.errors < 5 then t.errors <- msg :: t.errors

(* Keep [depth] requests in flight on [conn] through the warm-up and
   then the measured window, letting each phase drain before STATS is
   read.  With [depth] 1 requests go untagged (v1); deeper windows tag
   them (v2).  The daemon answers one connection in order, so a FIFO
   matches replies to requests, and the echoed tag is checked against
   it.  [bounds] reads the fleet writer's progress (REFRESHes answered,
   sent), so that reads of [live] are checked against the right
   states. *)
let drive conn ~depth ~next ~check ?(bounds = fun () -> (0, 0)) ~warmup
    ~seconds () =
  let latency = Samples.create () and lag = Samples.create () in
  let sent = Samples.create () in
  let t = tally () in
  let inflight = Queue.create () and seq = ref 0 in
  let start = ref infinity and last_reply = ref (now ()) in
  let send () =
    let line = next () in
    let lo, _ = bounds () in
    let at = now () in
    if at >= !start then Samples.add lag (at -. !last_reply);
    Conn.send conn
      (if depth = 1 then line ^ "\n" else Printf.sprintf "@%d %s\n" !seq line);
    Queue.push (!seq, at, line, lo) inflight;
    incr seq;
    t.attempted <- t.attempted + 1
  in
  let receive () =
    let r = Conn.recv conn in
    let at = now () in
    last_reply := at;
    let i, sent_at, line, lo = Queue.pop inflight in
    if sent_at >= !start then begin
      Samples.add latency (at -. sent_at);
      Samples.add sent (sent_at -. !start)
    end;
    if r.Conn.tag <> (if depth = 1 then None else Some (string_of_int i)) then
      fail t "reply does not match the oldest request in flight"
    else if r.Conn.ok then
      let _, hi = bounds () in
      Check.reply check ~lo ~hi line r.Conn.payload
    else fail t ("ERR " ^ r.Conn.payload)
  in
  let phase until =
    while now () < until do
      while Queue.length inflight < depth do
        send ()
      done;
      receive ()
    done;
    while not (Queue.is_empty inflight) do
      receive ()
    done
  in
  let before, after =
    match
      phase (now () +. warmup);
      let before = Conn.stats conn in
      start := now ();
      phase (!start +. seconds);
      (before, Conn.stats conn)
    with
    | stats -> stats
    | exception (Failure m | Sys_error m) ->
        fail t m;
        ([], [])
    | exception Unix.Unix_error (e, _, _) ->
        fail t (Unix.error_message e);
        ([], [])
  in
  {
    latency;
    sent;
    lag;
    attempted = t.attempted;
    failed = t.failed;
    before;
    after;
    errors = t.errors;
  }

(* fleet-refresh: the reader drives one connection lockstep while a
   writer thread REFRESHes [live] every [period] seconds on a second
   one, from the start of the warm-up to the end of the window. *)
let fleet ~socket conn ~next ~check ~refresh ~period ~warmup ~seconds =
  let sent = Atomic.make 0 and answered = Atomic.make 0 in
  let wt = tally () in
  let stop_at = now () +. warmup +. seconds in
  let writer =
    Thread.create
      (fun () ->
        match Conn.connect socket with
        | Error m -> fail wt m
        | Ok w ->
            let rec loop due =
              let wait = due -. now () in
              if wait > 0. then Thread.delay wait;
              if due < stop_at then begin
                Atomic.incr sent;
                wt.attempted <- wt.attempted + 1;
                match Conn.call w refresh with
                | r ->
                    if r.Conn.ok then
                      Check.refresh_reply check (Atomic.get sent) r.Conn.payload
                    else fail wt ("ERR " ^ r.Conn.payload);
                    Atomic.incr answered;
                    loop (due +. period)
                | exception (Failure m | Sys_error m) -> fail wt m
                | exception Unix.Unix_error (e, _, _) ->
                    fail wt (Unix.error_message e)
              end
            in
            loop (now () +. period);
            Conn.close w)
      ()
  in
  let r =
    drive conn ~depth:1 ~next ~check
      ~bounds:(fun () -> (Atomic.get answered, Atomic.get sent))
      ~warmup ~seconds ()
  in
  Thread.join writer;
  {
    r with
    attempted = r.attempted + wt.attempted;
    failed = r.failed + wt.failed;
    errors = r.errors @ wt.errors;
  }
