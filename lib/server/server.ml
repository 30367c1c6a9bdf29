(* The resident daemon: a domain-per-core event-loop architecture.

   One acceptor thread owns the listening sockets.  Accepted connections
   are admission-controlled (beyond [max_conns] live connections the
   acceptor replies `ERR busy` and closes — saturation
   degrades into fast rejections, never unbounded queueing) and then
   handed round-robin to one of N executor *domains* over lock-free MPSC
   inboxes ([Edb_util.Mpsc]); a self-pipe per executor turns the handoff
   into a select wakeup, so a new connection never waits out a poll tick.

   Each executor runs a private event loop over the connections it owns:
   non-blocking reads into per-connection buffers, line framing, batch
   execution, and non-blocking buffered writes.  Nothing is shared
   between executors except the catalog (already concurrency-safe) and
   the striped metrics, so the loops never take a lock on the hot path.

   Pipelining and batching: the v2 protocol lets a client keep many
   tagged requests in flight on one connection.  All requests readable
   in one loop iteration form a batch; identical QUERYs inside a batch — same summary
   name, same SQL — are *coalesced*: one evaluation through the shared
   shape-keyed cache, its response fanned back out to every waiter.
   QUERY is read-only and deterministic, so a coalesced answer is
   byte-identical to the uncoalesced one; a mutating verb
   (LOAD/REFRESH/ATTACH) executing mid-batch invalidates the coalesced
   answers collected so far, preserving arrival-order semantics for
   QUERYs that follow it.  Backpressure is the
   per-connection window: once [max_inflight] requests from one
   connection are unanswered, its socket is simply not read until
   responses drain, bounding both memory and batch latency.

   Timeouts: the per-request deadline is checked after evaluation —
   OCaml compute can't be safely interrupted mid-polynomial, so an
   overrunning query costs its own latency but is reported as
   `ERR timeout`.  Idle connections are closed after [idle_timeout].
   A connection that stops draining its responses (slow loris) is killed
   once its pending output exceeds a hard cap.

   Shutdown (`stop`, wired to SIGINT/SIGTERM by `run`): a single atomic
   flag — signal handlers only set it.  The acceptor and every executor
   poll it within a tick and drain: requests already read are answered,
   pending output is flushed (bounded), then connections, listeners and
   wake pipes close and `wait`/`run` return. *)

type config = {
  unix_socket : string option;
  tcp : (string * int) option;  (** bind host, port *)
  max_conns : int;  (** live connections admitted before ERR busy *)
  domains : int;  (** executor domains; 0 = auto (EDB_DOMAINS, else cores) *)
  max_inflight : int;  (** per-connection pipeline window *)
  max_line_bytes : int;  (** oversized-frame guard *)
  request_deadline : float;  (** seconds; <= 0 disables *)
  idle_timeout : float;  (** seconds a connection may sit quiet *)
  catalog_capacity : int;
  catalog_bytes : int option;  (** byte budget for resident summaries *)
  cache_capacity : int;
}

let default_config =
  {
    unix_socket = None;
    tcp = None;
    max_conns = 24;
    domains = 0;
    max_inflight = 64;
    max_line_bytes = 1 lsl 20;
    request_deadline = 10.;
    idle_timeout = 60.;
    catalog_capacity = 8;
    catalog_bytes = None;
    cache_capacity = 4096;
  }

(* Executor domains block in select, so unlike compute domains
   ([Parallel.default_domains]) oversubscription is harmless: honour
   EDB_DOMAINS as asked (the CI matrix runs the suites at 4 domains on
   any hardware), default to the core count, cap at a sane 8. *)
let auto_domains () =
  let requested =
    match Sys.getenv_opt "EDB_DOMAINS" with
    | Some s -> (
        match int_of_string_opt s with Some n when n >= 1 -> n | _ -> 1)
    | None -> Domain.recommended_domain_count ()
  in
  max 1 (min requested 8)

(* Pending output beyond this means the peer stopped reading while we
   kept answering (the inflight window bounds well-behaved clients far
   below it): kill the connection rather than buffer without bound. *)
let out_cap_bytes = 8 * 1024 * 1024

type conn = {
  fd : Unix.file_descr;
  rbuf : Buffer.t;  (** unread bytes; complete lines not yet consumed *)
  out : Buffer.t;  (** pending response bytes *)
  mutable out_pos : int;  (** prefix of [out] already written *)
  mutable inflight : int;  (** read-but-unanswered requests *)
  mutable has_more : bool;  (** complete line(s) left in [rbuf] *)
  mutable last_active : float;
  mutable closing : bool;  (** flush pending output, then close *)
  mutable dead : bool;  (** close now, abandon output *)
  mutable admitted : bool;  (** still holds an admission slot *)
}

type executor = {
  ex_id : int;
  inbox : Unix.file_descr Edb_util.Mpsc.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  g_conns : Edb_obs.Registry.Gauge.t;  (** connections owned *)
  g_queue : Edb_obs.Registry.Gauge.t;  (** last iteration's batch size *)
}

type t = {
  config : config;
  ndomains : int;
  catalog : Catalog.t;
  metrics : Metrics.t;
  stopping : bool Atomic.t;
  live : int Atomic.t;  (** admitted, not yet closed; admission bound *)
  rr : int Atomic.t;  (** acceptor's round-robin cursor *)
  mutable executors : executor array;
  mutable listeners : Unix.file_descr list;
  mutable threads : Thread.t list;  (** the acceptor *)
  mutable domains_h : unit Domain.t list;
  mutable started : bool;
}

let tick = 0.05 (* seconds between shutdown/idle checks in blocking ops *)

let log_src = Logs.Src.create "edb.server" ~doc:"EntropyDB summary server"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* Batching/coalescing accounting, in the global obs registry so STATS
   and `entropydb stats` surface them as obs_server_* lines. *)
let m_batches = Edb_obs.Registry.counter "server_batches"
let m_batch_requests = Edb_obs.Registry.counter "server_batch_requests"
let m_coalesce_hits = Edb_obs.Registry.counter "server_coalesce_hits"
let m_coalesce_evals = Edb_obs.Registry.counter "server_coalesce_evals"
let m_pipelined = Edb_obs.Registry.counter "server_pipelined_frames"
let m_max_batch = Edb_obs.Registry.gauge "server_max_batch"

let create ?catalog config =
  if config.max_conns < 1 then
    invalid_arg "Server.create: max_conns must be >= 1";
  if config.domains < 0 then
    invalid_arg "Server.create: domains must be >= 0";
  if config.max_inflight < 1 then
    invalid_arg "Server.create: max_inflight must be >= 1";
  if config.max_line_bytes < 256 then
    invalid_arg "Server.create: max_line_bytes must be >= 256";
  if config.unix_socket = None && config.tcp = None then
    invalid_arg "Server.create: no listener configured";
  let catalog =
    match catalog with
    | Some c -> c
    | None ->
        Catalog.create ~capacity:config.catalog_capacity
          ?budget_bytes:config.catalog_bytes
          ~cache_capacity:config.cache_capacity ()
  in
  {
    config;
    ndomains = (if config.domains = 0 then auto_domains () else config.domains);
    catalog;
    metrics = Metrics.create ();
    stopping = Atomic.make false;
    live = Atomic.make 0;
    rr = Atomic.make 0;
    executors = [||];
    listeners = [];
    threads = [];
    domains_h = [];
    started = false;
  }

let catalog t = t.catalog
let metrics t = t.metrics
let num_domains t = t.ndomains

(* ------------------------------------------------------------------ *)
(* Socket I/O helpers                                                  *)
(* ------------------------------------------------------------------ *)

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  try
    while !off < n do
      off := !off + Unix.write fd b !off (n - !off)
    done;
    true
  with Unix.Unix_error _ | Sys_error _ -> false

let send_response fd response =
  write_all fd (String.concat "\n" (Protocol.print_response response) ^ "\n")

(* ------------------------------------------------------------------ *)
(* Request execution                                                   *)
(* ------------------------------------------------------------------ *)

let execute_parsed t request =
  let t0 = Unix.gettimeofday () in
  let response, outcome =
    try
      Edb_obs.Obs.with_span "server.request" ~cat:"serve"
        ~attrs:(fun () -> [ ("request", Protocol.request_tag request) ])
        (fun () -> Handler.handle ~catalog:t.catalog ~metrics:t.metrics request)
    with e ->
      ( Protocol.Err
          { code = Protocol.err_internal; message = Printexc.to_string e },
        Handler.Keep )
  in
  let dt = Unix.gettimeofday () -. t0 in
  Metrics.observe t.metrics dt;
  let response =
    if t.config.request_deadline > 0. && dt > t.config.request_deadline then begin
      Metrics.incr t.metrics Metrics.Timeouts;
      Protocol.Err
        {
          code = Protocol.err_timeout;
          message =
            Printf.sprintf "request exceeded deadline (%.3fs > %.3fs)" dt
              t.config.request_deadline;
        }
    end
    else response
  in
  (match response with
  | Protocol.Err _ -> Metrics.incr t.metrics Metrics.Errors
  | Protocol.Ok _ -> ());
  (response, outcome)

(* ------------------------------------------------------------------ *)
(* Executor event loop                                                 *)
(* ------------------------------------------------------------------ *)

let make_conn now fd =
  {
    fd;
    rbuf = Buffer.create 512;
    out = Buffer.create 512;
    out_pos = 0;
    inflight = 0;
    has_more = false;
    last_active = now;
    closing = false;
    dead = false;
    admitted = true;
  }

(* Give the connection's admission slot back, once. *)
let release t c =
  if c.admitted then begin
    c.admitted <- false;
    Atomic.decr t.live
  end

let enqueue_response c tag response =
  List.iter
    (fun line ->
      Buffer.add_string c.out line;
      Buffer.add_char c.out '\n')
    (Protocol.print_tagged_response tag response);
  if Buffer.length c.out - c.out_pos > out_cap_bytes then c.dead <- true

(* Extract up to [max] complete lines from the connection's read buffer,
   leaving the remainder (a torn frame waits for its missing bytes).
   [has_more] records whether a complete line is still buffered, so the
   loop can use a zero select timeout instead of sleeping a tick on
   window-deferred requests. *)
let take_lines c ~max:budget =
  if budget <= 0 then []
  else begin
    let s = Buffer.contents c.rbuf in
    let n = String.length s in
    let lines = ref [] and count = ref 0 and pos = ref 0 in
    (try
       while !count < budget do
         let i = String.index_from s !pos '\n' in
         let stop = if i > !pos && s.[i - 1] = '\r' then i - 1 else i in
         lines := String.sub s !pos (stop - !pos) :: !lines;
         incr count;
         pos := i + 1
       done
     with Not_found -> ());
    if !pos > 0 then begin
      Buffer.clear c.rbuf;
      Buffer.add_substring c.rbuf s !pos (n - !pos)
    end;
    c.has_more <- (try String.index_from s !pos '\n' >= 0 with Not_found -> false);
    List.rev !lines
  end

let read_chunk t c chunk =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> c.dead <- true
  | n ->
      Buffer.add_subbytes c.rbuf chunk 0 n;
      c.last_active <- Unix.gettimeofday ();
      c.has_more <- true;
      (* Oversized-frame guard: a line that outgrows the cap without a
         newline can never parse; answer ERR and drop the connection
         rather than buffer without bound. *)
      if
        Buffer.length c.rbuf > t.config.max_line_bytes
        && not
             (String.contains
                (Buffer.sub c.rbuf 0 (min (Buffer.length c.rbuf) (t.config.max_line_bytes + 1)))
                '\n')
      then begin
        Buffer.clear c.rbuf;
        c.has_more <- false;
        Metrics.incr t.metrics Metrics.Errors;
        enqueue_response c None
          (Protocol.Err
             {
               code = Protocol.err_proto;
               message =
                 Printf.sprintf "request line exceeds %d bytes"
                   t.config.max_line_bytes;
             });
        c.closing <- true
      end
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception (Unix.Unix_error _ | Sys_error _) -> c.dead <- true

(* One batch item: a framed request taken off some connection. *)
type pending = {
  p_conn : conn;
  p_tag : string option;
  p_line : string;  (** request text, tag stripped *)
  p_bad : string option;  (** malformed tag: answer ERR proto *)
}

let collect_conn t c acc =
  if c.closing || c.dead then acc
  else begin
    let lines = take_lines c ~max:(t.config.max_inflight - c.inflight) in
    List.fold_left
      (fun acc line ->
        if String.trim line = "" then acc
        else begin
          c.inflight <- c.inflight + 1;
          match Protocol.split_tag line with
          | Ok (tag, rest) ->
              { p_conn = c; p_tag = tag; p_line = rest; p_bad = None } :: acc
          | Error e ->
              { p_conn = c; p_tag = None; p_line = line; p_bad = Some e } :: acc
        end)
      acc lines
  end

(* Execute a batch in arrival order.  Identical QUERYs (same summary,
   same SQL) evaluate once; the response fans out to every waiter.
   Only QUERY coalesces: it is read-only and deterministic, so the
   shared response is byte-identical to an uncoalesced evaluation.
   Mutating verbs (LOAD/REFRESH/ATTACH) and introspection run
   individually, in order — and a mutating verb also *invalidates* the
   coalesced answers collected so far, so a pipelined `QUERY q; REFRESH
   s; QUERY q` sees the post-REFRESH answer for the second QUERY, exactly
   as it would uncoalesced. *)
let mutates = function
  | Protocol.Load _ | Protocol.Refresh _ | Protocol.Attach _ -> true
  | _ -> false

let execute_batch t batch =
  let coalesced : (string, Protocol.response) Hashtbl.t =
    Hashtbl.create (List.length batch)
  in
  List.iter
    (fun p ->
      let c = p.p_conn in
      c.inflight <- c.inflight - 1;
      (* A peer that vanished mid-batch, or sent requests after QUIT:
         drop silently (there is nobody to answer). *)
      if not (c.dead || c.closing) then begin
        Metrics.incr t.metrics Metrics.Requests;
        if p.p_tag <> None then Edb_obs.Registry.Counter.incr m_pipelined;
        match p.p_bad with
        | Some e ->
            Metrics.incr t.metrics Metrics.Errors;
            enqueue_response c None
              (Protocol.Err { code = Protocol.err_proto; message = e })
        | None -> (
            match Protocol.parse_request p.p_line with
            | Error m ->
                Metrics.incr t.metrics Metrics.Errors;
                enqueue_response c p.p_tag
                  (Protocol.Err { code = Protocol.err_proto; message = m })
            | Ok (Protocol.Query { name; sql } as request) -> (
                let key = name ^ "\x00" ^ sql in
                match Hashtbl.find_opt coalesced key with
                | Some response ->
                    Edb_obs.Registry.Counter.incr m_coalesce_hits;
                    enqueue_response c p.p_tag response
                | None ->
                    let response, _ = execute_parsed t request in
                    Hashtbl.add coalesced key response;
                    Edb_obs.Registry.Counter.incr m_coalesce_evals;
                    enqueue_response c p.p_tag response)
            | Ok request ->
                if mutates request then Hashtbl.reset coalesced;
                let response, outcome = execute_parsed t request in
                enqueue_response c p.p_tag response;
                (* QUIT frees its slot before the `bye` is flushed, so a
                   client reconnecting on `bye` is admitted. *)
                if outcome = Handler.Close then begin
                  c.closing <- true;
                  release t c
                end)
      end)
    batch

let flush_conn c =
  if not c.dead then begin
    let continue = ref true in
    while !continue do
      let len = Buffer.length c.out in
      if c.out_pos >= len then begin
        if len > 0 then begin
          Buffer.clear c.out;
          c.out_pos <- 0
        end;
        if c.closing then c.dead <- true;
        continue := false
      end
      else begin
        let n = min 65536 (len - c.out_pos) in
        let s = Buffer.sub c.out c.out_pos n in
        match Unix.write_substring c.fd s 0 n with
        | written ->
            c.out_pos <- c.out_pos + written;
            if written < n then continue := false (* kernel buffer full *)
        | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
            continue := false
        | exception (Unix.Unix_error _ | Sys_error _) ->
            c.dead <- true;
            continue := false
      end
    done
  end

let pending_out c = Buffer.length c.out > c.out_pos

let executor_loop t ex =
  let chunk = Bytes.create 65536 in
  let conns = ref [] in
  let drain_wake () =
    let b = Bytes.create 256 in
    let rec go () =
      match Unix.read ex.wake_r b 0 256 with
      | 256 -> go ()
      | _ -> ()
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
      | exception Unix.Unix_error _ -> ()
    in
    go ()
  in
  let adopt () =
    List.iter
      (fun fd ->
        (try Unix.set_nonblock fd with Unix.Unix_error _ -> ());
        Metrics.incr t.metrics Metrics.Connections;
        conns := make_conn (Unix.gettimeofday ()) fd :: !conns)
      (Edb_util.Mpsc.drain ex.inbox)
  in
  let reap () =
    let live, dead = List.partition (fun c -> not c.dead) !conns in
    List.iter
      (fun c ->
        (try Unix.close c.fd with Unix.Unix_error _ -> ());
        release t c)
      dead;
    conns := live
  in
  let read_ready timeout =
    let readable =
      List.filter_map
        (fun c ->
          if (not c.closing) && (not c.dead) && c.inflight < t.config.max_inflight
          then Some c.fd
          else None)
        !conns
    in
    match Unix.select (ex.wake_r :: readable) [] [] timeout with
    | ready, _, _ ->
        if List.memq ex.wake_r ready then drain_wake ();
        List.iter
          (fun c -> if List.memq c.fd ready then read_chunk t c chunk)
          !conns
    | exception Unix.Unix_error (EINTR, _, _) -> ()
    | exception Unix.Unix_error _ -> Thread.delay tick
  in
  let rec loop () =
    adopt ();
    reap ();
    if Atomic.get t.stopping then ()
    else begin
      (* Zero timeout when window-deferred lines are already buffered;
         otherwise block until traffic, a handoff wakeup, or a tick. *)
      let timeout =
        if
          List.exists
            (fun c ->
              c.has_more && (not c.closing) && (not c.dead)
              && c.inflight < t.config.max_inflight)
            !conns
        then 0.
        else tick
      in
      read_ready timeout;
      adopt ();
      let batch =
        List.rev (List.fold_left (fun acc c -> collect_conn t c acc) [] !conns)
      in
      (match batch with
      | [] -> ()
      | _ ->
          let n = List.length batch in
          Edb_obs.Registry.Counter.incr m_batches;
          Edb_obs.Registry.Counter.add m_batch_requests n;
          if float_of_int n > Edb_obs.Registry.Gauge.value m_max_batch then
            Edb_obs.Registry.Gauge.set m_max_batch (float_of_int n);
          Edb_obs.Registry.Gauge.set ex.g_queue (float_of_int n);
          execute_batch t batch);
      (* Idle connections: answer ERR timeout, then close after flush. *)
      let now = Unix.gettimeofday () in
      List.iter
        (fun c ->
          if
            (not c.dead) && (not c.closing) && c.inflight = 0
            && (not (pending_out c))
            && now -. c.last_active > t.config.idle_timeout
          then begin
            enqueue_response c None
              (Protocol.Err
                 { code = Protocol.err_timeout; message = "idle timeout" });
            c.closing <- true
          end)
        !conns;
      List.iter flush_conn !conns;
      Edb_obs.Registry.Gauge.set ex.g_conns (float_of_int (List.length !conns));
      loop ()
    end
  in
  (try loop ()
   with e -> Log.err (fun m -> m "executor %d: %s" ex.ex_id (Printexc.to_string e)));
  (* Drain, part 1: answer the complete requests already sitting in read
     buffers — the shutdown contract is "requests already read are
     answered", and the loop above exits before collecting them.  Each
     pass frees inflight slots, so repeated passes drain buffers larger
     than one window; no further reads happen, so this terminates. *)
  (try
     let rec final_batches () =
       match
         List.rev (List.fold_left (fun acc c -> collect_conn t c acc) [] !conns)
       with
       | [] -> ()
       | batch ->
           execute_batch t batch;
           final_batches ()
     in
     final_batches ()
   with e ->
     Log.err (fun m -> m "executor %d drain: %s" ex.ex_id (Printexc.to_string e)));
  (* Drain, part 2: flush whatever is answered (bounded), then close. *)
  let deadline = Unix.gettimeofday () +. 1.0 in
  let rec drain_flush () =
    List.iter flush_conn !conns;
    if
      List.exists (fun c -> (not c.dead) && pending_out c) !conns
      && Unix.gettimeofday () < deadline
    then begin
      (match
         Unix.select []
           (List.filter_map
              (fun c -> if (not c.dead) && pending_out c then Some c.fd else None)
              !conns)
           [] 0.01
       with
      | _ -> ()
      | exception Unix.Unix_error _ -> Thread.delay 0.01);
      drain_flush ()
    end
  in
  drain_flush ();
  List.iter (fun c -> c.dead <- true) !conns;
  reap ();
  (* Late handoffs that raced the drain: close them too. *)
  List.iter
    (fun fd ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Atomic.decr t.live)
    (Edb_util.Mpsc.drain ex.inbox);
  Edb_obs.Registry.Gauge.set ex.g_conns 0.

(* ------------------------------------------------------------------ *)
(* Acceptor and admission                                              *)
(* ------------------------------------------------------------------ *)

let reject t fd =
  Metrics.incr t.metrics Metrics.Rejects;
  ignore
    (send_response fd
       (Protocol.Err
          { code = Protocol.err_busy; message = "server at capacity" }));
  try Unix.close fd with Unix.Unix_error _ -> ()

(* Admit while the live-connection population is below [max_conns];
   otherwise reject immediately.  Admitted
   connections go round-robin to an executor's inbox, with a self-pipe
   byte so the executor's select wakes now rather than at its tick. *)
let admit t fd =
  if Atomic.get t.live >= t.config.max_conns then reject t fd
  else begin
    Atomic.incr t.live;
    let i = Atomic.fetch_and_add t.rr 1 mod Array.length t.executors in
    let ex = t.executors.(i) in
    Edb_util.Mpsc.push ex.inbox fd;
    match Unix.write_substring ex.wake_w "w" 0 1 with
    | _ -> ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
        () (* pipe full: a wakeup is already pending *)
    | exception Unix.Unix_error _ -> ()
  end

let accept_loop t =
  let rec loop () =
    if Atomic.get t.stopping then ()
    else begin
      (match Unix.select t.listeners [] [] tick with
      | ready, _, _ ->
          List.iter
            (fun lfd ->
              match Unix.accept ~cloexec:true lfd with
              | fd, _ -> admit t fd
              | exception Unix.Unix_error _ -> ())
            ready
      | exception Unix.Unix_error (EINTR, _, _) -> ()
      | exception Unix.Unix_error _ -> Thread.delay tick);
      loop ()
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let bind_unix path =
  (match Unix.lstat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path (* stale socket *)
  | _ -> failwith (path ^ " exists and is not a socket")
  | exception Unix.Unix_error (ENOENT, _, _) -> ());
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  fd

let bind_tcp host port =
  let addr =
    try (Unix.gethostbyname host).Unix.h_addr_list.(0)
    with Not_found -> Unix.inet_addr_of_string host
  in
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (addr, port));
  Unix.listen fd 64;
  fd

let make_executor i =
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  {
    ex_id = i;
    inbox = Edb_util.Mpsc.create ();
    wake_r;
    wake_w;
    g_conns = Edb_obs.Registry.gauge (Printf.sprintf "server_d%d_connections" i);
    g_queue = Edb_obs.Registry.gauge (Printf.sprintf "server_d%d_batch" i);
  }

let start t =
  if t.started then invalid_arg "Server.start: already started";
  t.started <- true;
  let listeners =
    (match t.config.unix_socket with
    | Some path ->
        Log.info (fun m -> m "listening on unix:%s" path);
        [ bind_unix path ]
    | None -> [])
    @
    match t.config.tcp with
    | Some (host, port) ->
        Log.info (fun m -> m "listening on tcp:%s:%d" host port);
        [ bind_tcp host port ]
    | None -> []
  in
  t.listeners <- listeners;
  t.executors <- Array.init t.ndomains make_executor;
  Log.info (fun m ->
      m "%d executor domain%s, %d max connections" t.ndomains
        (if t.ndomains = 1 then "" else "s")
        t.config.max_conns);
  t.domains_h <-
    Array.to_list
      (Array.map (fun ex -> Domain.spawn (fun () -> executor_loop t ex))
         t.executors);
  t.threads <- [ Thread.create accept_loop t ]

let stop t = Atomic.set t.stopping true

(* Normal-context teardown: join the acceptor and the executor domains,
   close leftovers, unlink the socket.  Runs after the flag is set. *)
let join_and_close t =
  List.iter Thread.join t.threads;
  t.threads <- [];
  List.iter Domain.join t.domains_h;
  t.domains_h <- [];
  (* Handoffs that raced both the acceptor's exit and the executors'
     final inbox drain. *)
  Array.iter
    (fun ex ->
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        (Edb_util.Mpsc.drain ex.inbox);
      (try Unix.close ex.wake_r with Unix.Unix_error _ -> ());
      try Unix.close ex.wake_w with Unix.Unix_error _ -> ())
    t.executors;
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    t.listeners;
  t.listeners <- [];
  match t.config.unix_socket with
  | Some path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | None -> ()

let wait t =
  while not (Atomic.get t.stopping) do
    Thread.delay (tick /. 2.)
  done;
  join_and_close t

let run t =
  start t;
  (* Handlers only flip the atomic flag: nothing signal-unsafe, and every
     blocking loop polls the flag within one tick. *)
  let handler = Sys.Signal_handle (fun _ -> stop t) in
  let previous =
    List.map
      (fun s -> (s, Sys.signal s handler))
      [ Sys.sigint; Sys.sigterm ]
  in
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  wait t;
  List.iter (fun (s, b) -> try Sys.set_signal s b with Invalid_argument _ -> ()) previous;
  Log.info (fun m -> m "drained and stopped")
