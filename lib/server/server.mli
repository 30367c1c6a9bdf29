(** The resident summary-serving daemon.

    Domain-per-core event loops: one acceptor thread admission-controls
    incoming connections (beyond [max_conns] live connections the answer
    is an immediate [ERR busy]) and hands them round-robin to
    [domains] executor domains over lock-free MPSC inboxes; each executor
    multiplexes its connections with non-blocking I/O.  The v2 protocol
    pipelines many tagged requests per connection ({!Protocol.split_tag});
    requests arriving in the same loop iteration form a batch, and
    identical QUERYs within a batch are coalesced into one evaluation
    whose response fans out byte-identically to every waiter.  All loops
    poll a shutdown flag, so [stop] — wired to SIGINT/SIGTERM by {!run} —
    drains in-flight requests and returns within a fraction of a second
    plus the longest running evaluation. *)

type config = {
  unix_socket : string option;
  tcp : (string * int) option;  (** bind host, port *)
  max_conns : int;
      (** live connections admitted before [ERR busy]; a connection's slot
          is freed when it closes, or as soon as its QUIT executes *)
  domains : int;
      (** executor domains; 0 = auto: [EDB_DOMAINS] if set, else the
          machine's core count, clamped to \[1, 8\].  Unlike compute
          fan-out, executor domains mostly block in [select], so the
          env value is honoured even beyond the core count. *)
  max_inflight : int;
      (** per-connection pipeline window: once this many requests from
          one connection are unanswered, its socket is not read until
          responses drain (backpressure) *)
  max_line_bytes : int;
      (** a request line growing past this without a newline gets
          [ERR proto] and the connection is closed *)
  request_deadline : float;
      (** seconds; replies [ERR timeout] when an evaluation overruns
          (checked after the fact — compute is not interrupted); <= 0
          disables *)
  idle_timeout : float;  (** seconds a connection may sit quiet *)
  catalog_capacity : int;  (** resident summaries, when no catalog given *)
  catalog_bytes : int option;
      (** byte budget over resident summaries' footprints; evicted names
          transparently reopen on use ([None] = unlimited) *)
  cache_capacity : int;  (** per-summary query-cache entries *)
}

val default_config : config
(** 24 connections, auto domains, no batch linger, 64-request
    pipeline window, 1 MiB line cap, 10 s deadline, 60 s idle timeout,
    no listeners (set at least one of [unix_socket] / [tcp]). *)

type t

val create : ?catalog:Catalog.t -> config -> t
(** Raises [Invalid_argument] on a listener-less config or [max_conns]
    below 1. *)

val catalog : t -> Catalog.t
val metrics : t -> Metrics.t

val num_domains : t -> int
(** Resolved executor-domain count (after the 0 = auto rule). *)

val start : t -> unit
(** Bind the listeners, spawn the executor domains and the acceptor
    thread; returns immediately.  Raises [Unix.Unix_error] if binding
    fails. *)

val stop : t -> unit
(** Request a graceful drain.  Async-signal-safe: only flips an atomic
    flag.  Idempotent. *)

val wait : t -> unit
(** Block until [stop] has been called, then join the acceptor and the
    executor domains, close the listeners, and unlink the Unix socket. *)

val run : t -> unit
(** [start], install SIGINT/SIGTERM handlers that call [stop] (and ignore
    SIGPIPE), then [wait].  Returns after a clean drain, restoring the
    previous signal dispositions. *)
