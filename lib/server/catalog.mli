(** Weighted directory of resident summaries, keyed by name.

    Every resident summary is a mapped summary file, charged its file
    size once against an optional byte budget, alongside an entry-count
    capacity.  Eviction is weighted LRU over whole summaries, and it
    keeps the name→path directory: an evicted name transparently reopens
    from disk on its next use, in O(header + manifest), so a catalog can
    serve a thousand summaries under a budget
    far below their total footprint without clients ever seeing an
    error.  In-flight requests pin their entry; pinned entries are
    never evicted, so the budget may transiently overshoot by the bytes
    of active requests.

    All operations are safe to call from concurrent server workers;
    opening and verifying happen outside the lock. *)

open Entropydb_core

type aux = {
  rel : Edb_storage.Relation.t;  (** the base table, for exact scans *)
  sample : Edb_sampling.Sample.t;  (** deterministic uniform sample *)
  rate : float;
  csv_path : string;
}
(** Planner routes beyond the summary, attached per entry by {!attach}. *)

type entry = {
  name : string;
  path : string;
  summary : Summary.t;  (** mapped by {!Entropydb_core.Serialize.load} *)
  bytes : int;  (** the file size, charged against the byte budget *)
  cache : Cache.t;
  mutable last_used : int;  (** LRU clock value; managed by the catalog *)
  mutable pins : int;  (** in-flight requests; eviction skips > 0 *)
  mutable aux : aux option;  (** set by {!attach}; dropped with the entry *)
}

type stats = {
  resident : int;
  capacity : int;
  budget_bytes : int option;
  resident_bytes : int;  (** total charged bytes *)
  pinned : int;  (** entries with in-flight requests *)
  slots : int;  (** known names (resident or evicted-but-reopenable) *)
  shards : int;  (** total resident shards across all entries *)
  hits : int;  (** lookups that found the entry resident *)
  misses : int;
  loads : int;  (** explicit {!load}s *)
  evictions : int;
  reopens : int;  (** transparent reopens after budget eviction *)
}

type t

val create : ?capacity:int -> ?budget_bytes:int -> ?cache_capacity:int -> unit -> t
(** [capacity] bounds the resident entry count (default 8);
    [budget_bytes] additionally bounds the summed footprint (default
    unlimited); [cache_capacity] sizes each entry's query cache
    (default 4096).  Raises on non-positive values. *)

val load : t -> name:string -> path:string -> (entry, string) result
(** Map the summary file at [path] and make it resident under [name],
    evicting least-recently-used unpinned entries beyond capacity or
    budget.  Replaces any previous summary of the same name.  The body
    is verified by the first {!acquire}, not here.  Errors name [path];
    a file in a replaced format is refused with the [entropydb upgrade]
    hint. *)

val acquire : t -> string -> (entry, string) result
(** Resolve [name] as {!with_entry} does, verify the entry's file
    ({!Entropydb_core.Summary.verify}, once per open) and return the
    entry pinned; the caller must {!release} it.  A file that fails
    verification is an [Error "<path>: bad summary file: ..."], and its
    entry leaves residency while its slot stays, so a later request
    reopens the file. *)

val release : t -> entry -> unit
(** Drop one pin taken by {!acquire}; the last pin lets the entry be
    evicted again, and the catalog rebalances. *)

val with_entry : t -> string -> (entry -> 'a) -> ('a, string) result
(** Resolve and verify [name] as {!acquire} does — resident hit, or
    transparent reopen from the name's recorded path — pin the entry for
    the duration of [f], and run [f] outside the lock.  The pin guarantees the entry is not
    chosen for eviction while the request runs.  Errors if the name was
    never loaded (or was explicitly evicted) or the reopen fails. *)

val attach : t -> name:string -> path:string -> rate:float -> (entry, string) result
(** Load the index-form CSV at [path] under summary [name]'s schema and
    attach it — plus a deterministic uniform sample at [rate] — as
    planner routes.  Errors if the name is unknown, the rate is outside
    (0, 1], or the CSV does not parse against the schema. *)

type refresh_info = {
  batch_rows : int;
  cardinality : int;  (** after the append *)
  sweeps : int;  (** warm-started re-solve sweeps *)
  batches : int;  (** journal length after the append *)
}

val refresh : t -> name:string -> path:string -> (entry * refresh_info, string) result
(** Ingest the batch CSV at [path] into the (unsharded) summary [name]:
    incremental Φ update + warm-started re-solve + atomic rewrite of the
    summary file, all outside the lock, then an atomic swap of the
    catalog entry, reopened from the new file, with a fresh (empty)
    query cache.  Concurrent queries answer from the
    old summary until the swap and never observe a partial one.  Any
    ATTACHed planner routes are dropped (they describe the pre-batch
    table).  Errors if the name is unknown, the summary is sharded, or
    the CSV does not parse against its schema. *)

val known : t -> string -> bool
(** Whether [name] has a slot — resident or evicted-but-reopenable.
    Does not touch the LRU clock or the hit/miss counters. *)

val find : t -> string -> entry option
(** Resident-only lookup; bumps the entry's LRU position and the
    hit/miss counters.  Never touches the disk — use {!with_entry} to
    get transparent reopen. *)

val evict : t -> string -> bool
(** Forget a name entirely: drop residency {e and} the name→path slot,
    so the name errors until re-LOADed.  [false] if unknown. *)

val entries : t -> entry list
(** Resident entries, sorted by name. *)

val cache_stats : t -> int * int * int
(** Summed (hits, misses, evictions) over all resident entries' query
    caches. *)

val stats : t -> stats

(** {2 Entry accessors} *)

val schema : entry -> Edb_storage.Schema.t
val cardinality : entry -> int
val num_shards : entry -> int

val stddev : entry -> Edb_storage.Predicate.t -> float
(** The square root of the entry's cached COUNT answer's variance
    ({!Entropydb_core.Cache.count}).  The daemon renders COUNT replies
    from that answer directly; this remains only for the serving
    benchmark's replay ([bench/suite/replay.ml]), whose [kernel.stddev]
    stage calls it until a benchmark change retires that stage. *)
