(** The oracle battery: every answer path cross-checked against every
    other path, against enumeration ground truth, and against model-free
    invariants.

    Three tiers:

    - {b exact}: estimates vs the relation's exact counts, within a
      statistical tolerance derived from the summary's own stddev
      ([z] sigmas plus an absolute floor).  Only run on product-mode
      data, where the MaxEnt model family contains the generating
      distribution — on mixture data a violation would be model error,
      not a bug.
    - {b differential}: independently-built answer paths must agree —
      compressed polynomial vs {!Entropydb_core.Bruteforce} enumeration,
      flat vs a k=1 partitioned build (bitwise), batched GROUP BY vs
      per-cell evaluation, serialize round-trips, cached vs uncached, and
      the server over a Unix socket vs the library call.
    - {b metamorphic}: invariants needing no ground truth — monotonicity
      under predicate widening, GROUP BY cells summing to the
      unrestricted total, partition-of-domain additivity, conjunction
      idempotence, unsatisfiable queries evaluating to exactly 0, and
      inclusion–exclusion bounds (all consequences of Sec. 4.2's
      zeroing evaluation rule). *)

type tier = Exact | Differential | Metamorphic

val tier_name : tier -> string

type config = {
  z : float;  (** exact tier: allowed deviation in model stddevs *)
  exact_atol : float;  (** exact tier: absolute slack in rows *)
  rtol_hard : float;
      (** float-reassociation tolerance for paths computing the same
          quantity by different summation orders (default 1e-9) *)
  rtol_bf : float;
      (** compressed polynomial vs brute-force enumeration (default
          1e-6: the paths differ in factorization, not just order) *)
  server : bool;  (** spin an in-process socket server per case *)
}

val default : config

type finding = {
  check : string;  (** oracle name, e.g. ["groupby-batched-vs-naive"] *)
  tier : tier;
  seed : int;
  detail : string;
}

type result = {
  findings : finding list;
  checks_run : int;  (** individual assertions evaluated *)
  max_exact_sigma : float;
      (** worst exact-tier deviation in stddevs; tolerance headroom *)
}

val check_names : string list

val run : ?only:string -> config -> Gen.spec -> result
(** Build the spec's case and run the battery ([only] restricts to one
    named check — the shrinker's re-run entry point).  A crash during
    the build becomes a ["build"] finding, and a crash inside a check
    becomes a finding for that check; [run] never raises. *)
