(* The compressed MaxEnt polynomial (Sec. 3.1 Eq. 5, compressed per
   Theorem 4.1, plus two refinements).

   The uncompressed polynomial has one monomial per possible tuple —
   billions for the paper's schemas — so it is never materialized.
   Theorem 4.1 rewrites P as a sum over *compatible sets* S of
   multi-dimensional statistics: each S contributes

       (i)  the full 1D sums A_i of the attributes S does not restrict,
       (ii) the sums of 1D variables inside the intersection of S's
            per-attribute projections, for the attributes it does restrict,
            times prod_{j in S} (delta_j - 1).

   Refinement 1 — group factorization.  Joint statistics are partitioned
   into *connected groups* by shared attributes (union-find).  Monomials
   factor across groups, so

       P  =  prod_{i free} A_i  *  prod_g Q_g

   and each group polynomial Q_g enumerates only compatible sets drawn from
   its own statistics: attribute-disjoint families (e.g. the paper's Ent3&4
   pairs (time,distance) x (origin,dest)) multiply instead of
   cross-producting.  The paper's Sec. 7 lists this further factorization
   as future work.

   Refinement 2 — mask-indexed part (i).  Within a group, many terms leave
   some group attributes unrestricted.  Storing those attributes' full sums
   inside every term would make a single marginal update touch every term
   of the group.  Instead, terms are bucketed by their *mask* (the set of
   group attributes their S restricts) and carry only part (ii); the group
   value is

       Q_g = sum_masks  S_mask * prod_{i in group, i not in mask} A_i

   where S_mask is the running sum of the bucket's part-(ii) values.  A
   marginal update then touches only the terms whose own projection
   contains the value, plus O(#masks) outer products — #masks is bounded by
   the number of distinct family combinations, typically < 10.

   Memory layout (structure of arrays).  A term is not a record: a group
   stores all of its terms' data in flat parallel arrays, with CSR offset
   tables for the variable-length parts.

     term ti:
       stats       ts_stat.(ts_off.(ti) .. ts_off.(ti+1)-1)
       factor slot s in fa_off.{ti} .. fa_off.{ti+1}-1:
         attribute fa_attr.{s}, cached factor factors.{s},
         projection intervals (iv_lo, iv_hi).{iv_off.{s} .. iv_off.{s+1}-1}
       mask t_mask.{ti}, cached dprod.{ti}, fprod/value.(ti)

   Every table the evaluators read — alpha, the attribute sums, the prefix
   sums, and per group fa_off/fa_attr/factors/iv_*/t_mask/dprod/mask_bits
   — is a float64 or int Bigarray, so the same evaluator answers a summary
   built here and one opened over a summary file's mapping, where
   [Serialize.load] carves these very tables out of the file
   ([of_tables]).  The
   solver's update tables (the ts, bys and byv families, fprod, value and
   the per-mask caches) stay OCaml arrays; a polynomial over borrowed
   tables has none and is read-only.

   The inverted indexes used by single-variable updates are CSR too:
   by-stat rows (bys_off/bys_term, keyed through the bys_row table) and
   per-attribute by-value buckets (byv_off/byv_term/byv_slot).  Both are
   filled in *descending* term order, matching the prepend-built lists of
   the previous boxed-record layout, so solver trajectories — every
   intermediate float — are bitwise identical to that layout's.

   Restricted evaluation walks these arrays with zero per-call
   minor-heap allocation: interval intersections are merged prefix-sum
   walks (never materialized), and the per-call accumulators (restricted
   attribute sums, per-mask masses, per-cell scatter) live in a reusable
   scratch block claimed with an atomic flag — concurrent evaluations on
   the same polynomial (server threads) fall back to a fresh block.

   The structure is mutable: the solver updates one variable at a time
   (Algorithm 1) and every cached quantity — A_i, per-term factors,
   per-mask sums, Q_g, P — is maintained incrementally.  [refresh]
   recomputes everything from the variable vector to wash out accumulated
   floating-point drift. *)

open Edb_util
open Edb_storage
module A1 = Bigarray.Array1

type fbuf = (float, Bigarray.float64_elt, Bigarray.c_layout) A1.t
type ibuf = (int, Bigarray.int_elt, Bigarray.c_layout) A1.t

(* One group's evaluator tables. *)
type group = {
  g_attrs : int array; (* ascending *)
  n_terms : int; (* term 0 is the base term (S = empty, mask 0) *)
  (* term -> factor slots, one per attribute S restricts, ascending (CSR) *)
  fa_off : ibuf; (* length n_terms + 1 *)
  fa_attr : ibuf; (* slot -> attribute *)
  factors : fbuf; (* slot -> cached F_i(S) = sum of alpha inside *)
  (* slot -> projection-intersection intervals, ascending (CSR) *)
  iv_off : ibuf; (* length #slots + 1 *)
  iv_lo : ibuf;
  iv_hi : ibuf;
  t_mask : ibuf; (* term -> mask id within the group *)
  dprod : fbuf; (* term -> prod_{j in S} (alpha_j - 1); 1 for the base *)
  mask_bits : ibuf; (* mask id -> bitset over local attr indices *)
}

(* One group's solver-side update tables. *)
type updates = {
  g_stats : int array; (* joint stat ids *)
  (* term -> joint stat ids of S (CSR) *)
  ts_off : int array; (* length n_terms + 1 *)
  ts_stat : int array;
  fprod : float array; (* term -> prod of its factors *)
  value : float array; (* term -> fprod * dprod — part (ii) only *)
  mask_sum : float array; (* mask id -> sum of its terms' values *)
  mask_outer : float array; (* mask id -> prod of A_i over unmasked locals *)
  mutable q : float;
  (* joint stat id -> row of terms containing it, descending term order *)
  bys_row : (int, int) Hashtbl.t;
  bys_off : int array;
  bys_term : int array;
  (* local attr -> value -> (term, slot) bucket, descending term order *)
  byv_off : int array array; (* per local attr, length domain size + 1 *)
  byv_term : int array array;
  byv_slot : int array array;
}

(* What single-variable updates need beyond the evaluator tables; only a
   polynomial built by [create] has it. *)
type solver = {
  phi : Phi.t;
  group_of_stat : (int, int) Hashtbl.t; (* joint stat id -> group index *)
  upd : updates array; (* parallel to [groups] *)
}

(* Reusable per-evaluation accumulators, sized for the largest group (and
   largest attribute domain) of the polynomial they belong to. *)
type scratch = {
  ra : float array; (* local attr -> restricted attribute sum *)
  msum : float array; (* mask id -> restricted term-mass sum *)
  coef : float array; (* mask id -> outer product (GROUP BY kernel) *)
  scatter : float array; (* domain value -> scattered mass *)
}

type t = {
  schema : Schema.t;
  m : int;
  n : int;
  marg_off : int array; (* attr -> stat id of its first marginal *)
  alpha : fbuf; (* one variable per statistic, indexed by stat id *)
  attr_sums : fbuf; (* A_i *)
  groups : group array;
  group_of_attr : int array; (* attr -> group index, or -1 if free *)
  free_attrs : int array;
  mutable p : float;
  (* Every attribute's prefix sums of alpha, concatenated: attribute i's
     N_i + 1 sums start at prefix_off.(i).  One table plus offsets rather
     than an array of per-attribute views, so a lookup costs no generic
     array access. *)
  prefix : fbuf;
  prefix_off : int array;
  mutable prefix_valid : bool;
  scratch : scratch;
  scratch_busy : bool Atomic.t; (* claimed by an in-flight evaluation *)
  solver : solver option; (* None: read-only tables lent by storage *)
  phi_of : unit -> Phi.t;
  (* Integrity latch over lent tables: [verify] runs once, before the
     first answer or table read. *)
  verified : bool Atomic.t;
  verify : unit -> unit;
}

exception Too_many_terms of { cap : int; group_attrs : int list }

(* Identifies the in-memory term layout in benchmark artifacts
   (BENCH_kernel.json), so speedup and regression gates know whether they
   are comparing like with like. *)
let layout = "soa-csr-bigarray"

let fbuf_init n f : fbuf =
  let a = A1.create Bigarray.float64 Bigarray.c_layout n in
  for i = 0 to n - 1 do
    A1.unsafe_set a i (f i)
  done;
  a

let ibuf_of_array (a : int array) : ibuf =
  A1.of_array Bigarray.int Bigarray.c_layout a

(* ------------------------------------------------------------------ *)
(* Observability                                                       *)
(* ------------------------------------------------------------------ *)

(* Count kernel invocations always (one striped atomic add per call);
   spans and the latency histogram cost a closure and a clock read, so
   they are taken only when tracing is enabled.  Instrumentation is per
   kernel call — never per term — so the disabled-mode cost is one flag
   load next to a full term pass, and the disabled path stays
   allocation-free. *)
module Obs = Edb_obs.Obs

let evals_counter = Edb_obs.Registry.counter "poly.evals"

(* Bucket values are *nanoseconds* (the name carries the unit): kernel
   calls on interactive summaries sit well under a microsecond per term,
   below the histogram's native microsecond resolution. *)
let eval_ns_hist = Edb_obs.Registry.histogram "kernel_eval_ns"
let scratch_reuse_counter = Edb_obs.Registry.counter "kernel_scratch_reuses"
let scratch_alloc_counter = Edb_obs.Registry.counter "kernel_scratch_allocs"

(* ------------------------------------------------------------------ *)
(* Read-only tables                                                    *)
(* ------------------------------------------------------------------ *)

let read_only t = Option.is_none t.solver

let solver_of t what =
  match t.solver with
  | Some s -> s
  | None ->
      invalid_arg
        (what ^ ": read-only polynomial (its tables are a file mapping)")

let[@inline] verify t =
  if not (Atomic.get t.verified) then begin
    t.verify ();
    Atomic.set t.verified true
  end

(* ------------------------------------------------------------------ *)
(* Cached-state maintenance                                            *)
(* ------------------------------------------------------------------ *)

let ensure_prefix t =
  if not t.prefix_valid then begin
    for i = 0 to t.m - 1 do
      let size = Schema.domain_size t.schema i in
      let pre = t.prefix and base = t.prefix_off.(i) and off = t.marg_off.(i) in
      pre.{base} <- 0.;
      for v = 0 to size - 1 do
        pre.{base + v + 1} <- pre.{base + v} +. t.alpha.{off + v}
      done
    done;
    t.prefix_valid <- true
  end

(* Sum over a value set of the variables whose prefix sums start at
   [pre].{base}: O(#intervals). *)
let[@inline] range_sum (pre : fbuf) base r =
  let acc = ref 0. in
  for k = 0 to Ranges.num_intervals r - 1 do
    acc :=
      !acc
      +. pre.{base + Ranges.interval_hi r k + 1}
      -. pre.{base + Ranges.interval_lo r k}
  done;
  !acc

(* Sum of the prefix sums starting at [pre].{base} over factor slot [s]'s
   own intervals.  Unsafe accesses: interval bounds are validated against
   the attribute domain at construction, and offsets index arrays built
   from the same counts. *)
let[@inline] slot_sum (pre : fbuf) base g s =
  let iv_lo = g.iv_lo and iv_hi = g.iv_hi in
  let acc = ref 0. in
  for k = g.iv_off.{s} to g.iv_off.{s + 1} - 1 do
    acc :=
      !acc
      +. A1.unsafe_get pre (base + A1.unsafe_get iv_hi k + 1)
      -. A1.unsafe_get pre (base + A1.unsafe_get iv_lo k)
  done;
  !acc

(* Sum of [pre] over (slot [s]'s intervals ∩ [qr]): the merge walk
   [Ranges.inter] performs, summed directly instead of materialized.
   Interval order and summation order match [range_sum] over the
   materialized intersection, so the result is bitwise identical. *)
let[@inline] inter_sum (pre : fbuf) base g s qr =
  let iv_lo = g.iv_lo and iv_hi = g.iv_hi in
  let acc = ref 0. in
  let k = ref g.iv_off.{s} and j = ref 0 in
  let k1 = g.iv_off.{s + 1} and nq = Ranges.num_intervals qr in
  while !k < k1 && !j < nq do
    let alo = A1.unsafe_get iv_lo !k and ahi = A1.unsafe_get iv_hi !k in
    let blo = Ranges.interval_lo qr !j and bhi = Ranges.interval_hi qr !j in
    let lo = if alo > blo then alo else blo in
    let hi = if ahi < bhi then ahi else bhi in
    if lo <= hi then
      acc :=
        !acc +. A1.unsafe_get pre (base + hi + 1) -. A1.unsafe_get pre (base + lo);
    if ahi < bhi then incr k else incr j
  done;
  !acc

let[@inline] fprod_of g ti =
  let acc = ref 1. in
  for s = g.fa_off.{ti} to g.fa_off.{ti + 1} - 1 do
    acc := !acc *. g.factors.{s}
  done;
  !acc

let[@inline] dprod_of t u ti =
  let acc = ref 1. in
  for s = u.ts_off.(ti) to u.ts_off.(ti + 1) - 1 do
    acc := !acc *. (t.alpha.{u.ts_stat.(s)} -. 1.)
  done;
  !acc

(* Recompute every mask's outer product and the group value from the
   current attribute sums and mask sums: O(#masks * |g_attrs|). *)
let recompute_group_q t g u =
  let n_local = Array.length g.g_attrs in
  let q = ref 0. in
  for k = 0 to A1.dim g.mask_bits - 1 do
    let bits = g.mask_bits.{k} in
    let outer = ref 1. in
    for li = 0 to n_local - 1 do
      if bits land (1 lsl li) = 0 then
        outer := !outer *. t.attr_sums.{g.g_attrs.(li)}
    done;
    u.mask_outer.(k) <- !outer;
    q := !q +. (u.mask_sum.(k) *. !outer)
  done;
  u.q <- !q

let compute_p t s =
  let p = ref 1. in
  for k = 0 to Array.length t.free_attrs - 1 do
    p := !p *. t.attr_sums.{t.free_attrs.(k)}
  done;
  for gi = 0 to Array.length s.upd - 1 do
    p := !p *. s.upd.(gi).q
  done;
  !p

let refresh t =
  let s = solver_of t "Poly.refresh" in
  t.prefix_valid <- false;
  ensure_prefix t;
  for i = 0 to t.m - 1 do
    t.attr_sums.{i} <- t.prefix.{t.prefix_off.(i) + Schema.domain_size t.schema i}
  done;
  Array.iteri
    (fun gi g ->
      let u = s.upd.(gi) in
      Array.fill u.mask_sum 0 (Array.length u.mask_sum) 0.;
      for ti = 0 to g.n_terms - 1 do
        for sl = g.fa_off.{ti} to g.fa_off.{ti + 1} - 1 do
          g.factors.{sl} <- slot_sum t.prefix t.prefix_off.(g.fa_attr.{sl}) g sl
        done;
        u.fprod.(ti) <- fprod_of g ti;
        g.dprod.{ti} <- dprod_of t u ti;
        u.value.(ti) <- u.fprod.(ti) *. g.dprod.{ti};
        u.mask_sum.(g.t_mask.{ti}) <- u.mask_sum.(g.t_mask.{ti}) +. u.value.(ti)
      done;
      recompute_group_q t g u)
    t.groups;
  t.p <- compute_p t s

(* ------------------------------------------------------------------ *)
(* Scratch management                                                  *)
(* ------------------------------------------------------------------ *)

let make_scratch schema groups =
  let max_attrs = ref 1 and max_masks = ref 1 in
  Array.iter
    (fun g ->
      max_attrs := max !max_attrs (Array.length g.g_attrs);
      max_masks := max !max_masks (A1.dim g.mask_bits))
    groups;
  let max_dom = ref 1 in
  for i = 0 to Schema.arity schema - 1 do
    max_dom := max !max_dom (Schema.domain_size schema i)
  done;
  {
    ra = Array.make !max_attrs 0.;
    msum = Array.make !max_masks 0.;
    coef = Array.make !max_masks 0.;
    scatter = Array.make !max_dom 0.;
  }

(* Claim the polynomial's scratch block, or allocate a fresh one if an
   evaluation on another thread holds it (server systhreads can
   interleave at polling points mid-evaluation).  The counters make the
   steady state observable: reuses should dominate allocs. *)
let acquire_scratch t =
  if Atomic.compare_and_set t.scratch_busy false true then begin
    Edb_obs.Registry.Counter.incr scratch_reuse_counter;
    t.scratch
  end
  else begin
    Edb_obs.Registry.Counter.incr scratch_alloc_counter;
    make_scratch t.schema t.groups
  end

let release_scratch t sc =
  if sc == t.scratch then Atomic.set t.scratch_busy false

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

module Uf = struct
  let find parent i =
    let rec go i = if parent.(i) = i then i else go parent.(i) in
    let root = go i in
    let rec compress i =
      if parent.(i) <> root then begin
        let next = parent.(i) in
        parent.(i) <- root;
        compress next
      end
    in
    compress i;
    root

  let union parent a b =
    let ra = find parent a and rb = find parent b in
    if ra <> rb then parent.(ra) <- rb
end

let stat_ranges phi j =
  (* The per-attribute projections rho_ij of joint statistic j. *)
  let pred = Statistic.pred (Phi.stat phi j) in
  List.map
    (fun i ->
      match Predicate.restriction pred i with
      | Some r -> (i, r)
      | None -> assert false)
    (Predicate.restricted_attrs pred)

type raw_term = { rt_stats : int list; rt_bound : (int * Ranges.t) list }

(* Enumerate the compatible sets of one group by DFS over its families:
   pick at most one statistic per family (same-family statistics are
   disjoint, so they never co-occur in a monomial), pruning as soon as some
   attribute's projection intersection becomes empty.  This constructs the
   paper's J_I sets for all I at once. *)
let enumerate_raw_terms phi ~term_cap ~g_attrs ~g_families =
  let terms = ref [] and count = ref 0 in
  let m = Array.fold_left max 0 g_attrs + 1 in
  let restr_map : Ranges.t option array = Array.make m None in
  let emit stats =
    incr count;
    if !count > term_cap then
      raise
        (Too_many_terms { cap = term_cap; group_attrs = Array.to_list g_attrs });
    let bound =
      List.filter_map
        (fun i ->
          match restr_map.(i) with Some r -> Some (i, r) | None -> None)
        (Array.to_list g_attrs)
    in
    terms := { rt_stats = List.rev stats; rt_bound = bound } :: !terms
  in
  let families = Array.of_list g_families in
  let ranges_of = Hashtbl.create 64 in
  Array.iter
    (fun fam ->
      Array.iter (fun j -> Hashtbl.add ranges_of j (stat_ranges phi j)) fam)
    families;
  let rec dfs f chosen any =
    if f = Array.length families then begin
      if any then emit chosen
    end
    else begin
      (* Skip this family. *)
      dfs (f + 1) chosen any;
      (* Or choose one of its statistics. *)
      Array.iter
        (fun j ->
          let ranges = Hashtbl.find ranges_of j in
          let saved = List.map (fun (i, _) -> (i, restr_map.(i))) ranges in
          let ok =
            List.for_all
              (fun (i, r) ->
                let r' =
                  match restr_map.(i) with
                  | None -> r
                  | Some r0 -> Ranges.inter r0 r
                in
                restr_map.(i) <- Some r';
                not (Ranges.is_empty r'))
              ranges
          in
          if ok then dfs (f + 1) (j :: chosen) true;
          List.iter (fun (i, saved_r) -> restr_map.(i) <- saved_r) saved)
        families.(f)
    end
  in
  dfs 0 [] false;
  !terms

(* Flatten one group's raw terms into the SoA/CSR layout.  Term 0 is the
   base term (no stats, no slots); raw terms follow in enumeration order,
   exactly as the boxed layout stored them. *)
let build_group schema ~g_attrs ~g_stats ~local_of_attr ~raw_arr ~t_mask
    ~mask_bits =
  let nt = 1 + Array.length raw_arr in
  let ts_off = Array.make (nt + 1) 0 and fa_off = Array.make (nt + 1) 0 in
  Array.iteri
    (fun k rt ->
      ts_off.(k + 2) <- List.length rt.rt_stats;
      fa_off.(k + 2) <- List.length rt.rt_bound)
    raw_arr;
  for ti = 1 to nt do
    ts_off.(ti) <- ts_off.(ti) + ts_off.(ti - 1);
    fa_off.(ti) <- fa_off.(ti) + fa_off.(ti - 1)
  done;
  let ts_stat = Array.make ts_off.(nt) 0 in
  let n_slots = fa_off.(nt) in
  let fa_attr = Array.make n_slots 0 in
  let slot_restr = Array.make n_slots Ranges.empty in
  Array.iteri
    (fun k rt ->
      let ti = k + 1 in
      List.iteri (fun d j -> ts_stat.(ts_off.(ti) + d) <- j) rt.rt_stats;
      List.iteri
        (fun d (i, r) ->
          fa_attr.(fa_off.(ti) + d) <- i;
          slot_restr.(fa_off.(ti) + d) <- r)
        rt.rt_bound)
    raw_arr;
  let iv_off = Array.make (n_slots + 1) 0 in
  for s = 0 to n_slots - 1 do
    iv_off.(s + 1) <- iv_off.(s) + Ranges.num_intervals slot_restr.(s)
  done;
  let iv_lo = Array.make iv_off.(n_slots) 0
  and iv_hi = Array.make iv_off.(n_slots) 0 in
  for s = 0 to n_slots - 1 do
    let r = slot_restr.(s) in
    for k = 0 to Ranges.num_intervals r - 1 do
      iv_lo.(iv_off.(s) + k) <- Ranges.interval_lo r k;
      iv_hi.(iv_off.(s) + k) <- Ranges.interval_hi r k
    done
  done;
  (* Inverted index: stat -> terms.  Filled in descending term order to
     match the prepend-built association lists of the boxed layout (the
     solver's update order, hence its float trajectories, depend on it). *)
  let n_rows = Array.length g_stats in
  let bys_row = Hashtbl.create (max 16 n_rows) in
  Array.iteri (fun row j -> Hashtbl.add bys_row j row) g_stats;
  let bys_off = Array.make (n_rows + 1) 0 in
  for s = 0 to ts_off.(nt) - 1 do
    let row = Hashtbl.find bys_row ts_stat.(s) in
    bys_off.(row + 1) <- bys_off.(row + 1) + 1
  done;
  for r = 1 to n_rows do
    bys_off.(r) <- bys_off.(r) + bys_off.(r - 1)
  done;
  let bys_term = Array.make ts_off.(nt) 0 in
  let cursor = Array.make n_rows 0 in
  for ti = nt - 1 downto 0 do
    for s = ts_off.(ti) to ts_off.(ti + 1) - 1 do
      let row = Hashtbl.find bys_row ts_stat.(s) in
      bys_term.(bys_off.(row) + cursor.(row)) <- ti;
      cursor.(row) <- cursor.(row) + 1
    done
  done;
  (* Inverted index: local attr -> value -> (term, slot), also filled in
     descending term order. *)
  let n_local = Array.length g_attrs in
  let byv_off =
    Array.init n_local (fun li ->
        Array.make (Schema.domain_size schema g_attrs.(li) + 1) 0)
  in
  for s = 0 to n_slots - 1 do
    let off = byv_off.(local_of_attr.(fa_attr.(s))) in
    for k = iv_off.(s) to iv_off.(s + 1) - 1 do
      for v = iv_lo.(k) to iv_hi.(k) do
        off.(v + 1) <- off.(v + 1) + 1
      done
    done
  done;
  Array.iter
    (fun off ->
      for v = 1 to Array.length off - 1 do
        off.(v) <- off.(v) + off.(v - 1)
      done)
    byv_off;
  let bucket_total off = off.(Array.length off - 1) in
  let byv_term = Array.map (fun off -> Array.make (bucket_total off) 0) byv_off in
  let byv_slot = Array.map (fun off -> Array.make (bucket_total off) 0) byv_off in
  let byv_cursor =
    Array.map (fun off -> Array.make (Array.length off - 1) 0) byv_off
  in
  for ti = nt - 1 downto 0 do
    for s = fa_off.(ti) to fa_off.(ti + 1) - 1 do
      let li = local_of_attr.(fa_attr.(s)) in
      let off = byv_off.(li) and cur = byv_cursor.(li) in
      for k = iv_off.(s) to iv_off.(s + 1) - 1 do
        for v = iv_lo.(k) to iv_hi.(k) do
          let p = off.(v) + cur.(v) in
          byv_term.(li).(p) <- ti;
          byv_slot.(li).(p) <- s;
          cur.(v) <- cur.(v) + 1
        done
      done
    done
  done;
  let fprod = Array.make nt 0. and value = Array.make nt 0. in
  fprod.(0) <- 1.;
  value.(0) <- 1.;
  ( {
      g_attrs;
      n_terms = nt;
      fa_off = ibuf_of_array fa_off;
      fa_attr = ibuf_of_array fa_attr;
      factors = fbuf_init n_slots (fun _ -> 0.);
      iv_off = ibuf_of_array iv_off;
      iv_lo = ibuf_of_array iv_lo;
      iv_hi = ibuf_of_array iv_hi;
      t_mask = ibuf_of_array t_mask;
      dprod = fbuf_init nt (fun _ -> 1.);
      mask_bits = ibuf_of_array mask_bits;
    },
    {
      g_stats;
      ts_off;
      ts_stat;
      fprod;
      value;
      mask_sum = Array.make (Array.length mask_bits) 0.;
      mask_outer = Array.make (Array.length mask_bits) 1.;
      q = 0.;
      bys_row;
      bys_off;
      bys_term;
      byv_off;
      byv_term;
      byv_slot;
    } )

let marginal_offsets schema =
  let m = Schema.arity schema in
  let off = Array.make m 0 in
  for i = 1 to m - 1 do
    off.(i) <- off.(i - 1) + Schema.domain_size schema (i - 1)
  done;
  off

(* attr -> start of its N_i + 1 prefix sums in the concatenated table;
   the last element is the table's length. *)
let prefix_offsets schema =
  let m = Schema.arity schema in
  let off = Array.make (m + 1) 0 in
  for i = 0 to m - 1 do
    off.(i + 1) <- off.(i) + Schema.domain_size schema i + 1
  done;
  off

let create ?(term_cap = 2_000_000) phi =
  let schema = Phi.schema phi in
  let m = Schema.arity schema in
  (* Union-find over attributes through joint statistics. *)
  let parent = Array.init m (fun i -> i) in
  List.iter
    (fun j ->
      match Statistic.attrs (Phi.stat phi j) with
      | [] | [ _ ] -> assert false
      | a0 :: rest -> List.iter (fun a -> Uf.union parent a0 a) rest)
    (Phi.joint_ids phi);
  (* Collect groups: root -> statistic list. *)
  let root_stats : (int, int list ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun j ->
      let a0 = List.hd (Statistic.attrs (Phi.stat phi j)) in
      let root = Uf.find parent a0 in
      match Hashtbl.find_opt root_stats root with
      | Some l -> l := j :: !l
      | None -> Hashtbl.add root_stats root (ref [ j ]))
    (Phi.joint_ids phi);
  let group_of_attr = Array.make m (-1) in
  let group_of_stat = Hashtbl.create 64 in
  let groups = ref [] and g_idx = ref 0 in
  Hashtbl.iter
    (fun root stats ->
      let stats = List.rev !stats in
      let g_attrs =
        List.filter (fun i -> Uf.find parent i = root) (List.init m Fun.id)
        |> List.filter (fun i ->
               List.exists
                 (fun j -> List.mem i (Statistic.attrs (Phi.stat phi j)))
                 stats)
        |> Array.of_list
      in
      let local_of_attr = Array.make m (-1) in
      Array.iteri (fun li i -> local_of_attr.(i) <- li) g_attrs;
      (* Families restricted to this group, in id order. *)
      let g_families =
        Array.to_list (Phi.families phi)
        |> List.filter_map (fun members ->
               let inside =
                 Array.to_list members |> List.filter (fun j -> List.mem j stats)
               in
               if inside = [] then None else Some (Array.of_list inside))
      in
      let raw = enumerate_raw_terms phi ~term_cap ~g_attrs ~g_families in
      (* Assign mask ids: one per distinct restricted-attribute set, in
         term enumeration order. *)
      let mask_ids = Hashtbl.create 8 in
      Hashtbl.add mask_ids 0 0;
      let next_mask = ref 1 in
      let mask_of bound =
        let bits =
          List.fold_left
            (fun acc (i, _) -> acc lor (1 lsl local_of_attr.(i)))
            0 bound
        in
        match Hashtbl.find_opt mask_ids bits with
        | Some k -> k
        | None ->
            let k = !next_mask in
            Hashtbl.add mask_ids bits k;
            incr next_mask;
            k
      in
      let raw_arr = Array.of_list raw in
      let nt = 1 + Array.length raw_arr in
      let t_mask = Array.make nt 0 in
      Array.iteri (fun k rt -> t_mask.(k + 1) <- mask_of rt.rt_bound) raw_arr;
      let mask_bits = Array.make !next_mask 0 in
      Hashtbl.iter (fun bits k -> mask_bits.(k) <- bits) mask_ids;
      let g =
        build_group schema ~g_attrs ~g_stats:(Array.of_list stats)
          ~local_of_attr ~raw_arr ~t_mask ~mask_bits
      in
      Array.iter (fun i -> group_of_attr.(i) <- !g_idx) g_attrs;
      List.iter (fun j -> Hashtbl.add group_of_stat j !g_idx) stats;
      groups := g :: !groups;
      incr g_idx)
    root_stats;
  let groups, upd = Array.split (Array.of_list (List.rev !groups)) in
  let free_attrs =
    Array.of_list
      (List.filter (fun i -> group_of_attr.(i) = -1) (List.init m Fun.id))
  in
  let n = float_of_int (Phi.n phi) in
  let stats = Phi.stats phi in
  let alpha =
    fbuf_init (Array.length stats) (fun j ->
        let s = stats.(j) in
        match Statistic.kind s with
        (* n = 0 (an empty shard of a partitioned relation): every target
           is 0, so seed the variables at 0 rather than 0/0 = nan; the
           degenerate model answers every query with 0 via the P <= 0
           guards below. *)
        | Statistic.Marginal _ -> if n > 0. then Statistic.target s /. n else 0.
        | Statistic.Joint _ -> 1.)
  in
  let prefix_off = prefix_offsets schema in
  let prefix = fbuf_init prefix_off.(m) (fun _ -> 0.) in
  let t =
    {
      schema;
      m;
      n = Phi.n phi;
      marg_off = marginal_offsets schema;
      alpha;
      attr_sums = fbuf_init m (fun _ -> 0.);
      groups;
      group_of_attr;
      free_attrs;
      p = 0.;
      prefix;
      prefix_off;
      prefix_valid = false;
      scratch = make_scratch schema groups;
      scratch_busy = Atomic.make false;
      solver = Some { phi; group_of_stat; upd };
      phi_of = (fun () -> phi);
      verified = Atomic.make true;
      verify = ignore;
    }
  in
  refresh t;
  t

(* ------------------------------------------------------------------ *)
(* Table export and import (summary files)                             *)
(* ------------------------------------------------------------------ *)

type tables = {
  tb_alpha : fbuf;
  tb_attr_sums : fbuf;
  tb_prefix : fbuf;
  tb_p : float;
  tb_free_attrs : int array;
  tb_group_of_attr : int array;
  tb_groups : group array;
}

let tables t =
  verify t;
  ensure_prefix t;
  {
    tb_alpha = t.alpha;
    tb_attr_sums = t.attr_sums;
    tb_prefix = t.prefix;
    tb_p = t.p;
    tb_free_attrs = t.free_attrs;
    tb_group_of_attr = t.group_of_attr;
    tb_groups = t.groups;
  }

let of_tables schema ~n tb ~phi ~verify =
  {
    schema;
    m = Schema.arity schema;
    n;
    marg_off = marginal_offsets schema;
    alpha = tb.tb_alpha;
    attr_sums = tb.tb_attr_sums;
    groups = tb.tb_groups;
    group_of_attr = tb.tb_group_of_attr;
    free_attrs = tb.tb_free_attrs;
    p = tb.tb_p;
    prefix = tb.tb_prefix;
    prefix_off = prefix_offsets schema;
    prefix_valid = true;
    scratch = make_scratch schema tb.tb_groups;
    scratch_busy = Atomic.make false;
    solver = None;
    phi_of = phi;
    verified = Atomic.make false;
    verify;
  }

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let phi t = t.phi_of ()
let schema t = t.schema
let cardinality t = t.n

let p t =
  verify t;
  t.p

let alpha t j =
  verify t;
  t.alpha.{j}

let num_stats t = A1.dim t.alpha
let num_marginals t =
  let k = ref 0 in
  for i = 0 to t.m - 1 do
    k := !k + Schema.domain_size t.schema i
  done;
  !k
let num_terms t = Array.fold_left (fun acc g -> acc + g.n_terms) 0 t.groups
let num_groups t = Array.length t.groups
let uncompressed_monomials t = Schema.tuple_space_size t.schema

(* ------------------------------------------------------------------ *)
(* Incremental variable update                                         *)
(* ------------------------------------------------------------------ *)

let local_of g attr =
  let rec find k = if g.g_attrs.(k) = attr then k else find (k + 1) in
  find 0

let set_alpha t j v =
  let s = solver_of t "Poly.set_alpha" in
  let old = t.alpha.{j} in
  if old <> v then begin
    t.alpha.{j} <- v;
    t.prefix_valid <- false;
    (match Statistic.kind (Phi.stat s.phi j) with
    | Statistic.Marginal { attr; value } ->
        let delta = v -. old in
        t.attr_sums.{attr} <- t.attr_sums.{attr} +. delta;
        let gi = t.group_of_attr.(attr) in
        if gi >= 0 then begin
          let g = t.groups.(gi) and u = s.upd.(gi) in
          let li = local_of g attr in
          let off = u.byv_off.(li) in
          let terms = u.byv_term.(li) and slots = u.byv_slot.(li) in
          for p = off.(value) to off.(value + 1) - 1 do
            let ti = terms.(p) and sl = slots.(p) in
            g.factors.{sl} <- g.factors.{sl} +. delta;
            u.fprod.(ti) <- fprod_of g ti;
            let value' = u.fprod.(ti) *. g.dprod.{ti} in
            u.mask_sum.(g.t_mask.{ti}) <-
              u.mask_sum.(g.t_mask.{ti}) +. value' -. u.value.(ti);
            u.value.(ti) <- value'
          done;
          recompute_group_q t g u
        end
    | Statistic.Joint _ ->
        let gi = Hashtbl.find s.group_of_stat j in
        let g = t.groups.(gi) and u = s.upd.(gi) in
        (match Hashtbl.find_opt u.bys_row j with
        | None -> ()
        | Some row ->
            for p = u.bys_off.(row) to u.bys_off.(row + 1) - 1 do
              let ti = u.bys_term.(p) in
              g.dprod.{ti} <- dprod_of t u ti;
              let value' = u.fprod.(ti) *. g.dprod.{ti} in
              u.mask_sum.(g.t_mask.{ti}) <-
                u.mask_sum.(g.t_mask.{ti}) +. value' -. u.value.(ti);
              u.value.(ti) <- value'
            done);
        recompute_group_q t g u);
    t.p <- compute_p t s
  end

(* Scale normalization.  Every monomial contains exactly one marginal
   variable of every attribute (overcompleteness), so multiplying all of
   attribute i's marginals by c multiplies P by c and leaves every
   expectation, estimate, and the dual unchanged.  Normalizing each
   attribute sum to 1 therefore pins P to a bounded magnitude; without it,
   unrealizable targets (noisy or privatized statistics) make the
   coordinate iteration drift P towards 0 or infinity. *)
let normalize t =
  ignore (solver_of t "Poly.normalize");
  let changed = ref false in
  for i = 0 to t.m - 1 do
    let a = t.attr_sums.{i} in
    if a > 0. && a <> 1. then begin
      changed := true;
      for v = 0 to Schema.domain_size t.schema i - 1 do
        let j = t.marg_off.(i) + v in
        t.alpha.{j} <- t.alpha.{j} /. a
      done
    end
  done;
  if !changed then refresh t

(* Bulk variable assignment (used by the gradient solver's simultaneous
   updates and by deserialization): copy the whole vector, then rebuild all
   cached state in one pass. *)
let set_alphas t values =
  ignore (solver_of t "Poly.set_alphas");
  if Array.length values <> A1.dim t.alpha then
    invalid_arg "Poly.set_alphas: wrong vector length";
  Array.iteri (fun j v -> t.alpha.{j} <- v) values;
  refresh t

let alphas t =
  verify t;
  Array.init (A1.dim t.alpha) (fun j -> t.alpha.{j})

(* Reset variables to an initialization strategy: [`Marginals] seeds 1D
   variables at s_j/n (exact for a marginals-only model), [`Uniform] seeds
   everything at 1 (the uninformed start).  Joints start at 1 in both. *)
let reinit t strategy =
  let s = solver_of t "Poly.reinit" in
  let n = float_of_int t.n in
  Array.iter
    (fun st ->
      t.alpha.{Statistic.id st} <-
        (match (Statistic.kind st, strategy) with
        | Statistic.Marginal _, `Marginals ->
            if n > 0. then Statistic.target st /. n else 0.
        | _, _ -> 1.))
    (Phi.stats s.phi);
  refresh t

(* ------------------------------------------------------------------ *)
(* Derivatives and expectations                                        *)
(* ------------------------------------------------------------------ *)

(* prod over free attrs and groups, excluding one of each. *)
let outer_product t s ~skip_attr ~skip_group =
  let acc = ref 1. in
  Array.iter
    (fun i -> if i <> skip_attr then acc := !acc *. t.attr_sums.{i})
    t.free_attrs;
  Array.iteri
    (fun gi u -> if gi <> skip_group then acc := !acc *. u.q)
    s.upd;
  !acc

let[@inline] factors_product_excluding g ti ~slot =
  let acc = ref 1. in
  for s = g.fa_off.{ti} to g.fa_off.{ti + 1} - 1 do
    if s <> slot then acc := !acc *. g.factors.{s}
  done;
  !acc

(* dP/dalpha_j.  P is linear in every variable (each statistic predicate is
   0/1 on every tuple), so the derivative is the sum of the terms whose
   monomials contain the variable, with the variable's own factor
   removed. *)
let partial t j =
  let s = solver_of t "Poly.partial" in
  match Statistic.kind (Phi.stat s.phi j) with
  | Statistic.Marginal { attr; value } ->
      let gi = t.group_of_attr.(attr) in
      if gi < 0 then outer_product t s ~skip_attr:attr ~skip_group:(-1)
      else begin
        let g = t.groups.(gi) and u = s.upd.(gi) in
        let li = local_of g attr in
        let n_local = Array.length g.g_attrs in
        let dq = ref 0. in
        (* Masks not restricting [attr]: the variable enters through the
           full attribute sum A_attr of the outer product. *)
        for k = 0 to A1.dim g.mask_bits - 1 do
          let bits = g.mask_bits.{k} in
          if bits land (1 lsl li) = 0 then begin
            let outer = ref 1. in
            for li' = 0 to n_local - 1 do
              if li' <> li && bits land (1 lsl li') = 0 then
                outer := !outer *. t.attr_sums.{g.g_attrs.(li')}
            done;
            dq := !dq +. (u.mask_sum.(k) *. !outer)
          end
        done;
        (* Terms restricting [attr] with [value] inside their projection:
           the variable enters through the term's own factor. *)
        let off = u.byv_off.(li) in
        let terms = u.byv_term.(li) and slots = u.byv_slot.(li) in
        for p = off.(value) to off.(value + 1) - 1 do
          let ti = terms.(p) in
          dq :=
            !dq
            +. factors_product_excluding g ti ~slot:slots.(p)
               *. g.dprod.{ti} *. u.mask_outer.(g.t_mask.{ti})
        done;
        outer_product t s ~skip_attr:(-1) ~skip_group:gi *. !dq
      end
  | Statistic.Joint _ ->
      let gi = Hashtbl.find s.group_of_stat j in
      let g = t.groups.(gi) and u = s.upd.(gi) in
      let dq = ref 0. in
      (match Hashtbl.find_opt u.bys_row j with
      | None -> ()
      | Some row ->
          for p = u.bys_off.(row) to u.bys_off.(row + 1) - 1 do
            let ti = u.bys_term.(p) in
            let rest = ref 1. in
            for sl = u.ts_off.(ti) to u.ts_off.(ti + 1) - 1 do
              let j' = u.ts_stat.(sl) in
              if j' <> j then rest := !rest *. (t.alpha.{j'} -. 1.)
            done;
            dq :=
              !dq +. (u.fprod.(ti) *. !rest *. u.mask_outer.(g.t_mask.{ti}))
          done);
      outer_product t s ~skip_attr:(-1) ~skip_group:gi *. !dq

(* E[<c_j, I>] = n * alpha_j * dP/dalpha_j / P   (Eq. 8). *)
let expected t j =
  if t.p <= 0. then 0.
  else float_of_int t.n *. t.alpha.{j} *. partial t j /. t.p

(* ------------------------------------------------------------------ *)
(* Restricted evaluation: query answering by zeroing (Sec. 4.2)        *)
(* ------------------------------------------------------------------ *)

(* Worker count for restricted evaluation over large groups; configured
   globally (CLI/bench read EDB_DOMAINS).  Chunk workers only read the
   cached state, which [ensure_prefix] finalizes before any spawn. *)
let parallelism = ref (Parallel.default_domains ())
let parallel_threshold = ref 30_000

let set_parallelism ?threshold n =
  parallelism := max 1 n;
  match threshold with
  | Some th -> parallel_threshold := max 1 th
  | None -> ()

(* Floor of the cancellation clamp on restricted group values.  0 in
   production; the correctness harness raises it to plant a detectable
   estimator bug (entropydb check --mutate clamp).  The clamp applies to
   the *group value*, after mask combination — it never looks at the
   term layout, which is why the SoA rewrite leaves it untouched. *)
let cancellation_floor = ref 0.
let set_cancellation_floor f = cancellation_floor := f

(* The restricted kernels below read the variables through a prefix
   table [pre] laid out like [t.prefix]: [t.prefix] itself for COUNT and
   GROUP BY, a weighted copy for SUM ([weighted_pass]).  An attribute
   the query leaves free is read from its cached full sum and slot
   factors instead, which hold the live variables, so a pass over a
   weighted table must restrict every weighted attribute. *)

(* A_i restricted to the query's value set (the full sum when the query
   leaves attribute [i] free). *)
let[@inline] restricted_attr_sum t pre query i =
  match Predicate.restriction query i with
  | None -> t.attr_sums.{i}
  | Some r -> range_sum pre t.prefix_off.(i) r

(* Restricted masses of terms [lo, hi) accumulated into [msum] by mask:
   the inner loop of both restricted kernels.  A top-level function, not
   a closure, so the single-domain path allocates nothing. *)
let accumulate_masses t pre query g msum ~lo ~hi =
  let fa_off = g.fa_off
  and fa_attr = g.fa_attr
  and factors = g.factors
  and dprod = g.dprod
  and t_mask = g.t_mask
  and prefix_off = t.prefix_off in
  let f = ref 0. in
  for ti = lo to hi - 1 do
    f := A1.unsafe_get dprod ti;
    (try
       for s = A1.unsafe_get fa_off ti to A1.unsafe_get fa_off (ti + 1) - 1 do
         let i = A1.unsafe_get fa_attr s in
         let factor =
           match Predicate.restriction query i with
           | None -> A1.unsafe_get factors s
           | Some qr -> inter_sum pre (Array.unsafe_get prefix_off i) g s qr
         in
         if factor = 0. then raise Exit;
         f := !f *. factor
       done
     with Exit -> f := 0.);
    let mask = A1.unsafe_get t_mask ti in
    Array.unsafe_set msum mask (Array.unsafe_get msum mask +. !f)
  done

(* Q_g under the query's restrictions: the per-group part of restricted
   evaluation, shared by [restricted_p] and the batched GROUP BY kernel
   below.  Groups below the parallel threshold accumulate into the
   scratch block; large groups keep the chunked Parallel.fold (whose
   per-chunk arrays are the price of running on several domains).

   Q_g is then clamped at [floor].  When every monomial is non-negative
   (COUNT, GROUP BY, SUM with non-negative weights), the clamp removes
   the tiny negative values floating-point cancellation can produce:
   [floor] is [!cancellation_floor], 0 in production, which
   [set_cancellation_floor] raises for fault injection.  Signed weights
   pass [neg_infinity], which keeps the sign. *)
let restricted_group_q t pre ~floor query g sc =
  let n_local = Array.length g.g_attrs in
  for li = 0 to n_local - 1 do
    sc.ra.(li) <- restricted_attr_sum t pre query g.g_attrs.(li)
  done;
  let num_masks = A1.dim g.mask_bits in
  let msum =
    if g.n_terms >= !parallel_threshold && !parallelism > 1 then
      Parallel.fold ~domains:!parallelism ~n:g.n_terms
        ~chunk:(fun ~lo ~hi ->
          let local = Array.make num_masks 0. in
          accumulate_masses t pre query g local ~lo ~hi;
          local)
        ~combine:(fun a b ->
          Array.iteri (fun k v -> a.(k) <- a.(k) +. v) b;
          a)
        ~init:(Array.make num_masks 0.)
    else begin
      Array.fill sc.msum 0 num_masks 0.;
      accumulate_masses t pre query g sc.msum ~lo:0 ~hi:g.n_terms;
      sc.msum
    end
  in
  let q = ref 0. in
  for k = 0 to num_masks - 1 do
    if msum.(k) <> 0. then begin
      let bits = g.mask_bits.{k} in
      let outer = ref 1. in
      for li = 0 to n_local - 1 do
        if bits land (1 lsl li) = 0 then outer := !outer *. sc.ra.(li)
      done;
      q := !q +. (msum.(k) *. !outer)
    end
  done;
  Float.max floor !q

(* P with every 1D variable outside the query's per-attribute restrictions
   set to 0.  Nothing is rebuilt: restricted attribute sums and term
   factors are recomputed from the prefix table [pre]. *)
let restricted_p t pre ~floor query sc =
  let acc = ref 1. in
  for k = 0 to Array.length t.free_attrs - 1 do
    acc := !acc *. restricted_attr_sum t pre query t.free_attrs.(k)
  done;
  for gi = 0 to Array.length t.groups - 1 do
    acc := !acc *. restricted_group_q t pre ~floor query t.groups.(gi) sc
  done;
  !acc

(* The COUNT pass (Sec. 4.2's P[zeroed]), in the argument shape of
   [run] below. *)
let count_pass t query () () sc =
  ensure_prefix t;
  restricted_p t t.prefix ~floor:!cancellation_floor query sc

let[@inline] alpha_of t ~attr v = t.alpha.{t.marg_off.(attr) + v}

(* Term pass of the batched GROUP BY kernel over terms [lo, hi): masses
   of terms leaving [attr] unmasked accumulate into [msum] by mask;
   terms restricting [attr] scatter their remaining product, weighted by
   the mask's outer product [coef], into the cells of their projection ∩
   query.  Top-level for the same zero-allocation reason as
   [accumulate_masses]. *)
let accumulate_by_value t query g ~attr ~q_attr coef msum scatter ~lo ~hi =
  let fa_off = g.fa_off
  and fa_attr = g.fa_attr
  and factors = g.factors
  and dprod = g.dprod
  and t_mask = g.t_mask
  and iv_off = g.iv_off
  and iv_lo = g.iv_lo
  and iv_hi = g.iv_hi
  and prefix = t.prefix
  and prefix_off = t.prefix_off in
  let f = ref 0. in
  for ti = lo to hi - 1 do
    let s0 = A1.unsafe_get fa_off ti and s1 = A1.unsafe_get fa_off (ti + 1) in
    (* One pass over the slots: multiply the non-[attr] factors in slot
       order (the order the boxed layout used) while remembering [attr]'s
       slot.  Slots are one-per-attribute, so skipping [attr] inline is
       the same exclusion as a separate scan. *)
    let attr_slot = ref (-1) in
    f := A1.unsafe_get dprod ti;
    (try
       for s = s0 to s1 - 1 do
         let i = A1.unsafe_get fa_attr s in
         if i = attr then attr_slot := s
         else begin
           let factor =
             match Predicate.restriction query i with
             | None -> A1.unsafe_get factors s
             | Some qr -> inter_sum prefix (Array.unsafe_get prefix_off i) g s qr
           in
           if factor = 0. then raise Exit;
           f := !f *. factor
         end
       done
     with Exit -> f := 0.);
    let attr_slot = !attr_slot in
    let fv = !f in
    if fv <> 0. then
      let mask = A1.unsafe_get t_mask ti in
      if attr_slot < 0 then
        Array.unsafe_set msum mask (Array.unsafe_get msum mask +. fv)
      else begin
        let w = fv *. Array.unsafe_get coef mask in
        match q_attr with
        | None ->
            for k = A1.unsafe_get iv_off attr_slot
                 to A1.unsafe_get iv_off (attr_slot + 1) - 1
            do
              for v = A1.unsafe_get iv_lo k to A1.unsafe_get iv_hi k do
                Array.unsafe_set scatter v (Array.unsafe_get scatter v +. w)
              done
            done
        | Some qr ->
            (* Merge walk over (slot ∩ query), as in [inter_sum]. *)
            let k = ref (A1.unsafe_get iv_off attr_slot) and j = ref 0 in
            let k1 = A1.unsafe_get iv_off (attr_slot + 1) in
            let nq = Ranges.num_intervals qr in
            while !k < k1 && !j < nq do
              let alo = A1.unsafe_get iv_lo !k
              and ahi = A1.unsafe_get iv_hi !k in
              let blo = Ranges.interval_lo qr !j
              and bhi = Ranges.interval_hi qr !j in
              let lo = if alo > blo then alo else blo in
              let hi = if ahi < bhi then ahi else bhi in
              if lo <= hi then
                for v = lo to hi do
                  Array.unsafe_set scatter v (Array.unsafe_get scatter v +. w)
                done;
              if ahi < bhi then incr k else incr j
            done
      end
  done

(* Batched GROUP BY kernel: restricted P for *all* cells of a grouping
   attribute in one pass over the terms.

   Every monomial contains exactly one marginal variable of [attr], so
   the cell for value v is P[query restricted, attr restricted to {v}]
   and the attribute's own contribution to each monomial is the single
   factor alpha_{attr,v}:

   - [attr] free (not in any group): every cell shares the same product
     of the other restricted factors; the cell value is that product
     times alpha_{attr,v}.
   - [attr] in group g: a term of g either leaves [attr] unmasked — its
     restricted mass enters every cell through alpha_{attr,v} times the
     mask's outer product over the *other* group attributes — or
     restricts [attr] at some slot, in which case its remaining product
     scatters into exactly the cells of projection ∩ query.

   Total cost O(terms + Σ|projection ∩ query| + #masks·|g_attrs| +
   N_attr) instead of the per-cell scan's O(N_attr × terms).  Cells
   outside the query's restriction on [attr] are 0.  Each cell's Q_g
   gets the same cancellation clamp as [eval_restricted], so cell values
   match the per-cell path up to float reassociation. *)
let by_value_pass t query attr out sc =
  ensure_prefix t;
  let floor = !cancellation_floor in
  let size = Schema.domain_size t.schema attr in
  Array.fill out 0 size 0.;
  let q_attr = Predicate.restriction query attr in
  let gi = t.group_of_attr.(attr) in
  (* Factors not involving [attr], shared by every cell. *)
  let base = ref 1. in
  for k = 0 to Array.length t.free_attrs - 1 do
    let i = t.free_attrs.(k) in
    if i <> attr then base := !base *. restricted_attr_sum t t.prefix query i
  done;
  for gj = 0 to Array.length t.groups - 1 do
    if gj <> gi then
      base :=
        !base *. restricted_group_q t t.prefix ~floor query t.groups.(gj) sc
  done;
  let base = !base in
  if gi < 0 then begin
    match q_attr with
    | None ->
        for v = 0 to size - 1 do
          out.(v) <- base *. alpha_of t ~attr v
        done
    | Some r ->
        for k = 0 to Ranges.num_intervals r - 1 do
          for v = Ranges.interval_lo r k to Ranges.interval_hi r k do
            out.(v) <- base *. alpha_of t ~attr v
          done
        done
  end
  else begin
    let g = t.groups.(gi) in
    let li = local_of g attr in
    let n_local = Array.length g.g_attrs in
    let num_masks = A1.dim g.mask_bits in
    (* Per-mask outer products over the group's other attributes;
       [attr]'s own factor is applied per cell. *)
    let coef = sc.coef in
    for k = 0 to num_masks - 1 do
      let bits = g.mask_bits.{k} in
      let outer = ref 1. in
      for li' = 0 to n_local - 1 do
        if li' <> li && bits land (1 lsl li') = 0 then
          outer :=
            !outer *. restricted_attr_sum t t.prefix query g.g_attrs.(li')
      done;
      coef.(k) <- !outer
    done;
    let msum, scatter =
      if g.n_terms >= !parallel_threshold && !parallelism > 1 then
        Parallel.fold ~domains:!parallelism ~n:g.n_terms
          ~chunk:(fun ~lo ~hi ->
            let msum = Array.make num_masks 0. in
            let scatter = Array.make size 0. in
            accumulate_by_value t query g ~attr ~q_attr coef msum scatter ~lo
              ~hi;
            (msum, scatter))
          ~combine:(fun (ma, sa) (mb, sb) ->
            Array.iteri (fun k v -> ma.(k) <- ma.(k) +. v) mb;
            Array.iteri (fun v x -> sa.(v) <- sa.(v) +. x) sb;
            (ma, sa))
          ~init:(Array.make num_masks 0., Array.make size 0.)
      else begin
        Array.fill sc.msum 0 num_masks 0.;
        Array.fill sc.scatter 0 size 0.;
        accumulate_by_value t query g ~attr ~q_attr coef sc.msum sc.scatter
          ~lo:0 ~hi:g.n_terms;
        (sc.msum, sc.scatter)
      end
    in
    (* Masses of the terms leaving [attr] unmasked, with their outer
       products; these enter every cell through alpha_{attr,v}. *)
    let scalar = ref 0. in
    for k = 0 to num_masks - 1 do
      if g.mask_bits.{k} land (1 lsl li) = 0 && msum.(k) <> 0. then
        scalar := !scalar +. (msum.(k) *. coef.(k))
    done;
    let scalar = !scalar in
    match q_attr with
    | None ->
        for v = 0 to size - 1 do
          out.(v) <-
            base
            *. Float.max floor (alpha_of t ~attr v *. (scalar +. scatter.(v)))
        done
    | Some r ->
        for k = 0 to Ranges.num_intervals r - 1 do
          for v = Ranges.interval_lo r k to Ranges.interval_hi r k do
            out.(v) <-
              base
              *. Float.max floor (alpha_of t ~attr v *. (scalar +. scatter.(v)))
          done
        done
  end

(* Weighted evaluation: sum over tuples satisfying [query] of
   prod_i w_i(t_i) * monomial(t), for product-form per-tuple weights.
   Because P is linear in every marginal variable, substituting
   alpha_{i,v} -> alpha_{i,v} * w_i(v) computes exactly this sum; that is
   what lets the same factorized representation answer SUM and AVG
   queries (a strictly larger class of the paper's linear queries than
   counting).

   The pass is the COUNT kernel over a per-call copy of the prefix table
   whose weighted attributes hold running sums of alpha * w, each
   restricted to its whole domain when the query leaves it free (see
   [restricted_attr_sum]): [range_sum] over [0, N-1] is the full sum,
   and [inter_sum] over it walks the same intervals as [slot_sum], so
   the factors are bitwise those a refresh from the weighted variables
   would cache.  When every weighted variable is >= 0 every monomial is
   non-negative and the group clamp applies as in COUNT, so
   floating-point cancellation cannot flip a SUM estimate's sign;
   genuinely signed weights keep their sign. *)
let weighted_pass t query weights () sc =
  ensure_prefix t;
  let pre = A1.create Bigarray.float64 Bigarray.c_layout (A1.dim t.prefix) in
  A1.blit t.prefix pre;
  let nonneg = ref true and query = ref query in
  List.iter
    (fun (attr, w) ->
      let base = t.prefix_off.(attr)
      and size = Schema.domain_size t.schema attr in
      pre.{base} <- 0.;
      for v = 0 to size - 1 do
        let wa = alpha_of t ~attr v *. w v in
        if wa < 0. then nonneg := false;
        pre.{base + v + 1} <- pre.{base + v} +. wa
      done;
      if Predicate.restriction !query attr = None then
        query := Predicate.restrict !query attr (Ranges.interval 0 (size - 1)))
    weights;
  let floor = if !nonneg then !cancellation_floor else Float.neg_infinity in
  restricted_p t pre ~floor !query sc

(* ------------------------------------------------------------------ *)
(* Public kernel entry points                                          *)
(* ------------------------------------------------------------------ *)

let observe_eval_ns t0 =
  Edb_obs.Registry.Hist.observe_us eval_ns_hist ((Timing.now_s () -. t0) *. 1e9)

(* The one kernel entry: the verify latch (no answer, not even a trivial
   one, precedes verification of lent tables), one [poly.evals] tick,
   the scratch claim and release, and under tracing a [span] and the
   [kernel_eval_ns] histogram.  [pass] is a closed top-level function of
   the query and two pass-specific arguments, so the untraced path
   allocates no closure. *)
let run t ~span pass query a b =
  verify t;
  Edb_obs.Registry.Counter.incr evals_counter;
  if Obs.enabled () then begin
    let t0 = Timing.now_s () in
    let r =
      Obs.with_span span ~cat:"answer" (fun () ->
          let sc = acquire_scratch t in
          Fun.protect
            ~finally:(fun () -> release_scratch t sc)
            (fun () -> pass t query a b sc))
    in
    observe_eval_ns t0;
    r
  end
  else begin
    let sc = acquire_scratch t in
    match pass t query a b sc with
    | r ->
        release_scratch t sc;
        r
    | exception e ->
        release_scratch t sc;
        raise e
  end

let eval_restricted t query =
  run t ~span:"poly.eval_restricted" count_pass query () ()

let eval_restricted_by_value_into t query ~attr ~out =
  if Array.length out < Schema.domain_size t.schema attr then
    invalid_arg "Poly.eval_restricted_by_value_into: out buffer too small";
  run t ~span:"poly.eval_restricted_by_value" by_value_pass query attr out

let eval_restricted_by_value t query ~attr =
  let out = Array.make (Schema.domain_size t.schema attr) 0. in
  eval_restricted_by_value_into t query ~attr ~out;
  out

let eval_weighted t query ~weights =
  run t ~span:"poly.eval_weighted" weighted_pass query weights ()

(* The dual objective Psi = sum_j s_j ln alpha_j - n ln P  (Eq. 11).
   Statistics with s_j = 0 contribute lim_{a->0} 0*ln a = 0. *)
let dual t =
  verify t;
  let acc = ref 0. in
  Array.iter
    (fun s ->
      let sj = Statistic.target s in
      if sj > 0. then begin
        let a = t.alpha.{Statistic.id s} in
        if a > 0. then acc := !acc +. (sj *. log a)
        else acc := Float.neg_infinity
      end)
    (Phi.stats (phi t));
  if t.p > 0. then !acc -. (float_of_int t.n *. log t.p)
  else Float.neg_infinity
