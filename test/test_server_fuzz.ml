(* Protocol-fuzz and chaos battery for the pipelined (v2) server.

   Three layers of hostility:
   - qcheck properties over the tagged framing (pure, no sockets):
     round-trips, v1 passthrough, and malformed-tag negatives;
   - adversarial bytes on a live socket: torn frames, interleaved
     v1/v2 requests, bad tags, oversized lines, and random garbage —
     malformed input must yield ERR (or a clean close), never a hang,
     a crash, or a corrupted subsequent exchange;
   - a chaos run: concurrent clients mixing pipelined traffic with
     mid-request disconnects, slow-loris writers, unread responses, and
     garbage, with every completed answer checked bitwise against the
     in-process evaluation, and zero leaked catalog pins at the end —
     plus deadline expiry during a coalesced batch. *)

open Edb_util
open Edb_storage
open Entropydb_core
open Edb_server

(* ------------------------------------------------------------------ *)
(* A tiny summary on disk (mirrors test_server.ml)                     *)
(* ------------------------------------------------------------------ *)

let make_schema sizes =
  Schema.create
    (List.mapi
       (fun i n ->
         Schema.attr
           (Printf.sprintf "a%d" i)
           (Domain.int_bins ~lo:0 ~hi:(n - 1) ~width:1))
       sizes)

let small_relation ~seed sizes rows =
  let schema = make_schema sizes in
  let rng = Prng.create ~seed () in
  let b = Relation.builder ~capacity:rows schema in
  for _ = 1 to rows do
    Relation.add_row b
      (Array.init (List.length sizes) (fun i ->
           Prng.int rng (Schema.domain_size schema i)))
  done;
  Relation.build b

let small_summary ~seed () =
  let rel = small_relation ~seed [ 6; 5; 4 ] 400 in
  let joints =
    [
      Predicate.of_alist ~arity:3
        [ (0, Ranges.interval 0 2); (1, Ranges.interval 1 3) ];
    ]
  in
  Summary.build
    ~solver_config:{ Solver.default_config with log_every = 0 }
    rel ~joints

let temp_dir () =
  let path = Filename.temp_file "edb-test-fuzz" "" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  path

let saved_summary dir name summary =
  let path = Filename.concat dir (name ^ ".summary") in
  Serialize.save summary path;
  path

let with_server ?(max_conns = 16) ?(request_deadline = 10.)
    ?(domains = 0) ?(max_inflight = 64)
    ?(max_line_bytes = Server.default_config.max_line_bytes) ?catalog dir f =
  let socket = Filename.concat dir "edb.sock" in
  let server =
    Server.create ?catalog
      {
        Server.default_config with
        unix_socket = Some socket;
        max_conns;
        domains;
        max_inflight;
        max_line_bytes;
        request_deadline;
        idle_timeout = 10.;
      }
  in
  Server.start server;
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Server.wait server)
    (fun () -> f server socket)

(* ------------------------------------------------------------------ *)
(* Raw-socket helpers (bypassing Client, for hostile byte sequences)   *)
(* ------------------------------------------------------------------ *)

type raw = { fd : Unix.file_descr; ic : in_channel }

let raw_connect ?(timeout = 10.) socket =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout
   with Unix.Unix_error _ -> ());
  { fd; ic = Unix.in_channel_of_descr fd }

let raw_close r = try Unix.close r.fd with Unix.Unix_error _ | Sys_error _ -> ()

(* Best-effort write: the server may legitimately have closed on us. *)
let raw_send r s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  try
    while !off < n do
      off := !off + Unix.write r.fd b !off (n - !off)
    done;
    true
  with Unix.Unix_error _ | Sys_error _ -> false

type raw_line = Line of string | Eof | Timeout

let raw_line r =
  match input_line r.ic with
  | line -> Line line
  | exception End_of_file -> Eof
  | exception Sys_blocked_io -> Timeout
  | exception Sys_error _ -> Eof
  | exception Unix.Unix_error _ -> Eof

let expect_line what want r =
  match raw_line r with
  | Line l -> Alcotest.(check string) what want l
  | Eof -> Alcotest.failf "%s: unexpected EOF" what
  | Timeout -> Alcotest.failf "%s: timed out" what

(* Read one complete response (tagged or not); payload lines dropped. *)
let skim_response r =
  match raw_line r with
  | (Eof | Timeout) as x -> x
  | Line header -> (
      match Protocol.parse_tagged_header header with
      | Error _ -> Line header (* malformed is the caller's business *)
      | Ok (_, Protocol.Error_line _) -> Line header
      | Ok (_, Protocol.Payload k) ->
          let rec burn i =
            if i = 0 then Line header
            else
              match raw_line r with
              | Line _ -> burn (i - 1)
              | (Eof | Timeout) as x -> x
          in
          burn k)

(* ------------------------------------------------------------------ *)
(* qcheck: tagged framing                                              *)
(* ------------------------------------------------------------------ *)

let tag_gen =
  QCheck.Gen.(
    let tag_char =
      oneof
        [
          char_range 'a' 'z'; char_range 'A' 'Z'; char_range '0' '9';
          oneofl [ '_'; '-'; '.' ];
        ]
    in
    string_size ~gen:tag_char (int_range 1 32))

let word_gen =
  QCheck.Gen.(
    let word_char =
      oneof [ char_range 'a' 'z'; char_range '0' '9'; oneofl [ '-'; '_' ] ]
    in
    string_size ~gen:word_char (int_range 1 10))

let request_gen =
  QCheck.Gen.(
    oneof
      [
        return Protocol.Ping;
        return Protocol.List;
        return Protocol.Stats;
        map (fun v -> Protocol.Hello v) word_gen;
        map2
          (fun name sql -> Protocol.Query { name; sql })
          word_gen
          (map (fun w -> "SELECT COUNT(*) FROM f WHERE a0 = 1 -- " ^ w) word_gen);
      ])

let response_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun lines -> Protocol.Ok lines) (list_size (int_range 0 4) word_gen);
        map2
          (fun code message -> Protocol.Err { code; message })
          word_gen word_gen;
      ])

let prop name arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count:500 ~name arb f)

let tagged_request_roundtrip =
  prop "tagged request round-trip"
    (QCheck.make
       ~print:(fun (id, r) -> Protocol.print_tagged_request id r)
       QCheck.Gen.(pair tag_gen request_gen))
    (fun (id, r) ->
      Protocol.valid_tag id
      && Protocol.split_tag (Protocol.print_tagged_request id r)
         = Ok (Some id, Protocol.print_request r))

let tagged_response_roundtrip =
  prop "tagged response-header round-trip"
    (QCheck.make
       ~print:(fun (id, r) ->
         String.concat "\\n" (Protocol.print_tagged_response (Some id) r))
       QCheck.Gen.(pair tag_gen response_gen))
    (fun (id, r) ->
      match Protocol.print_tagged_response (Some id) r with
      | [] -> false
      | header :: payload -> (
          (* Payload lines stay untagged; only the header carries the id. *)
          List.length payload = List.length (List.tl (("x" :: payload)))
          &&
          match (Protocol.parse_tagged_header header, r) with
          | Ok (Some id', Protocol.Payload k), Protocol.Ok lines ->
              id' = id && k = List.length lines
          | Ok (Some id', Protocol.Error_line { code; message }), Protocol.Err e
            ->
              id' = id && code = e.code && message = e.message
          | _ -> false))

let untagged_passthrough =
  prop "untagged lines pass through (v1)"
    (QCheck.make ~print:Protocol.print_request
       (QCheck.Gen.map
          (fun r -> r)
          request_gen))
    (fun r ->
      let line = Protocol.print_request r in
      Protocol.split_tag line = Ok (None, line)
      &&
      match Protocol.print_response (Protocol.Ok [ "x" ]) with
      | header :: _ ->
          Protocol.parse_tagged_header header = Ok (None, Protocol.Payload 1)
      | [] -> false)

let test_tag_negatives () =
  let bad s =
    match Protocol.split_tag s with
    | Error _ -> ()
    | Ok (tag, rest) ->
        Alcotest.failf "split %S as (%s, %S)" s
          (Option.value tag ~default:"<none>")
          rest
  in
  bad "@";
  bad "@ PING";
  bad "@!x PING";
  bad "@x! PING";
  bad "@@x PING";
  bad ("@" ^ String.make 33 'a' ^ " PING");
  bad "@id";
  bad "@id   ";
  (* Tab is a separator, like space. *)
  (match Protocol.split_tag "@id\tPING" with
  | Ok (Some "id", "PING") -> ()
  | _ -> Alcotest.fail "tab-separated tag should split");
  (* Boundary: a 32-char tag is the longest legal one. *)
  (match Protocol.split_tag ("@" ^ String.make 32 'a' ^ " PING") with
  | Ok (Some t, "PING") -> Alcotest.(check int) "32-char tag" 32 (String.length t)
  | _ -> Alcotest.fail "32-char tag rejected");
  Alcotest.check_raises "print_tagged_request rejects bad id"
    (Invalid_argument "Protocol.print_tagged_request: bad id") (fun () ->
      ignore (Protocol.print_tagged_request "no spaces" Protocol.Ping));
  match Protocol.parse_tagged_header "@!! OK 1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed response tag accepted"

(* ------------------------------------------------------------------ *)
(* Adversarial bytes on a live socket                                  *)
(* ------------------------------------------------------------------ *)

let sql_probe = "SELECT COUNT(*) FROM f WHERE a0 IN [0,2]"

let setup_catalog dir =
  let summary = small_summary ~seed:211 () in
  let path = saved_summary dir "s" summary in
  let catalog = Catalog.create () in
  (match Catalog.load catalog ~name:"s" ~path with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  let arity = Schema.arity (Summary.schema summary) in
  let expected =
    Summary.estimate summary
      (Predicate.of_alist ~arity [ (0, Ranges.interval 0 2) ])
  in
  (catalog, expected)

let read_estimate r =
  match raw_line r with
  | Line header -> (
      match Protocol.parse_tagged_header header with
      | Ok (_, Protocol.Payload k) ->
          let payload = List.init k (fun _ -> raw_line r) in
          List.find_map
            (function
              | Line l -> (
                  match String.split_on_char ' ' l with
                  | [ "estimate"; v ] -> float_of_string_opt v
                  | _ -> None)
              | Eof | Timeout -> None)
            payload
      | _ -> None)
  | Eof | Timeout -> None

let check_estimate what expected r =
  match read_estimate r with
  | Some v ->
      Alcotest.(check bool) what true
        (Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float expected))
  | None -> Alcotest.failf "%s: no estimate" what

let test_torn_frames () =
  let dir = temp_dir () in
  let catalog, expected = setup_catalog dir in
  with_server ~catalog dir (fun _ socket ->
      let r = raw_connect socket in
      (* An untagged request torn into four writes. *)
      List.iter
        (fun piece ->
          Alcotest.(check bool) "send" true (raw_send r piece);
          Thread.delay 0.01)
        [ "QUE"; "RY s "; sql_probe; "\n" ];
      check_estimate "torn v1 frame answers exactly" expected r;
      (* A tagged frame torn mid-tag and mid-SQL. *)
      List.iter
        (fun piece ->
          Alcotest.(check bool) "send" true (raw_send r piece);
          Thread.delay 0.01)
        [ "@a"; "b7 QUERY s "; String.sub sql_probe 0 10;
          String.sub sql_probe 10 (String.length sql_probe - 10); "\n" ];
      (match raw_line r with
      | Line header -> (
          match Protocol.parse_tagged_header header with
          | Ok (Some "ab7", Protocol.Payload k) ->
              for _ = 1 to k do ignore (raw_line r) done
          | _ -> Alcotest.failf "bad tagged header %S" header)
      | Eof | Timeout -> Alcotest.fail "torn tagged frame: no response");
      raw_close r)

let test_interleaved_versions () =
  let dir = temp_dir () in
  let catalog, _ = setup_catalog dir in
  with_server ~catalog dir (fun _ socket ->
      let r = raw_connect socket in
      (* v2, v1, v2 on one connection, one write: responses come back in
         order, tags echoed exactly where they were sent. *)
      Alcotest.(check bool) "send" true
        (raw_send r "@a PING\nPING\n@b HELLO EDB/2\n");
      expect_line "tagged ping header" "@a OK 1" r;
      expect_line "tagged ping payload" "pong" r;
      expect_line "untagged ping header" "OK 1" r;
      expect_line "untagged ping payload" "pong" r;
      expect_line "tagged hello header" "@b OK 1" r;
      expect_line "tagged hello payload" "EDB/2 entropydb-server" r;
      (* v1 HELLO still accepted on the same connection (downgrade). *)
      Alcotest.(check bool) "send" true (raw_send r "HELLO EDB/1\n");
      expect_line "v1 hello header" "OK 1" r;
      expect_line "v1 hello payload" "EDB/1 entropydb-server" r;
      raw_close r)

let test_bad_tags_on_wire () =
  let dir = temp_dir () in
  let catalog, expected = setup_catalog dir in
  with_server ~catalog dir (fun _ socket ->
      let r = raw_connect socket in
      List.iter
        (fun line ->
          Alcotest.(check bool) "send" true (raw_send r (line ^ "\n"));
          match raw_line r with
          | Line l ->
              Alcotest.(check bool)
                (Printf.sprintf "%S answers untagged ERR, got %S" line l)
                true
                (String.length l >= 9 && String.sub l 0 9 = "ERR proto")
          | Eof -> Alcotest.failf "%S: connection dropped" line
          | Timeout -> Alcotest.failf "%S: no response (hang)" line)
        [
          "@";
          "@ PING";
          "@!bad PING";
          "@" ^ String.make 33 'x' ^ " PING";
          "@noreq";
        ];
      (* The connection survives every malformed frame. *)
      Alcotest.(check bool) "send" true
        (raw_send r (Printf.sprintf "@ok QUERY s %s\n" sql_probe));
      check_estimate "still serves exactly after bad tags" expected r;
      raw_close r)

let test_oversized_line () =
  let dir = temp_dir () in
  let catalog, _ = setup_catalog dir in
  with_server ~catalog ~max_line_bytes:1024 dir (fun _ socket ->
      let r = raw_connect socket in
      (* 4 KiB with no newline: the server must answer ERR proto and
         close, not buffer forever or die. *)
      ignore (raw_send r (String.make 4096 'x'));
      (match raw_line r with
      | Line l ->
          Alcotest.(check bool) ("oversized gets ERR proto: " ^ l) true
            (String.length l >= 9 && String.sub l 0 9 = "ERR proto")
      | Eof -> Alcotest.fail "oversized line: closed without ERR"
      | Timeout -> Alcotest.fail "oversized line: no response (hang)");
      (match raw_line r with
      | Eof -> ()
      | Line l -> Alcotest.failf "expected close after oversized, got %S" l
      | Timeout -> Alcotest.fail "expected close after oversized, got hang");
      raw_close r;
      (* And the server is still healthy. *)
      let r2 = raw_connect socket in
      Alcotest.(check bool) "send" true (raw_send r2 "PING\n");
      expect_line "healthy after oversized" "OK 1" r2;
      expect_line "pong" "pong" r2;
      raw_close r2)

let test_garbage_fuzz () =
  let dir = temp_dir () in
  let catalog, expected = setup_catalog dir in
  with_server ~catalog dir (fun _ socket ->
      let rng = Prng.create ~seed:4242 () in
      let garbage_byte () =
        match Prng.int rng 6 with
        | 0 -> '\n'
        | 1 -> '@'
        | 2 -> ' '
        | 3 -> Char.chr (Prng.int rng 256)
        | 4 -> Char.chr (32 + Prng.int rng 95)
        | _ -> [ 'Q'; 'U'; 'E'; 'R'; 'Y'; 'P'; 'I'; 'N'; 'G' ]
               |> fun l -> List.nth l (Prng.int rng (List.length l))
      in
      for _round = 1 to 40 do
        (* Short receive timeout: blank-line garbage legitimately gets
           no response at all, and waiting proves nothing. *)
        let r = raw_connect ~timeout:0.2 socket in
        let len = 1 + Prng.int rng 200 in
        let s = String.init len (fun _ -> garbage_byte ()) in
        ignore (raw_send r (s ^ "\n"));
        (* Drain whatever comes back — ERR lines, OK payloads, a close,
           or nothing; the only forbidden outcomes are a hang or a
           crash. *)
        let rec burn budget =
          if budget > 0 then
            match skim_response r with
            | Line _ -> burn (budget - 1)
            | Eof | Timeout -> ()
        in
        burn 8;
        raw_close r
      done;
      (* After the storm: exact service on a fresh connection. *)
      let r = raw_connect socket in
      Alcotest.(check bool) "send" true
        (raw_send r (Printf.sprintf "QUERY s %s\n" sql_probe));
      check_estimate "exact after garbage storm" expected r;
      raw_close r;
      let st = Catalog.stats catalog in
      Alcotest.(check int) "no leaked pins" 0 st.Catalog.pinned)

(* ------------------------------------------------------------------ *)
(* Chaos: concurrent hostile clients                                   *)
(* ------------------------------------------------------------------ *)

let test_chaos () =
  let dir = temp_dir () in
  let summary = small_summary ~seed:231 () in
  let path = saved_summary dir "s" summary in
  let catalog = Catalog.create () in
  (match Catalog.load catalog ~name:"s" ~path with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  let arity = Schema.arity (Summary.schema summary) in
  let pool =
    Array.init 8 (fun k ->
        let lo = k mod 3 and hi = 2 + (k mod 3) in
        let sql =
          Printf.sprintf "SELECT COUNT(*) FROM f WHERE a0 IN [%d,%d]" lo hi
        in
        let q = Predicate.of_alist ~arity [ (0, Ranges.interval lo hi) ] in
        (sql, Summary.estimate summary q))
  in
  with_server ~max_conns:16 ~catalog dir (fun server socket ->
      let wrong = Atomic.make 0 and hung = Atomic.make 0 in
      let chaos_thread tid =
        let rng = Prng.create ~seed:(1000 + tid) () in
        for _round = 1 to 8 do
          match Prng.int rng 6 with
          | 0 -> (
              (* Pipelined window, fully verified. *)
              match Client.connect ~timeout:10. (Client.Unix_socket socket) with
              | Error _ -> () (* busy under churn is legitimate *)
              | Ok c ->
                  let reqs =
                    List.init 8 (fun i ->
                        let sql, _ = pool.((tid + i) mod Array.length pool) in
                        Protocol.Query { name = "s"; sql })
                  in
                  (match Client.pipelined c reqs with
                  | Error _ -> Atomic.incr hung
                  | Ok responses ->
                      List.iteri
                        (fun i resp ->
                          let _, expected =
                            pool.((tid + i) mod Array.length pool)
                          in
                          match resp with
                          | Protocol.Err { code; _ }
                            when code = Protocol.err_busy ->
                              ()
                          | Protocol.Err _ -> Atomic.incr wrong
                          | Protocol.Ok payload -> (
                              match Client.estimate_of_payload payload with
                              | Some v
                                when Int64.equal (Int64.bits_of_float v)
                                       (Int64.bits_of_float expected) ->
                                  ()
                              | _ -> Atomic.incr wrong))
                        responses);
                  ignore (Client.quit c))
          | 1 -> (
              (* Mid-request disconnect: a torn frame, then vanish. *)
              match raw_connect socket with
              | r ->
                  ignore (raw_send r "@t1 QUERY s SELECT COU");
                  raw_close r
              | exception Unix.Unix_error _ -> ())
          | 2 -> (
              (* Slow loris: one byte at a time, then expect the exact
                 answer anyway. *)
              match raw_connect socket with
              | r ->
                  let sql, expected = pool.(tid mod Array.length pool) in
                  let line = Printf.sprintf "@slow QUERY s %s\n" sql in
                  let ok =
                    String.for_all
                      (fun ch ->
                        Thread.yield ();
                        raw_send r (String.make 1 ch))
                      line
                  in
                  (if ok then
                     match read_estimate r with
                     | Some v
                       when Int64.equal (Int64.bits_of_float v)
                              (Int64.bits_of_float expected) ->
                         ()
                     | Some _ -> Atomic.incr wrong
                     | None -> () (* rejected/closed under churn: fine *));
                  raw_close r
              | exception Unix.Unix_error _ -> ())
          | 3 -> (
              (* Garbage, then a real query on the same connection. *)
              match raw_connect socket with
              | r ->
                  let sql, expected = pool.(tid mod Array.length pool) in
                  ignore (raw_send r "%%% not a request\n");
                  (match skim_response r with
                  | Line _ -> (
                      ignore (raw_send r (Printf.sprintf "QUERY s %s\n" sql));
                      match read_estimate r with
                      | Some v
                        when Int64.equal (Int64.bits_of_float v)
                               (Int64.bits_of_float expected) ->
                          ()
                      | Some _ -> Atomic.incr wrong
                      | None -> ())
                  | Eof | Timeout -> ());
                  raw_close r
              | exception Unix.Unix_error _ -> ())
          | 4 -> (
              (* Pipeline and leave without reading: the server's writes
                 hit a closed peer; it must just reap the connection. *)
              match raw_connect socket with
              | r ->
                  let sql, _ = pool.(tid mod Array.length pool) in
                  ignore
                    (raw_send r
                       (String.concat ""
                          (List.init 8 (fun i ->
                               Printf.sprintf "@x%d QUERY s %s\n" i sql))));
                  raw_close r
              | exception Unix.Unix_error _ -> ())
          | _ -> (
              (* Plain lockstep client, verified. *)
              match Client.connect ~timeout:10. (Client.Unix_socket socket) with
              | Error _ -> ()
              | Ok c ->
                  let sql, expected = pool.(tid mod Array.length pool) in
                  (match Client.query c ~name:"s" ~sql with
                  | Error m
                    when String.length m >= 4 && String.sub m 0 4 = "busy" ->
                      ()
                  | Error _ -> Atomic.incr hung
                  | Ok payload -> (
                      match Client.estimate_of_payload payload with
                      | Some v
                        when Int64.equal (Int64.bits_of_float v)
                               (Int64.bits_of_float expected) ->
                          ()
                      | _ -> Atomic.incr wrong));
                  ignore (Client.quit c))
        done
      in
      let threads = List.init 6 (fun i -> Thread.create chaos_thread i) in
      List.iter Thread.join threads;
      Alcotest.(check int) "0 wrong answers under chaos" 0 (Atomic.get wrong);
      Alcotest.(check int) "0 hung/failed verified exchanges" 0
        (Atomic.get hung);
      (* No connection leaked a catalog pin. *)
      let st = Catalog.stats catalog in
      Alcotest.(check int) "0 leaked pins" 0 st.Catalog.pinned;
      (* And the server still answers, exactly. *)
      let r = raw_connect socket in
      let sql, expected = pool.(0) in
      Alcotest.(check bool) "send" true
        (raw_send r (Printf.sprintf "QUERY s %s\n" sql));
      (match read_estimate r with
      | Some v ->
          Alcotest.(check bool) "exact after chaos" true
            (Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float expected))
      | None -> Alcotest.fail "no answer after chaos");
      raw_close r;
      ignore server);
  (* with_server's finally ran stop+wait: drain must have been clean
     (wait returned) and the socket unlinked. *)
  Alcotest.(check bool) "socket unlinked after drain" true
    (not (Sys.file_exists (Filename.concat dir "edb.sock")))

(* Deadline expiry during a coalesced batch: all waiters of the shared
   evaluation must see the same ERR timeout — no waiter hangs, none gets
   a half-answer. *)
let test_deadline_in_batch () =
  let dir = temp_dir () in
  let summary = small_summary ~seed:241 () in
  let path = saved_summary dir "s" summary in
  let catalog = Catalog.create () in
  (match Catalog.load catalog ~name:"s" ~path with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  with_server ~request_deadline:1e-9 ~domains:1 ~catalog dir
    (fun server socket ->
      match Client.connect ~timeout:10. (Client.Unix_socket socket) with
      | Error m -> Alcotest.fail m
      | Ok c ->
          let reqs =
            List.init 8 (fun _ ->
                Protocol.Query
                  { name = "s"; sql = "SELECT COUNT(*) FROM f WHERE a0 = 1" })
          in
          (match Client.pipelined c reqs with
          | Error m -> Alcotest.fail m
          | Ok responses ->
              Alcotest.(check int) "all eight answered" 8
                (List.length responses);
              List.iter
                (fun resp ->
                  match resp with
                  | Protocol.Err { code; _ } ->
                      Alcotest.(check string) "timeout code"
                        Protocol.err_timeout code
                  | Protocol.Ok _ -> Alcotest.fail "expected ERR timeout")
                responses);
          ignore (Client.quit c);
          let timeouts =
            (Metrics.snapshot (Server.metrics server)).Metrics.timeouts
          in
          Alcotest.(check bool) "timeout counted" true (timeouts >= 1))

(* ------------------------------------------------------------------ *)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Alcotest.run "server-fuzz"
    [
      ( "tagged-framing",
        [
          tagged_request_roundtrip;
          tagged_response_roundtrip;
          untagged_passthrough;
          Alcotest.test_case "tag negatives" `Quick test_tag_negatives;
        ] );
      ( "adversarial-bytes",
        [
          Alcotest.test_case "torn frames" `Quick test_torn_frames;
          Alcotest.test_case "interleaved v1/v2" `Quick
            test_interleaved_versions;
          Alcotest.test_case "bad tags on the wire" `Quick
            test_bad_tags_on_wire;
          Alcotest.test_case "oversized line" `Quick test_oversized_line;
          Alcotest.test_case "garbage storm" `Quick test_garbage_fuzz;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "hostile concurrent clients" `Quick test_chaos;
          Alcotest.test_case "deadline inside a coalesced batch" `Quick
            test_deadline_in_batch;
        ] );
    ]
