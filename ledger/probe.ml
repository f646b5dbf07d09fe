(* The arrival ledger's in-process half (see README.md).

     probe check INSTANCE DECISIONS
       Rebuild the arrangement from an `ltc serve` decision stream and
       validate it: one decision per arrival in order, consistent
       latency/completion fields, and Arrangement.validate at completion.
     probe check-arr INSTANCE ARRANGEMENT
       Validate an arrangement written by `ltc run --save-arrangement`.
     probe replay [--shards K] [--journal PATH] [--batch] [--traced FILE]
                  [--prefix N] INSTANCE ARRIVALS OUT
       Run a workload in-process the way `ltc serve` (or `ltc run` with
       --batch) does, write its decision stream (arrangement) to OUT and
       print one JSON object.  Without --traced it is a single untraced
       pass.  With --traced it makes an untraced pass, a pass that records
       a span around every call into a layer's public functions, another
       untraced pass and one with the metric registry off; it writes the
       spans to FILE as a Chrome/Perfetto trace and reports the per-layer
       metrics.  With --prefix N the untraced passes stop after N
       arrivals, and every pass is timed to its N-th decision.

   Every command prints one JSON line on stdout and exits 1 when a check
   fails. *)

module Arrangement = Ltc_core.Arrangement
module Metrics = Ltc_util.Metrics
module Ndjson = Ltc_service.Ndjson
module Session = Ltc_service.Session
module Srv = Ltc_service.Shard_server

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds ns = float_of_int ns *. 1e-9

(* ------------------------------------------------------------- JSON out *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_object fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> json_string k ^ ":" ^ v) fields) ^ "}"

let json_float x = if Float.is_finite x then Printf.sprintf "%.9g" x else "0"
let json_int = string_of_int

(* ---------------------------------------------------------------- spans *)

(* Span stores are columns of preallocated bigarrays, so recording a span
   allocates nothing and adds nothing for the GC to scan.  A store is
   written by one domain only: the main loop's store by the main domain,
   each shard's policy store by that shard's domain. *)
module Spans = struct
  type col = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

  type t = {
    tid : int;
    mutable n : int;
    name : col;
    start : col;
    stop : col;
    parent : col;
    arrival : col;
    aux : col;
  }

  let col cap = Bigarray.Array1.create Bigarray.int Bigarray.c_layout cap

  let create ~tid cap =
    {
      tid;
      n = 0;
      name = col cap;
      start = col cap;
      stop = col cap;
      parent = col cap;
      arrival = col cap;
      aux = col cap;
    }

  let names =
    [|
      "setup.load";
      "setup.create";
      "wire.parse";
      "wire.encode";
      "wire.write";
      "session.feed";
      "session.journal";
      "session.checkpoint";
      "session.close";
      "policy.decide";
      "shard.feed";
      "shard.flush";
      "shard.close";
      "flow.run";
    |]

  let id_of name =
    let rec go i = if names.(i) = name then i else go (i + 1) in
    go 0

  let load = id_of "setup.load"
  let create_ = id_of "setup.create"
  let parse = id_of "wire.parse"
  let encode = id_of "wire.encode"
  let write = id_of "wire.write"
  let feed = id_of "session.feed"
  let journal = id_of "session.journal"
  let checkpoint = id_of "session.checkpoint"
  let close_ = id_of "session.close"
  let decide = id_of "policy.decide"
  let shard_feed = id_of "shard.feed"
  let shard_flush = id_of "shard.flush"
  let shard_close = id_of "shard.close"
  let flow = id_of "flow.run"

  let layer id =
    let s = names.(id) in
    String.sub s 0 (String.index s '.')

  (* Tracing is one flag for the whole process: an untraced pass runs the
     same loop with every [open_] returning -1 before reading the clock. *)
  let on = ref false

  let open_ t name ~arrival ~parent =
    if not !on then -1
    else begin
      let i = t.n in
      t.n <- i + 1;
      t.name.{i} <- name;
      t.parent.{i} <- parent;
      t.arrival.{i} <- arrival;
      t.aux.{i} <- 0;
      t.start.{i} <- now_ns ();
      i
    end

  let close t i = if i >= 0 then t.stop.{i} <- now_ns ()
  let dur t i = t.stop.{i} - t.start.{i}

  (* Self time: the span's duration minus the part its children cover
     (children never overlap their parent's siblings here). *)
  let self_times t =
    let self = Array.init t.n (dur t) in
    for i = 0 to t.n - 1 do
      let p = t.parent.{i} in
      if p >= 0 then self.(p) <- self.(p) - dur t i
    done;
    self

  let durations t name =
    let acc = ref [] in
    for i = t.n - 1 downto 0 do
      if t.name.{i} = name then acc := float_of_int (dur t i) :: !acc
    done;
    Array.of_list !acc

  let write_chrome oc ~origin stores =
    output_string oc "[";
    let first = ref true in
    List.iter
      (fun t ->
        for i = 0 to t.n - 1 do
          if not !first then output_string oc ",\n";
          first := false;
          Printf.fprintf oc
            "{\"name\":%S,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"id\":%d,\"parent\":%d,\"arrival\":%d}}"
            names.(t.name.{i})
            (float_of_int (t.start.{i} - origin) /. 1e3)
            (float_of_int (dur t i) /. 1e3)
            t.tid i t.parent.{i} t.arrival.{i}
        done)
      stores;
    output_string oc "]\n"
end

(* ----------------------------------------------------------- statistics *)

let percentile xs q =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    s.(max 0 (min (n - 1) k))
  end

let sum xs = Array.fold_left ( +. ) 0.0 xs

(* Last-decile mean over first-decile mean, in call order: a per-call cost
   that grows over the run (with |T| done, progress size or journal
   length) reads above 1. *)
let growth xs =
  let n = Array.length xs in
  let d = n / 10 in
  if d = 0 then 0.0
  else
    let mean a b = sum (Array.sub xs a (b - a)) /. float_of_int (b - a) in
    let first = mean 0 d in
    if first <= 0.0 then 0.0 else mean (n - d) n /. first

(* Bytes this process has passed to write(2) so far. *)
let wchar () =
  match open_in "/proc/self/io" with
  | exception Sys_error _ -> 0
  | ic ->
    let rec go () =
      match input_line ic with
      | exception End_of_file -> 0
      | l -> (
        match Scanf.sscanf l "wchar: %d" Fun.id with
        | n -> n
        | exception _ -> go ())
    in
    let n = go () in
    close_in ic;
    n

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file -> List.rev acc
  in
  let l = go [] in
  close_in ic;
  Array.of_list l

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* --------------------------------------------------------------- checks *)

let report_check ~decisions ~latency errors =
  print_endline
    (json_object
       [
         ("ok", if errors = [] then "true" else "false");
         ("decisions", json_int decisions);
         ("latency", json_int latency);
         ("errors", "[" ^ String.concat "," (List.map json_string errors) ^ "]");
       ]);
  if errors <> [] then exit 1

let validation_errors instance arr =
  match Arrangement.validate instance arr with
  | Ok () -> []
  | Error vs ->
    List.filteri (fun i _ -> i < 3) vs
    |> List.map (Format.asprintf "%a" Arrangement.pp_violation)

let check_stream instance_path path =
  let instance = Ltc_core.Serialize.load_instance ~path:instance_path in
  let errors = ref [] and n_errors = ref 0 in
  let err fmt =
    Printf.ksprintf
      (fun s ->
        incr n_errors;
        if !n_errors <= 5 then errors := s :: !errors)
      fmt
  in
  let arr = ref Arrangement.empty in
  let latency = ref 0 and completed_at = ref 0 in
  let lines = read_lines path in
  Array.iteri
    (fun i line ->
      let n = i + 1 in
      match Ndjson.decision_of_line line with
      | exception Ndjson.Malformed m -> err "line %d: %s" n m
      | index, assigned, answered, completed, lat, degraded ->
        if index <> n then err "line %d answers arrival %d" n index;
        if !completed_at > 0 then err "line %d follows completion" n;
        if answered <> assigned || degraded then
          err "line %d: no-show or degraded decision in a noise-free run" n;
        List.iter
          (fun task -> arr := Arrangement.add !arr ~worker:index ~task)
          answered;
        if answered <> [] then latency := max !latency index;
        if lat <> !latency then
          err "line %d: latency %d, the stream implies %d" n lat !latency;
        if completed then completed_at := index)
    lines;
  if !completed_at = 0 then
    err "stream stops at arrival %d before completion" (Array.length lines);
  List.iter (err "%s") (validation_errors instance !arr);
  report_check ~decisions:(Array.length lines) ~latency:!latency
    (List.rev !errors)

let check_arrangement instance_path path =
  let instance = Ltc_core.Serialize.load_instance ~path:instance_path in
  let arr = Ltc_core.Serialize.load_arrangement ~path in
  report_check ~decisions:(Arrangement.size arr)
    ~latency:(Arrangement.latency arr)
    (validation_errors instance arr)

(* -------------------------------------------------------------- replay *)

type config = {
  shards : int option;
  journal : string option;
  batch : bool;
  traced : string option;
  prefix : int option;
  instance_path : string;
  arrivals_path : string;
  out : string;
}

(* What one pass leaves behind for the metrics. *)
type pass = {
  wall_ns : int;
  mark_ns : int;  (** time to the --prefix-th decision (wall_ns without) *)
  decided : int;  (** decisions written (arrivals consumed, for --batch) *)
  main : Spans.t;
  policy_stores : Spans.t list;
  gc_minor : float;
  gc_promoted : float;
  gc_major : int;
  bytes_written : int;  (** write(2) bytes minus the decision stream's *)
  journal_bytes : int;
  lags : int array;
  stalls : int;
  skew : float;
}

(* `ltc serve`'s and `ltc run`'s default seed. *)
let seed = 42

let set_observability on =
  Metrics.set_enabled on;
  Ltc_util.Trace.set_enabled on;
  Metrics.reset ()

(* LAF with every decide call wrapped in a policy.decide span.  Each
   session asks [store_for] once for its span store and a way to find the
   decide span's parent; a shard session's arrival ids are shard-local. *)
let traced_laf ~store_for =
  let base = Ltc_algo.Algorithm.laf in
  let policy = Option.get base.Ltc_algo.Algorithm.policy in
  {
    base with
    Ltc_algo.Algorithm.policy =
      Some
        (fun rng ->
          let store, parent_of = store_for () in
          let make = policy rng in
          fun instance tracker progress ->
            let decide = make instance tracker progress in
            fun w ->
              let sp =
                Spans.open_ store Spans.decide ~arrival:w.Ltc_core.Worker.index
                  ~parent:(parent_of ())
              in
              let tasks = decide w in
              if sp >= 0 then begin
                Spans.close store sp;
                store.Spans.aux.{sp} <- List.length tasks
              end;
              tasks);
  }

let run_pass cfg ~lines ~out ~limit =
  let n = min (Array.length lines) (Option.value limit ~default:max_int) in
  let mark = Option.value cfg.prefix ~default:max_int and mark_ns = ref (-1) in
  let main = Spans.create ~tid:0 ((6 * n) + 16) in
  let gc0 = Gc.quick_stat () in
  let w0 = wchar () in
  let t0 = now_ns () in
  let sp = Spans.open_ main Spans.load ~arrival:0 ~parent:(-1) in
  let instance = Ltc_core.Serialize.load_instance ~path:cfg.instance_path in
  Spans.close main sp;
  let oc = open_out_bin out in
  let out_bytes = ref 0 in
  let decided = ref 0 in
  let emit ~arrival (d : Session.decision) =
    let sp = Spans.open_ main Spans.encode ~arrival ~parent:(-1) in
    let line =
      Ndjson.decision_to_line ~degraded:d.Session.degraded ~worker:d.Session.worker
        ~assigned:d.Session.assigned ~answered:d.Session.answered
        ~completed:d.Session.completed ~latency:d.Session.latency ()
    in
    Spans.close main sp;
    let sp = Spans.open_ main Spans.write ~arrival ~parent:(-1) in
    output_string oc line;
    output_char oc '\n';
    flush oc;
    Spans.close main sp;
    out_bytes := !out_bytes + String.length line + 1;
    incr decided;
    if !decided = mark then mark_ns := now_ns () - t0
  in
  let parse i =
    let sp = Spans.open_ main Spans.parse ~arrival:(i + 1) ~parent:(-1) in
    let w = Ndjson.arrival_exn ~line:(i + 1) lines.(i) in
    Spans.close main sp;
    w
  in
  let journal_bytes = ref 0 and lags = ref [||] and stalls = ref 0 in
  let skew = ref 0.0 and policy_stores = ref [] in
  (match cfg.shards with
  | None ->
    let cur_feed = ref (-1) and jspan = ref (-1) in
    let algorithm = traced_laf ~store_for:(fun () -> (main, fun () -> !cur_feed)) in
    (* Session.feed calls this between applying a decision and journaling
       it, which splits the journal append (and checkpoint) off the feed. *)
    let on_decision (d : Session.decision) =
      jspan :=
        Spans.open_ main Spans.journal ~arrival:d.Session.worker ~parent:!cur_feed
    in
    let snapshots =
      Metrics.counter ~labels:[ ("algo", "LAF") ] "ltc_service_snapshots_total"
    in
    let sp = Spans.open_ main Spans.create_ ~arrival:0 ~parent:(-1) in
    let s =
      Session.create ?journal:cfg.journal
        ?on_decision:(Option.map (fun _ -> on_decision) cfg.journal)
        ~algorithm ~seed instance
    in
    Spans.close main sp;
    let rec loop i =
      if i < n then begin
        let w = parse i in
        let before = Metrics.Counter.value snapshots in
        cur_feed := Spans.open_ main Spans.feed ~arrival:(i + 1) ~parent:(-1);
        let d = Session.feed s w in
        if !jspan >= 0 then begin
          Spans.close main !jspan;
          if Metrics.Counter.value snapshots > before then
            main.Spans.name.{!jspan} <- Spans.checkpoint;
          jspan := -1
        end;
        Spans.close main !cur_feed;
        emit ~arrival:(i + 1) d;
        if not d.Session.completed then loop (i + 1)
      end
    in
    loop 0;
    journal_bytes := Session.journal_bytes s;
    let sp = Spans.open_ main Spans.close_ ~arrival:0 ~parent:(-1) in
    Session.close s;
    Spans.close main sp
  | Some shards ->
    let next_shard = ref 0 in
    let algorithm =
      traced_laf ~store_for:(fun () ->
          let k = !next_shard in
          incr next_shard;
          let store = Spans.create ~tid:(k + 1) (n + 16) in
          policy_stores := !policy_stores @ [ store ];
          (store, fun () -> -1))
    in
    let sp = Spans.open_ main Spans.create_ ~arrival:0 ~parent:(-1) in
    let srv =
      Srv.create ?journal:cfg.journal ~mode:Srv.Domains ~shards ~algorithm
        ~seed instance
    in
    Spans.close main sp;
    let lag = Array.make (n + 1) 0 and n_lag = ref 0 in
    let done_ = ref false in
    let release g ds =
      List.iter
        (fun (d : Session.decision) ->
          if not !done_ then begin
            lag.(!n_lag) <- g - d.Session.worker;
            incr n_lag;
            emit ~arrival:d.Session.worker d;
            if d.Session.completed then done_ := true
          end)
        ds
    in
    let i = ref 0 in
    while (not !done_) && !i < n do
      let g = !i + 1 in
      let w = parse !i in
      let sp = Spans.open_ main Spans.shard_feed ~arrival:g ~parent:(-1) in
      let ds = Srv.feed srv w in
      Spans.close main sp;
      release g ds;
      incr i
    done;
    let sp = Spans.open_ main Spans.shard_flush ~arrival:0 ~parent:(-1) in
    let ds = Srv.flush srv in
    Spans.close main sp;
    release !i ds;
    stalls := Srv.stalls srv;
    journal_bytes := Srv.journal_bytes srv;
    let consumed = Array.map float_of_int (Srv.shard_consumed srv) in
    skew :=
      Array.fold_left Float.max 0.0 consumed
      /. Float.max 1.0 (sum consumed /. float_of_int shards);
    let sp = Spans.open_ main Spans.shard_close ~arrival:0 ~parent:(-1) in
    Srv.close srv;
    Spans.close main sp;
    lags := Array.sub lag 0 !n_lag);
  let wall_ns = now_ns () - t0 in
  close_out oc;
  let gc1 = Gc.quick_stat () in
  {
    wall_ns;
    mark_ns = (if !mark_ns < 0 then wall_ns else !mark_ns);
    decided = !decided;
    main;
    policy_stores = !policy_stores;
    gc_minor = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    gc_promoted = gc1.Gc.promoted_words -. gc0.Gc.promoted_words;
    gc_major = gc1.Gc.major_collections - gc0.Gc.major_collections;
    bytes_written = wchar () - w0 - !out_bytes;
    journal_bytes = !journal_bytes;
    lags = !lags;
    stalls = !stalls;
    skew = !skew;
  }

let run_batch_pass cfg ~out =
  let main = Spans.create ~tid:0 16 in
  let gc0 = Gc.quick_stat () in
  let t0 = now_ns () in
  let sp = Spans.open_ main Spans.load ~arrival:0 ~parent:(-1) in
  let instance = Ltc_core.Serialize.load_instance ~path:cfg.instance_path in
  Spans.close main sp;
  let sp = Spans.open_ main Spans.flow ~arrival:0 ~parent:(-1) in
  let outcome = Ltc_algo.Algorithm.mcf_ltc.Ltc_algo.Algorithm.run ~seed instance in
  Spans.close main sp;
  let wall_ns = now_ns () - t0 in
  Ltc_core.Serialize.save_arrangement ~path:out
    outcome.Ltc_algo.Engine.arrangement;
  let gc1 = Gc.quick_stat () in
  {
    wall_ns;
    mark_ns = wall_ns;
    decided = outcome.Ltc_algo.Engine.workers_consumed;
    main;
    policy_stores = [];
    gc_minor = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    gc_promoted = gc1.Gc.promoted_words -. gc0.Gc.promoted_words;
    gc_major = gc1.Gc.major_collections - gc0.Gc.major_collections;
    bytes_written = 0;
    journal_bytes = 0;
    lags = [||];
    stalls = 0;
    skew = 0.0;
  }

let pass ?limit cfg ~lines ~out ~traced ~observed =
  set_observability observed;
  Spans.on := traced;
  (* Each pass journals to a fresh file of its own. *)
  let cfg =
    { cfg with journal = Option.map (fun j -> j ^ "." ^ Filename.basename out) cfg.journal }
  in
  let p = if cfg.batch then run_batch_pass cfg ~out else run_pass cfg ~lines ~out ~limit in
  Spans.on := false;
  p

let counter ?(labels = []) name = float_of_int (Metrics.Counter.value (Metrics.counter ~labels name))

let overhead x y = (float_of_int x /. float_of_int y) -. 1.0

(* Per-layer metrics of the traced pass [b].  Reads the metric registry,
   so it runs before any later pass resets it. *)
let layer_metrics cfg ~b =
  let wall = float_of_int b.wall_ns in
  let us xs = Array.map (fun x -> x /. 1e3) xs in
  let main = b.main in
  let self = Spans.self_times main in
  let layer_self = Hashtbl.create 8 in
  Array.iteri
    (fun i s ->
      let l = Spans.layer main.Spans.name.{i} in
      Hashtbl.replace layer_self l
        (float_of_int s +. Option.value ~default:0.0 (Hashtbl.find_opt layer_self l)))
    self;
  let busy l = Option.value ~default:0.0 (Hashtbl.find_opt layer_self l) /. wall in
  let attributed = Hashtbl.fold (fun _ v acc -> acc +. v) layer_self 0.0 in
  let per_arrival x = x /. float_of_int (max 1 b.decided) in
  let decide_stores = if cfg.shards = None then [ main ] else b.policy_stores in
  let decide = Array.concat (List.map (fun s -> Spans.durations s Spans.decide) decide_stores) in
  let empty =
    List.fold_left
      (fun acc s ->
        let c = ref 0 in
        for i = 0 to s.Spans.n - 1 do
          if s.Spans.name.{i} = Spans.decide && s.Spans.aux.{i} = 0 then incr c
        done;
        acc + !c)
      0 decide_stores
  in
  (* Session self per feed call: the feed span minus its policy child. *)
  let session_self =
    let acc = ref [] in
    for i = main.Spans.n - 1 downto 0 do
      if main.Spans.name.{i} = Spans.feed then begin
        let s = ref (Spans.dur main i) in
        (* the decide child directly follows its feed span *)
        if i + 1 < main.Spans.n && main.Spans.parent.{i + 1} = i
           && main.Spans.name.{i + 1} = Spans.decide
        then s := !s - Spans.dur main (i + 1);
        acc := float_of_int !s :: !acc
      end
    done;
    Array.of_list !acc
  in
  let ms xs = Array.map (fun x -> x /. 1e6) xs in
  let checkpoints = ms (Spans.durations main Spans.checkpoint) in
  let shard_feed = us (Spans.durations main Spans.shard_feed) in
  let first name = match Spans.durations main name with [||] -> 0.0 | xs -> xs.(0) in
  let dijkstra = counter ~labels:[ ("solver", "sspa") ] "ltc_flow_mcmf_dijkstra_passes_total" in
  let units = counter ~labels:[ ("solver", "sspa") ] "ltc_flow_mcmf_pushed_flow_total" in
  let flow_s = if cfg.batch then Metrics.Histogram.sum (Metrics.histogram "ltc_mcf_batch_seconds") else 0.0 in
  [
    ("wire.parse_us_p50", percentile (us (Spans.durations main Spans.parse)) 0.5);
    ("wire.encode_us_p50", percentile (us (Spans.durations main Spans.encode)) 0.5);
    ("wire.busy_frac", busy "wire");
    ("policy.decide_us_p50", percentile (us decide) 0.5);
    ("policy.decide_us_p99", percentile (us decide) 0.99);
    ("policy.busy_frac", sum decide /. wall);
    ("policy.empty_frac", float_of_int empty /. float_of_int (max 1 (Array.length decide)));
    ("policy.decide_growth", growth decide);
    ("session.self_us_p50", percentile (us session_self) 0.5);
    ("session.checkpoints", float_of_int (Array.length checkpoints));
    ("session.checkpoint_ms_p50", percentile checkpoints 0.5);
    ("session.checkpoint_ms_max", percentile checkpoints 1.0);
    ("session.checkpoint_growth", growth checkpoints);
    ("session.busy_frac", busy "session");
    ("session.journal_bytes", float_of_int b.journal_bytes);
    ("session.bytes_written_per_arrival", per_arrival (float_of_int b.bytes_written));
    ("shard.feed_us_p50", percentile shard_feed 0.5);
    ("shard.feed_us_p99", percentile shard_feed 0.99);
    ("shard.flush_ms", first Spans.shard_flush /. 1e6);
    ("shard.stalls", float_of_int b.stalls);
    ("shard.release_lag_p99", percentile (Array.map float_of_int b.lags) 0.99);
    ("shard.arrival_skew", b.skew);
    ("flow.batches", counter "ltc_mcf_batches_total");
    ("flow.dijkstra_passes", dijkstra);
    ("flow.units", units);
    ("flow.units_per_pass", if dijkstra > 0.0 then units /. dijkstra else 0.0);
    ("flow.busy_frac", flow_s *. 1e9 /. wall);
    ("setup.load_s", first Spans.load /. 1e9);
    ("setup.create_s", first Spans.create_ /. 1e9);
    ("gc.minor_words_per_arrival", per_arrival b.gc_minor);
    ("gc.promoted_words_per_arrival", per_arrival b.gc_promoted);
    ("gc.major_collections", float_of_int b.gc_major);
    ("trace.unattributed_frac", (wall -. attributed) /. wall);
  ]

let replay cfg =
  let lines = if cfg.batch then [||] else read_lines cfg.arrivals_path in
  let fields = ref [] in
  let add k v = fields := (k, v) :: !fields in
  (match cfg.traced with
  | None ->
    let p = pass cfg ~lines ~out:cfg.out ~traced:false ~observed:false in
    add "wall_s" (json_float (seconds p.wall_ns));
    add "decided" (json_int p.decided)
  | Some trace_path ->
    (* Untraced, traced, untraced again: the first pass also pays for
       growing the heap, so the traced pass is compared with the mean of
       the passes around it.  Passes are compared by their time to the
       --prefix-th decision, so the untraced ones can stop there. *)
    let limit = cfg.prefix in
    let a = pass ?limit cfg ~lines ~out:(cfg.out ^ ".a") ~traced:false ~observed:true in
    let b = pass cfg ~lines ~out:cfg.out ~traced:true ~observed:true in
    let metrics = layer_metrics cfg ~b in
    let a2 = pass ?limit cfg ~lines ~out:(cfg.out ^ ".a2") ~traced:false ~observed:true in
    (* `--metrics` on vs off: one more untraced pass with the registry
       and the program's own tracing off, compared with its neighbour. *)
    let c = pass ?limit cfg ~lines ~out:(cfg.out ^ ".c") ~traced:false ~observed:false in
    let metrics =
      metrics
      @ [
          ("obs.metrics_overhead_frac", overhead a2.mark_ns c.mark_ns);
          ("trace.overhead_frac", overhead b.mark_ns ((a.mark_ns + a2.mark_ns) / 2));
        ]
    in
    (* The untraced streams are the traced one, cut at --prefix. *)
    let same =
      let want = read_file cfg.out in
      List.for_all
        (fun (p, ext) ->
          let got = read_file (cfg.out ^ ext) in
          if limit = None then got = want
          else
            p.decided = min b.decided (Option.get limit)
            && String.starts_with ~prefix:got want)
        [ (a, ".a"); (a2, ".a2"); (c, ".c") ]
    in
    let oc = open_out_bin trace_path in
    Spans.write_chrome oc ~origin:(b.main.Spans.start.{0}) (b.main :: b.policy_stores);
    close_out oc;
    add "wall_s" (json_float (seconds b.wall_ns));
    add "decided" (json_int b.decided);
    add "spans" (json_int (List.fold_left (fun acc s -> acc + s.Spans.n) 0 (b.main :: b.policy_stores)));
    add "streams_equal" (if same then "true" else "false");
    add "metrics" (json_object (List.map (fun (k, v) -> (k, json_float v)) metrics)));
  print_endline (json_object (List.rev !fields))

(* ------------------------------------------------------------------ cli *)

let usage () =
  prerr_endline
    "usage: probe check INSTANCE DECISIONS\n\
    \       probe check-arr INSTANCE ARRANGEMENT\n\
    \       probe replay [--shards K] [--journal PATH] [--batch] [--traced \
     FILE] [--prefix N] INSTANCE ARRIVALS OUT";
  exit 2

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "check"; instance; decisions ] -> check_stream instance decisions
  | [ "check-arr"; instance; arrangement ] -> check_arrangement instance arrangement
  | "replay" :: rest ->
    let rec go cfg = function
      | "--shards" :: k :: r -> go { cfg with shards = Some (int_of_string k) } r
      | "--journal" :: p :: r -> go { cfg with journal = Some p } r
      | "--batch" :: r -> go { cfg with batch = true } r
      | "--traced" :: p :: r -> go { cfg with traced = Some p } r
      | "--prefix" :: k :: r -> go { cfg with prefix = Some (int_of_string k) } r
      | [ instance; arrivals; out ] ->
        { cfg with instance_path = instance; arrivals_path = arrivals; out }
      | _ -> usage ()
    in
    replay
      (go
         {
           shards = None;
           journal = None;
           batch = false;
           traced = None;
           prefix = None;
           instance_path = "";
           arrivals_path = "";
           out = "";
         }
         rest)
  | _ -> usage ()
