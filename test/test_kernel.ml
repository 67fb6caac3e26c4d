(* Unit and property tests for lion_kernel: PRNG, zipfian sampling,
   priority queue, statistics, time series, table rendering, JSON. *)

open Lion_kernel

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_split_independent () =
  let root = Rng.create 7 in
  let child = Rng.split root in
  let parent_draws = List.init 50 (fun _ -> Rng.int root 1_000_000) in
  let child_draws = List.init 50 (fun _ -> Rng.int child 1_000_000) in
  Alcotest.(check bool) "streams differ" true (parent_draws <> child_draws)

let test_rng_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 10_000 do
    let x = Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 17)
  done

let test_rng_int_in () =
  let rng = Rng.create 5 in
  for _ = 1 to 1_000 do
    let x = Rng.int_in rng 5 15 in
    Alcotest.(check bool) "inclusive range" true (x >= 5 && x <= 15)
  done

let test_rng_float_unit () =
  let rng = Rng.create 9 in
  for _ = 1 to 10_000 do
    let x = Rng.float rng 1.0 in
    Alcotest.(check bool) "in [0,1)" true (x >= 0.0 && x < 1.0)
  done

let test_rng_bernoulli_extremes () =
  let rng = Rng.create 11 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=0 never" false (Rng.bernoulli rng 0.0)
  done;
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=1 always" true (Rng.bernoulli rng 1.0)
  done

let test_rng_mean () =
  let rng = Rng.create 13 in
  let n = 100_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.float rng 1.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 0.5" true (Float.abs (mean -. 0.5) < 0.01)

let test_rng_gaussian_moments () =
  let rng = Rng.create 17 in
  let n = 50_000 in
  let sum = ref 0.0 and sq = ref 0.0 in
  for _ = 1 to n do
    let x = Rng.gaussian rng ~mu:3.0 ~sigma:2.0 in
    sum := !sum +. x;
    sq := !sq +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sq /. float_of_int n) -. (mean *. mean) in
  Alcotest.(check bool) "mean near 3" true (Float.abs (mean -. 3.0) < 0.05);
  Alcotest.(check bool) "variance near 4" true (Float.abs (var -. 4.0) < 0.15)

let test_shuffle_permutation () =
  let rng = Rng.create 19 in
  let a = Array.init 100 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same elements" (Array.init 100 (fun i -> i)) sorted

let test_rng_choose_and_exponential () =
  let rng = Rng.create 21 in
  let a = [| "x"; "y"; "z" |] in
  for _ = 1 to 100 do
    Alcotest.(check bool) "choose from array" true (Array.mem (Rng.choose rng a) a)
  done;
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    let x = Rng.exponential rng 5.0 in
    Alcotest.(check bool) "non-negative" true (x >= 0.0);
    sum := !sum +. x
  done;
  Alcotest.(check bool) "mean near 5" true
    (Float.abs ((!sum /. float_of_int n) -. 5.0) < 0.25)

let test_stats_mean_of () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Stats.mean_of [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Stats.mean_of [])

(* --- zipf --- *)

let test_zipf_uniform_when_theta0 () =
  let rng = Rng.create 23 in
  let z = Zipf.create ~n:10 ~theta:0.0 in
  let counts = Array.make 10 0 in
  for _ = 1 to 50_000 do
    let x = Zipf.sample z rng in
    counts.(x) <- counts.(x) + 1
  done;
  Array.iter
    (fun c -> Alcotest.(check bool) "roughly uniform" true (abs (c - 5000) < 600))
    counts

let test_zipf_skew_orders_ranks () =
  let rng = Rng.create 29 in
  let z = Zipf.create ~n:1000 ~theta:0.99 in
  let counts = Array.make 1000 0 in
  for _ = 1 to 100_000 do
    let x = Zipf.sample z rng in
    counts.(x) <- counts.(x) + 1
  done;
  Alcotest.(check bool) "rank0 beats rank10" true (counts.(0) > counts.(10));
  Alcotest.(check bool) "rank0 beats rank100" true (counts.(0) > counts.(100));
  Alcotest.(check bool) "rank0 is heavy" true (counts.(0) > 5_000)

let test_zipf_range_property =
  QCheck.Test.make ~name:"zipf samples stay in range" ~count:200
    QCheck.(pair (int_range 1 5000) (float_range 0.0 1.2))
    (fun (n, theta) ->
      let rng = Rng.create 31 in
      let z = Zipf.create ~n ~theta in
      List.for_all
        (fun _ ->
          let x = Zipf.sample z rng in
          x >= 0 && x < n)
        (List.init 50 Fun.id))

(* --- pqueue --- *)

let test_pqueue_ordering () =
  let q = Pqueue.create () in
  List.iter (fun k -> Pqueue.push q k k) [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
  let order = List.init 5 (fun _ -> fst (Option.get (Pqueue.pop q))) in
  Alcotest.(check (list (float 1e-9))) "ascending" [ 1.0; 2.0; 3.0; 4.0; 5.0 ] order

let test_pqueue_fifo_ties () =
  let q = Pqueue.create () in
  Pqueue.push q 1.0 "a";
  Pqueue.push q 1.0 "b";
  Pqueue.push q 1.0 "c";
  let order = List.init 3 (fun _ -> snd (Option.get (Pqueue.pop q))) in
  Alcotest.(check (list string)) "insertion order among ties" [ "a"; "b"; "c" ] order

let test_pqueue_empty () =
  let q : int Pqueue.t = Pqueue.create () in
  Alcotest.(check bool) "empty" true (Pqueue.is_empty q);
  Alcotest.(check bool) "pop none" true (Pqueue.pop q = None);
  Alcotest.(check bool) "peek none" true (Pqueue.peek q = None)

let test_pqueue_peek_does_not_remove () =
  let q = Pqueue.create () in
  Pqueue.push q 2.0 "x";
  ignore (Pqueue.peek q);
  Alcotest.(check int) "still one element" 1 (Pqueue.length q)

let test_pqueue_heap_property =
  QCheck.Test.make ~name:"pqueue pops sorted" ~count:100
    QCheck.(list (float_range 0.0 1000.0))
    (fun keys ->
      let q = Pqueue.create () in
      List.iter (fun k -> Pqueue.push q k ()) keys;
      let rec drain acc =
        match Pqueue.pop q with None -> List.rev acc | Some (k, ()) -> drain (k :: acc)
      in
      drain [] = List.sort compare keys)

let test_pqueue_to_list_preserves () =
  let q = Pqueue.create () in
  List.iter (fun k -> Pqueue.push q (float_of_int k) k) [ 3; 1; 2 ];
  let snapshot = Pqueue.to_list q in
  Alcotest.(check int) "queue intact" 3 (Pqueue.length q);
  Alcotest.(check (list int)) "sorted snapshot" [ 1; 2; 3 ] (List.map snd snapshot)

(* The raw int-keyed API is what the engine's hot loop runs on: pops
   must come out nondecreasing, and among equal keys strictly in push
   order, across interleaved pushes and pops. Keys are drawn from a
   tiny range so collisions (the FIFO-critical case) are common. *)
let test_pqueue_raw_heap_property =
  QCheck.Test.make ~name:"raw int heap pops nondecreasing, FIFO at ties" ~count:300
    QCheck.(list (pair (int_range 0 7) bool))
    (fun script ->
      let q = Pqueue.create () in
      let counter = ref 0 in
      let popped = ref [] in
      let push key =
        incr counter;
        Pqueue.push_key q key (key, !counter)
      in
      let pop () =
        if not (Pqueue.is_empty q) then popped := Pqueue.pop_min q :: !popped
      in
      List.iter (fun (key, do_pop) -> push key; if do_pop then pop ()) script;
      let script_pops = List.length !popped in
      while not (Pqueue.is_empty q) do pop () done;
      let order = List.rev !popped in
      (* Every pushed element came back out... *)
      List.length order = !counter
      (* ...and by push order at equal keys. Pops interleaved with
         pushes can't be globally key-sorted, but an equal-key pair is
         always popped in push order: the earlier element is in the
         heap whenever the later one is. *)
      && List.for_all
           (fun ((k, s), later) ->
             List.for_all (fun (k', s') -> k' <> k || s' > s) later)
           (List.mapi
              (fun i e -> (e, List.filteri (fun j _ -> j > i) order))
              order)
      &&
      (* The final drain (no pushes interleaved) is key-sorted. *)
      let rec sorted = function
        | (k1, _) :: ((k2, _) :: _ as rest) -> k1 <= k2 && sorted rest
        | _ -> true
      in
      sorted (List.filteri (fun i _ -> i >= script_pops) order))

(* The heap can only replicate the old float heap's drain order if the
   int key cast is order-preserving and exactly invertible. *)
let test_pqueue_key_bijection =
  QCheck.Test.make ~name:"key_of_time order-isomorphic and exact" ~count:500
    QCheck.(pair (float_range 0.0 1e12) (float_range 0.0 1e12))
    (fun (a, b) ->
      let ka = Pqueue.key_of_time a and kb = Pqueue.key_of_time b in
      Pqueue.time_of_key ka = a
      && Pqueue.time_of_key kb = b
      && compare ka kb = compare a b)

let test_pqueue_raw_drain_matches_float_api () =
  (* Same keys through both APIs must drain in the same order. *)
  let keys = [ 7.25; 0.0; 3.5; 3.5; 1e9; 0.0; 42.125; 3.5 ] in
  let qf = Pqueue.create () and qi = Pqueue.create () in
  List.iteri (fun i k -> Pqueue.push qf k i) keys;
  List.iteri (fun i k -> Pqueue.push_key qi (Pqueue.key_of_time k) i) keys;
  let rec drain q acc =
    if Pqueue.is_empty q then List.rev acc else drain q (Pqueue.pop_min q :: acc)
  in
  Alcotest.(check (list int)) "identical drain order" (drain qf []) (drain qi [])

let test_pqueue_negative_key_rejected () =
  let q = Pqueue.create () in
  Alcotest.check_raises "negative key" (Invalid_argument "Pqueue.push: key must be >= 0")
    (fun () -> Pqueue.push q (-1.0) ())

(* --- stats --- *)

let test_running_moments () =
  let r = Stats.Running.create () in
  List.iter (Stats.Running.add r) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Stats.Running.mean r);
  Alcotest.(check (float 1e-6)) "stddev (sample)" (sqrt (32.0 /. 7.0)) (Stats.Running.stddev r);
  Alcotest.(check (float 1e-9)) "min" 2.0 (Stats.Running.min r);
  Alcotest.(check (float 1e-9)) "max" 9.0 (Stats.Running.max r)

let test_running_empty () =
  let r = Stats.Running.create () in
  Alcotest.(check (float 0.0)) "mean of empty" 0.0 (Stats.Running.mean r);
  Alcotest.(check (float 0.0)) "variance of empty" 0.0 (Stats.Running.variance r)

let test_percentiles_exact () =
  let sorted = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Stats.percentile_of_sorted sorted 0.0);
  Alcotest.(check (float 1e-9)) "p50" 3.0 (Stats.percentile_of_sorted sorted 50.0);
  Alcotest.(check (float 1e-9)) "p100" 5.0 (Stats.percentile_of_sorted sorted 100.0);
  Alcotest.(check (float 1e-9)) "p25 interpolates" 2.0 (Stats.percentile_of_sorted sorted 25.0)

let test_reservoir_small_is_exact () =
  let r = Stats.Reservoir.create ~capacity:100 (Rng.create 1) in
  for i = 1 to 50 do
    Stats.Reservoir.add r (float_of_int i)
  done;
  Alcotest.(check (float 1e-9)) "median" 25.5 (Stats.Reservoir.percentile r 50.0);
  Alcotest.(check int) "count" 50 (Stats.Reservoir.count r)

let test_reservoir_large_approximates () =
  let r = Stats.Reservoir.create ~capacity:1024 (Rng.create 2) in
  for i = 1 to 100_000 do
    Stats.Reservoir.add r (float_of_int i)
  done;
  let p50 = Stats.Reservoir.percentile r 50.0 in
  Alcotest.(check bool) "p50 near 50000" true (Float.abs (p50 -. 50_000.0) < 5_000.0);
  Alcotest.(check int) "count tracks all" 100_000 (Stats.Reservoir.count r)

let test_cosine_similarity () =
  Alcotest.(check (float 1e-9)) "identical" 1.0
    (Stats.cosine_similarity [| 1.0; 2.0 |] [| 2.0; 4.0 |]);
  Alcotest.(check (float 1e-9)) "orthogonal" 0.0
    (Stats.cosine_similarity [| 1.0; 0.0 |] [| 0.0; 1.0 |]);
  Alcotest.(check (float 1e-9)) "zero vector" 0.0
    (Stats.cosine_similarity [| 0.0; 0.0 |] [| 1.0; 1.0 |]);
  Alcotest.(check (float 1e-9)) "opposite" (-1.0)
    (Stats.cosine_similarity [| 1.0; 1.0 |] [| -1.0; -1.0 |])

(* --- timeseries --- *)

let test_timeseries_bucketing () =
  let ts = Timeseries.create ~interval:10.0 in
  Timeseries.add ts ~time:0.0 1.0;
  Timeseries.add ts ~time:9.99 1.0;
  Timeseries.add ts ~time:10.0 5.0;
  Timeseries.add ts ~time:25.0 2.0;
  Alcotest.(check (float 1e-9)) "bucket 0" 2.0 (Timeseries.get ts 0);
  Alcotest.(check (float 1e-9)) "bucket 1" 5.0 (Timeseries.get ts 1);
  Alcotest.(check (float 1e-9)) "bucket 2" 2.0 (Timeseries.get ts 2);
  Alcotest.(check int) "bucket count" 3 (Timeseries.bucket_count ts)

let test_timeseries_negative_clamped () =
  let ts = Timeseries.create ~interval:1.0 in
  Timeseries.add ts ~time:(-5.0) 3.0;
  Alcotest.(check (float 1e-9)) "clamped to bucket 0" 3.0 (Timeseries.get ts 0)

let test_timeseries_last_n_padding () =
  let ts = Timeseries.create ~interval:1.0 in
  Timeseries.incr ts ~time:0.5;
  Timeseries.incr ts ~time:1.5;
  let w = Timeseries.last_n ts 4 in
  Alcotest.(check (array (float 1e-9))) "left-padded" [| 0.0; 0.0; 1.0; 1.0 |] w

let test_timeseries_range () =
  let ts = Timeseries.create ~interval:1.0 in
  for i = 0 to 9 do
    Timeseries.add ts ~time:(float_of_int i) (float_of_int i)
  done;
  Alcotest.(check (array (float 1e-9)))
    "middle slice" [| 3.0; 4.0; 5.0 |]
    (Timeseries.range ts ~lo:3 ~hi:5);
  Alcotest.(check (array (float 1e-9)))
    "out of range pads" [| 0.0; 0.0 |]
    (Timeseries.range ts ~lo:20 ~hi:21)

let test_timeseries_sum_range () =
  let ts = Timeseries.create ~interval:1.0 in
  for i = 0 to 9 do
    Timeseries.incr ts ~time:(float_of_int i)
  done;
  Alcotest.(check (float 1e-9)) "sum of 10" 10.0 (Timeseries.sum_range ts 0 9);
  Alcotest.(check (float 1e-9)) "partial" 3.0 (Timeseries.sum_range ts 2 4)

let test_timeseries_growth () =
  let ts = Timeseries.create ~interval:1.0 in
  Timeseries.incr ts ~time:5000.0;
  Alcotest.(check int) "grows to bucket" 5001 (Timeseries.bucket_count ts);
  Alcotest.(check (float 1e-9)) "value present" 1.0 (Timeseries.get ts 5000)

(* --- table --- *)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_table_renders_aligned () =
  let t = Table.create ~title:"T" ~columns:[ "a"; "bb" ] in
  Table.add_row t [ "xxx"; "y" ];
  let s = Table.render t in
  Alcotest.(check bool) "has cell" true (contains s "xxx");
  Alcotest.(check bool) "has header" true (contains s "bb")

let test_table_pads_short_rows () =
  let t = Table.create ~title:"T" ~columns:[ "a"; "b"; "c" ] in
  Table.add_row t [ "only" ];
  ignore (Table.render t)

let test_table_cell_formatting () =
  Alcotest.(check string) "float cell" "3.1" (Table.cell_float 3.14159);
  Alcotest.(check string) "float decimals" "3.14" (Table.cell_float ~decimals:2 3.14159);
  Alcotest.(check string) "int cell" "42" (Table.cell_int 42)

(* --- json --- *)

let json_ok s =
  match Json.parse s with
  | Ok v -> v
  | Error e -> Alcotest.failf "%S: %s" s (Json.error_to_string e)

let check_json_error s ~message ~offset =
  match Json.parse s with
  | Ok _ -> Alcotest.failf "%S parsed" s
  | Error e ->
      Alcotest.(check string) (s ^ " message") message e.Json.message;
      Alcotest.(check int) (s ^ " offset") offset e.Json.offset

let test_json_unterminated_string () =
  check_json_error "{\"a\": \"abc" ~message:"unterminated string" ~offset:10;
  check_json_error "\"" ~message:"unterminated string" ~offset:1

let test_json_trailing_garbage () =
  check_json_error "[1, 2] x" ~message:"trailing garbage" ~offset:7;
  check_json_error "{} {}" ~message:"trailing garbage" ~offset:3;
  check_json_error "" ~message:"unexpected end of input" ~offset:0

let test_json_bad_literal () =
  check_json_error "tzzz" ~message:"bad literal" ~offset:0;
  check_json_error "[nul]" ~message:"bad literal" ~offset:1;
  check_json_error "{\"phantom\": tru}" ~message:"bad literal" ~offset:12;
  Alcotest.(check bool) "literals" true
    (json_ok " [true, false, null] " = Json.List [ Bool true; Bool false; Null ])

let test_json_nested_arrays () =
  let v = json_ok "[[1, [2, []]], [], [[[\"x\"]]], {\"k\": [{}]}]" in
  let open Json in
  Alcotest.(check bool) "structure" true
    (v
    = List
        [
          List [ Int 1; List [ Int 2; List [] ] ];
          List [];
          List [ List [ List [ String "x" ] ] ];
          Object [ ("k", List [ Object [] ]) ];
        ]);
  check_json_error "[[1, 2]" ~message:"expected ',' or ']'" ~offset:7

let test_json_int_vs_float () =
  let v = json_ok "[0, -7, 1.5, 1e3, 12345678901234567890, -0.25E-2]" in
  let open Json in
  Alcotest.(check bool) "kinds" true
    (v
    = List
        [
          Int 0;
          Int (-7);
          Float 1.5;
          Float 1000.0;
          Float 12345678901234567890.0;
          Float (-0.0025);
        ]);
  Alcotest.(check int) "to_int" 42 (to_int (json_ok "42"));
  Alcotest.(check (float 0.0)) "to_float widens an Int" 7.0 (to_float (Int 7));
  Alcotest.check_raises "to_int rejects a float" (Decode_error "expected an integer")
    (fun () -> ignore (to_int (json_ok "1.5")));
  let f = 0.1 +. 0.2 in
  Alcotest.(check bool) "%.17g round-trips" true
    (json_ok (Printf.sprintf "%.17g" f) = Float f);
  List.iter
    (fun s ->
      Alcotest.(check bool) (s ^ " rejected") true (Result.is_error (parse s)))
    [ "01"; "+1"; "1."; ".5"; "-"; "1e"; "[1,]" ]

let test_json_strings () =
  let all_bytes = String.init 256 Char.chr in
  Alcotest.(check bool) "escape round-trips every byte" true
    (json_ok ("\"" ^ Json.escape all_bytes ^ "\"") = Json.String all_bytes);
  Alcotest.(check string) "escape form" "a\\\"b\\\\c\\n\\t\\u0001"
    (Json.escape "a\"b\\c\n\t\001");
  Alcotest.(check string) "plain text unchanged" "lion-batch" (Json.escape "lion-batch");
  Alcotest.(check bool) "\\u escapes decode to UTF-8" true
    (json_ok "\"\\u002d\\u00e9\\ud83d\\ude00\\/\"" = Json.String "-\xc3\xa9\xf0\x9f\x98\x80/");
  check_json_error "\"\\udc00\"" ~message:"unpaired surrogate" ~offset:7;
  check_json_error "\"\\ud83dx\"" ~message:"unpaired surrogate" ~offset:7;
  check_json_error "\"\\x\"" ~message:"bad escape" ~offset:2;
  check_json_error "\"a\nb\"" ~message:"control character in string" ~offset:2

let test_json_accessors () =
  let v = json_ok "{\"n\": 3, \"s\": \"x\", \"l\": [true]}" in
  Alcotest.(check int) "member" 3 Json.(to_int (member "n" v));
  Alcotest.(check (result int string)) "decode" (Ok 1)
    (Json.decode "{\"l\": [true]}" (fun v -> List.length Json.(to_list (member "l" v))));
  Alcotest.(check (result int string)) "missing field" (Error "missing field \"m\"")
    (Json.decode "{}" (fun v -> Json.(to_int (member "m" v))));
  Alcotest.(check (result int string)) "parse error" (Error "bad literal at offset 0")
    (Json.decode "nope" (fun _ -> 0))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "lion_kernel"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_rng_bounds;
          Alcotest.test_case "int_in inclusive" `Quick test_rng_int_in;
          Alcotest.test_case "float in unit" `Quick test_rng_float_unit;
          Alcotest.test_case "bernoulli extremes" `Quick test_rng_bernoulli_extremes;
          Alcotest.test_case "uniform mean" `Slow test_rng_mean;
          Alcotest.test_case "gaussian moments" `Slow test_rng_gaussian_moments;
          Alcotest.test_case "shuffle is a permutation" `Quick test_shuffle_permutation;
          Alcotest.test_case "choose and exponential" `Quick test_rng_choose_and_exponential;
        ] );
      ( "zipf",
        [
          Alcotest.test_case "theta 0 is uniform" `Slow test_zipf_uniform_when_theta0;
          Alcotest.test_case "skew orders ranks" `Slow test_zipf_skew_orders_ranks;
        ] );
      qsuite "zipf-props" [ test_zipf_range_property ];
      ( "pqueue",
        [
          Alcotest.test_case "orders by key" `Quick test_pqueue_ordering;
          Alcotest.test_case "FIFO among ties" `Quick test_pqueue_fifo_ties;
          Alcotest.test_case "empty behaviour" `Quick test_pqueue_empty;
          Alcotest.test_case "peek non-destructive" `Quick test_pqueue_peek_does_not_remove;
          Alcotest.test_case "to_list sorted snapshot" `Quick test_pqueue_to_list_preserves;
          Alcotest.test_case "raw drain matches float API" `Quick
            test_pqueue_raw_drain_matches_float_api;
          Alcotest.test_case "negative key rejected" `Quick
            test_pqueue_negative_key_rejected;
        ] );
      qsuite "pqueue-props"
        [
          test_pqueue_heap_property;
          test_pqueue_raw_heap_property;
          test_pqueue_key_bijection;
        ];
      ( "stats",
        [
          Alcotest.test_case "running moments" `Quick test_running_moments;
          Alcotest.test_case "running empty" `Quick test_running_empty;
          Alcotest.test_case "percentiles" `Quick test_percentiles_exact;
          Alcotest.test_case "reservoir exact when small" `Quick test_reservoir_small_is_exact;
          Alcotest.test_case "reservoir approximates" `Slow test_reservoir_large_approximates;
          Alcotest.test_case "cosine similarity" `Quick test_cosine_similarity;
          Alcotest.test_case "mean_of" `Quick test_stats_mean_of;
        ] );
      ( "timeseries",
        [
          Alcotest.test_case "bucketing" `Quick test_timeseries_bucketing;
          Alcotest.test_case "negative time clamped" `Quick test_timeseries_negative_clamped;
          Alcotest.test_case "last_n pads" `Quick test_timeseries_last_n_padding;
          Alcotest.test_case "range slice" `Quick test_timeseries_range;
          Alcotest.test_case "sum_range" `Quick test_timeseries_sum_range;
          Alcotest.test_case "sparse growth" `Quick test_timeseries_growth;
        ] );
      ( "table",
        [
          Alcotest.test_case "renders" `Quick test_table_renders_aligned;
          Alcotest.test_case "pads short rows" `Quick test_table_pads_short_rows;
          Alcotest.test_case "cell formatting" `Quick test_table_cell_formatting;
        ] );
      ( "json",
        [
          Alcotest.test_case "unterminated string" `Quick test_json_unterminated_string;
          Alcotest.test_case "trailing garbage" `Quick test_json_trailing_garbage;
          Alcotest.test_case "bad literal" `Quick test_json_bad_literal;
          Alcotest.test_case "nested arrays" `Quick test_json_nested_arrays;
          Alcotest.test_case "integer versus float" `Quick test_json_int_vs_float;
          Alcotest.test_case "strings and escapes" `Quick test_json_strings;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
    ]
