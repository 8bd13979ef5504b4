(* Feed.Ring: the one rewind window both simulator feeds use to re-play
   squashed positions, pulled from a producer or wrapped around an
   already-built array. *)

module Ring = Uarch.Feed.Ring

(* position i is i; the producer is told the slot each item takes *)
let counter_ring ?(window = 16384) n =
  let i = ref 0 in
  Ring.create ~window (fun slot ->
      Alcotest.(check int) "producer told the slot" (!i mod window) slot;
      if !i >= n then None
      else begin
        incr i;
        Some (!i - 1)
      end)

let test_sequential () =
  let r = counter_ring 100 in
  for i = 0 to 99 do
    Alcotest.(check int) "get i" i (Ring.get r i)
  done

let test_past_end () =
  let r = counter_ring 10 in
  Alcotest.(check bool) "end" false (Ring.mem r 10);
  Alcotest.(check bool) "far past end" false (Ring.mem r 1_000);
  Alcotest.check_raises "get past end"
    (Invalid_argument "Feed.Ring.get: index past the end") (fun () ->
      ignore (Ring.get r 10));
  (* the producer is exhausted, earlier reads still work *)
  Alcotest.(check int) "replay" 9 (Ring.get r 9)

let test_replay_within_window () =
  let r = counter_ring ~window:8 100 in
  Alcotest.(check int) "first read" 20 (Ring.get r 20);
  (* indices (20-8, 20] remain readable, in any order *)
  Alcotest.(check int) "replay 13" 13 (Ring.get r 13);
  Alcotest.(check int) "replay 20" 20 (Ring.get r 20)

let test_negative_index () =
  let r = counter_ring 10 in
  Alcotest.check_raises "negative"
    (Invalid_argument "Feed.Ring: negative index") (fun () ->
      ignore (Ring.get r (-1)))

let test_slid_out_of_window () =
  let r = counter_ring ~window:4 100 in
  Alcotest.(check int) "advance" 9 (Ring.get r 9);
  (* produced = 10, window = 4: indices < 6 have been overwritten *)
  Alcotest.check_raises "slid out"
    (Invalid_argument "Feed.Ring.get: index slid out of window") (fun () ->
      ignore (Ring.get r 5));
  Alcotest.(check int) "oldest kept" 6 (Ring.get r 6);
  Alcotest.(check int) "slot wraps" 1 (Ring.slot r 9)

(* a materialized array: every position readable, nothing pulled, and
   each position is its own slot *)
let test_array_form () =
  let a = Array.init 10 (fun i -> i * i) in
  let r = Ring.of_array a in
  Alcotest.(check int) "get 0" 0 (Ring.get r 0);
  Alcotest.(check int) "get 9" 81 (Ring.get r 9);
  Alcotest.(check bool) "past end" false (Ring.mem r 10);
  Alcotest.(check int) "own slot" 7 (Ring.slot r 7);
  Alcotest.(check int) "rewind to 0" 0 (Ring.get r 0)

let suite =
  [
    Alcotest.test_case "sequential reads" `Quick test_sequential;
    Alcotest.test_case "None past end" `Quick test_past_end;
    Alcotest.test_case "replay within window" `Quick test_replay_within_window;
    Alcotest.test_case "negative index raises" `Quick test_negative_index;
    Alcotest.test_case "slid-out index raises" `Quick test_slid_out_of_window;
    Alcotest.test_case "array form" `Quick test_array_form;
  ]
