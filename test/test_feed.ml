(* Feed.Ring: the rewind window the EDS feed uses to re-play squashed
   positions pulled from a producer. The ring assigns slots; the items
   live in the caller's storage. *)

module Ring = Uarch.Feed.Ring

(* position i is i, written into the slot the ring assigns *)
let counter_ring ?(window = 16384) n =
  let items = Array.make window (-1) in
  let i = ref 0 in
  let r =
    Ring.create ~window (fun slot ->
        Alcotest.(check int) "producer told the slot" (!i mod window) slot;
        if !i >= n then false
        else begin
          items.(slot) <- !i;
          incr i;
          true
        end)
  in
  (r, fun j -> items.(Ring.index r j))

let test_sequential () =
  let _, get = counter_ring 100 in
  for i = 0 to 99 do
    Alcotest.(check int) "get i" i (get i)
  done

let test_past_end () =
  let r, get = counter_ring 10 in
  Alcotest.(check bool) "end" false (Ring.mem r 10);
  Alcotest.(check bool) "far past end" false (Ring.mem r 1_000);
  Alcotest.check_raises "get past end"
    (Invalid_argument "Feed.Ring.index: index past the end") (fun () ->
      ignore (get 10));
  (* the producer is exhausted, earlier reads still work *)
  Alcotest.(check int) "replay" 9 (get 9)

let test_replay_within_window () =
  let _, get = counter_ring ~window:8 100 in
  Alcotest.(check int) "first read" 20 (get 20);
  (* indices (20-8, 20] remain readable, in any order *)
  Alcotest.(check int) "replay 13" 13 (get 13);
  Alcotest.(check int) "replay 20" 20 (get 20)

let test_negative_index () =
  let _, get = counter_ring 10 in
  Alcotest.check_raises "negative"
    (Invalid_argument "Feed.Ring: negative index") (fun () -> ignore (get (-1)))

let test_slid_out_of_window () =
  let r, get = counter_ring ~window:4 100 in
  Alcotest.(check int) "advance" 9 (get 9);
  (* produced = 10, window = 4: indices < 6 have been overwritten *)
  Alcotest.check_raises "slid out"
    (Invalid_argument "Feed.Ring.index: index slid out of window") (fun () ->
      ignore (get 5));
  Alcotest.(check int) "oldest kept" 6 (get 6);
  Alcotest.(check int) "slot wraps" 1 (Ring.index r 9)

let suite =
  [
    Alcotest.test_case "sequential reads" `Quick test_sequential;
    Alcotest.test_case "None past end" `Quick test_past_end;
    Alcotest.test_case "replay within window" `Quick test_replay_within_window;
    Alcotest.test_case "negative index raises" `Quick test_negative_index;
    Alcotest.test_case "slid-out index raises" `Quick test_slid_out_of_window;
  ]
