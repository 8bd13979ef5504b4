(* The host-drift probe: a fixed amount of work that calls nothing in
   the simulator and never allocates in the major heap once its buffers
   exist. A sample re-reads its 8 MiB buffer (so whatever ran before it
   does not change its cost), then times xorshift walks over it and over
   a 32 KiB buffer that allocate one short-lived minor-heap tuple every
   4th step. The big buffer outgrows L2, so that walk runs out of L3: on
   the reference host, run-to-run drift lives in the shared cache and
   memory system, which an L2-resident probe does not see.

   The probe runs in a helper process of its own ([serve] below), so its
   buffer adds nothing to the measured process's heap or resident set. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type t = { big : int array; small : int array }

let create () = { big = Array.make (1 lsl 20) 0 (* 8 MiB *); small = Array.make 4096 0 }

let touch t =
  let s = ref 0 in
  Array.iter (fun v -> s := !s + v) t.big;
  !s

let walk buf ~steps =
  let mask = Array.length buf - 1 in
  let x = ref 0x2545F491 in
  let acc = ref 0 in
  for i = 1 to steps do
    (* xorshift index: a data-dependent walk the prefetcher cannot hide *)
    x := !x lxor ((!x lsl 13) land 0xFFFFFFFF);
    x := !x lxor (!x lsr 17);
    x := !x lxor ((!x lsl 5) land 0xFFFFFFFF);
    let j = !x land mask in
    buf.(j) <- buf.(j) + i;
    if i land 3 = 0 then begin
      let pair = Sys.opaque_identity (j, !acc) in
      acc := fst pair + snd pair
    end
    else acc := !acc + (buf.(j) land 7)
  done;
  !acc

(* The L3 walk alone moved more than the workloads did: their speed
   followed it with an elasticity of 0.64-0.98 (mean 0.82). A cache-
   resident walk worth about a fifth of the time tempers it to match. *)
let work t = walk t.big ~steps:200_000 + walk t.small ~steps:200_000

(* One timed probe, in milliseconds. *)
let sample t =
  ignore (Sys.opaque_identity (touch t));
  Gc.minor ();
  let t0 = now_ns () in
  ignore (Sys.opaque_identity (work t));
  float_of_int (now_ns () - t0) /. 1e6

(* The helper process's loop: one sample per byte read from stdin, its
   time printed as a line; exits at end of input. The first sample of a
   process runs slow, so one is taken and discarded up front. *)
let serve () =
  let t = create () in
  ignore (sample t);
  try
    while true do
      ignore (input_char stdin);
      Printf.printf "%.6f\n%!" (sample t)
    done
  with End_of_file -> ()

(* The measuring side: a running helper process. *)
type client = { ic : in_channel; oc : out_channel }

let start ~exe ~args =
  let ic, oc = Unix.open_process_args exe args in
  { ic; oc }

let request c =
  output_char c.oc 'p';
  flush c.oc;
  float_of_string (input_line c.ic)

let stop c = ignore (Unix.close_process (c.ic, c.oc))
