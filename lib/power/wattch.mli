(** Structural Wattch-style energy model (Brooks, Tiwari & Martonosi,
    ISCA 2000) for a 0.18um, 1.2GHz process — the power substrate the
    paper plugs into its synthetic trace simulator.

    Like Wattch, per-access energy of each microarchitectural unit is
    derived from the capacitance of its circuit structure:

    - {b array} structures (caches, predictor tables, register file, the
      RUU's RAM): row decoder + wordline + bitlines + sense amps, with
      capacitance scaling in rows, columns and ports;
    - {b CAM} structures (the RUU wakeup logic, LSQ address match,
      TLBs): tag drive lines and match lines;
    - {b complex logic} (ALUs, result buses): per-access constants
      scaled by datapath width.

    The absolute scale is calibrated so a fully
    busy 8-wide Table 2 machine lands in the tens-of-watts regime of the
    paper's Figure 6; all evaluation metrics are ratios, so only
    relative fidelity across units and configurations matters. *)

type geometry = {
  rows : int;
  cols : int;  (** bits per row, including tags *)
  rd_ports : int;
  wr_ports : int;
}

val array_access_energy : geometry -> float
(** Energy (nJ) of one read access to an SRAM array of this geometry. *)

val cam_access_energy : entries:int -> tag_bits:int -> ports:int -> float
(** Energy (nJ) of one associative search. *)

(** Per-access energies (already calibrated) for every unit of a
    machine configuration; consumed by {!Model}. *)

val icache_energy : Config.Machine.t -> float
val dcache_energy : Config.Machine.t -> float
val l2_energy : Config.Machine.t -> float
val bpred_energy : Config.Machine.t -> float
val ruu_energy : Config.Machine.t -> float
(** One RUU interaction: a wakeup CAM match plus a RAM read/write. *)

val lsq_energy : Config.Machine.t -> float
val regfile_energy : Config.Machine.t -> float
val fetch_energy : Config.Machine.t -> float
val dispatch_energy : Config.Machine.t -> float
val issue_energy : Config.Machine.t -> float
val alu_energy : Config.Machine.t -> float
val resultbus_energy : Config.Machine.t -> float
val clock_power : Config.Machine.t -> float
(** Clock-tree maximum per-cycle power, proportional to the summed
    capacitance of the clocked structures. *)
