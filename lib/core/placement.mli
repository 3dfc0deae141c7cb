(** Physical placement of the allocation.

    DNNK decides *which* buffers get SRAM; this pass decides *where*:
    each chosen virtual buffer receives a contiguous run of URAM blocks
    (large, byte-writable — first choice for tensor buffers), falling
    back to BRAM36 blocks once URAM is exhausted; the tile buffers claim
    BRAM first, mirroring the reporting convention of the resource model.
    The paper's Table 2 narrates allocations at exactly this granularity
    ("9 of them consuming 32 URAM blocks"). *)

type bank = Uram | Bram

type region = {
  bank : bank;
  first_block : int;  (** Index within the bank. *)
  block_count : int;
}

type assignment = {
  vbuf : Vbuffer.t;
  region : region;
}

type map = {
  assignments : assignment list;   (** In placement order. *)
  uram_blocks_used : int;
  bram_blocks_used : int;          (** Including the tile buffers. *)
}

val place :
  device:Fpga.Device.t -> tile_bytes:int -> Vbuffer.t list ->
  (map, string) result
(** Place the given (chosen) buffers.  Buffers are placed largest-first;
    the error explains which buffer did not fit. *)

val pp : Format.formatter -> map -> unit
(** Human-readable memory map. *)
