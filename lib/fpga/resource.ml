type t = { dsp : int; bram36 : int; uram : int; luts : int }

let make ?(dsp = 0) ?(bram36 = 0) ?(uram = 0) ?(luts = 0) () =
  if dsp < 0 || bram36 < 0 || uram < 0 || luts < 0 then
    invalid_arg "Resource.make: negative component";
  { dsp; bram36; uram; luts }

let add a b =
  { dsp = a.dsp + b.dsp;
    bram36 = a.bram36 + b.bram36;
    uram = a.uram + b.uram;
    luts = a.luts + b.luts }

let scale k a =
  { dsp = k * a.dsp; bram36 = k * a.bram36; uram = k * a.uram; luts = k * a.luts }

let fits a ~within =
  a.dsp <= within.dsp && a.bram36 <= within.bram36 && a.uram <= within.uram
  && a.luts <= within.luts

let ratio used total = if total = 0 then 0. else float_of_int used /. float_of_int total

let utilization a ~total =
  [ ("dsp", ratio a.dsp total.dsp);
    ("bram", ratio a.bram36 total.bram36);
    ("uram", ratio a.uram total.uram);
    ("luts", ratio a.luts total.luts) ]

(* One BRAM36 holds 36 Kib of which 4 Kib are parity; designs use 4 KiB of
   data payload.  One URAM block holds 288 Kib = 36 KiB with no separate
   parity, but 32 KiB is the usable payload at byte-write granularity. *)
let bram36_bytes = 4 * 1024

let uram_bytes = 32 * 1024

let sram_bytes a = (a.bram36 * bram36_bytes) + (a.uram * uram_bytes)

let pp ppf a =
  Format.fprintf ppf "{dsp=%d; bram36=%d; uram=%d; luts=%d}" a.dsp a.bram36 a.uram a.luts
