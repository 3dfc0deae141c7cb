(** Formatted reports and CSV export.

    The CLI and the bench harness share these renderers so their output
    stays consistent and testable: a Table-1-style comparison table and
    CSV series (design-space points, comparisons) for external
    plotting. *)

val comparison_row : Framework.comparison -> string
(** One aligned row: model, precision, UMM and LCMM latency/Tops,
    utilizations, speedup. *)

val comparison_header : string
(** Column header matching {!comparison_row}. *)

val csv_of_comparisons :
  ?fusion_ms:(Framework.comparison -> float option) ->
  Framework.comparison list -> string
(** RFC-4180-style CSV (header + one line per comparison).  When
    [fusion_ms] is given, a trailing [fusion_ms] column is appended
    after every pre-existing field — header stays backward-compatible
    for positional consumers — holding the fused-plan latency in
    milliseconds (empty cell when the callback returns [None]). *)

val csv_of_design_points : Design_space.point list -> string
(** CSV of (mask, sram_bytes, latency_ms, tops) — the paper's Fig. 2(b)
    scatter, ready for plotting. *)

val write_text_file : path:string -> string -> unit
