(** The plan service's line-delimited JSON request protocol.

    One request per line, one response per line (see {!Dnn_serial.Wire}
    for the response envelope).  Grammar, informally:

    {v
    request   := { "op": op, "id"?: json, "deadline_ms"?: number > 0,
                   ...op-fields }
    op        := "compile" | "simulate" | "run" | "batch" | "stats"
               | "models" | "cache_get" | "cache_put"
    compile   := target, "dtype"?: "i8"|"i16"|"f32",
                 "device"?: name, "options"?: options
    simulate  := compile-fields, "images"?: int >= 1
    run       := "tenants": [ tenant+ ], "dtype"?, "device"?, "options"?,
                 "arbitration"?: "fair"|"priority",
                 "scheduler"?: "greedy"|"edf",
                 "partition"?: "equal"|"demand",
                 "overcommit"?: number > 0,
                 "faults"?: fault-spec string ({!Fault.Spec.of_string})
    tenant    := target, "count"?: int >= 1, "priority"?: int,
                 "arrival_s"?: number >= 0  |  "arrival_ms"?: number >= 0
    batch     := "requests": [ request* ]     (no nested batches)
    cache_get := "digest": lowercase-hex     (plan-cache probe)
    cache_put := "digest": lowercase-hex, "payload": json
    target    := "model": zoo-name  |  "graph": codec-document
    options   := { "feature_reuse"?, "weight_prefetch"?,
                   "buffer_splitting"?, "buffer_sharing"?,
                   "memory_bound_only"?: bool,
                   "compensation"?: "table"|"exact",
                   "coloring"?: "min_growth"|"first_fit",
                   "capacity_override"?: int|null,
                   "weight_slices"?: int }
    v}

    Defaults: dtype [i16], device [vu9p], the paper's
    {!Lcmm.Framework.default_options}. *)

type target =
  | Named of string                 (** A model-zoo name. *)
  | Inline of Dnn_graph.Graph.t    (** A graph shipped in the request. *)

type compile_spec = {
  target : target;
  dtype : Tensor.Dtype.t;
  device : Fpga.Device.t;
  options : Lcmm.Framework.options;
}

type run_tenant = {
  tenant_target : target;
  count : int;            (** Replicas of this model (default 1). *)
  tenant_priority : int;  (** Lower = more important (default 0). *)
  arrival_s : float;      (** Arrival offset in seconds (default 0). *)
}

type run_spec = {
  tenants : run_tenant list;  (** Non-empty. *)
  run_dtype : Tensor.Dtype.t;
  run_device : Fpga.Device.t;
  arbitration : Lcmm_runtime.Arbiter.t;
  scheduler : Lcmm_runtime.Scheduler.t;
  sram_partition : Lcmm_runtime.Partition.policy;
  overcommit : float;
  run_channels : int;
      (** DDR channels the runtime engine schedules over (default 1 —
          the aggregate fluid-bus model; only off-default values are
          encoded or digested, keeping pre-channel digests intact). *)
  run_options : Lcmm.Framework.options;
  faults : Fault.Spec.t option;
      (** Seeded fault injection for the board run; [None] (or an
          all-quiet spec, which is normalised away) runs the bit-exact
          fault-free engine. *)
}

type request =
  | Compile of compile_spec
  | Simulate of compile_spec * int option  (** Optional batch size. *)
  | Run of run_spec                        (** Multi-tenant board run. *)
  | Batch of envelope list
  | Stats
  | Models
  | Cache_get of string
      (** Probe the shard-local plan cache by digest; answers with the
          cached payload or a ["not cached: <digest>"] error.  Used by
          the tier router's peer-fill path. *)
  | Cache_put of string * Dnn_serial.Json.t
      (** Seed the shard-local plan cache with a payload computed
          elsewhere (the other half of peer fill). *)

and envelope = {
  id : Dnn_serial.Json.t option;  (** Echoed verbatim in the response. *)
  deadline_ms : float option;
      (** Per-request compute budget; exceeding it turns the response
          into a structured deadline error instead of an open-ended
          stall. *)
  checksum : bool;
      (** Request end-to-end integrity: the engine adds a ["sum"] digest
          of the compact result payload to the response.  Set by the
          tier router on forwarded requests so corrupted shard replies
          are detectable; defaults to [false], leaving direct-client
          responses byte-identical. *)
  request : request;
}

val target_name : target -> string
(** The zoo name, or ["<inline>"] for shipped graphs. *)

val op_name : request -> string

val request_of_line : string -> (envelope, string) result

val options_to_json : Lcmm.Framework.options -> Dnn_serial.Json.t
(** Inverse of the [options] grammar above, for transcripts and
    debugging; {!request_of_line} accepts its output. *)

val envelope_to_json : envelope -> Dnn_serial.Json.t
(** Inverse of {!request_of_line}, used by the tier router to forward a
    parsed envelope to a backend shard.  The round-trip is exact: the
    re-parsed envelope computes the same cache digests as the original
    (tenant arrivals travel as the verbatim [arrival_s] field). *)
