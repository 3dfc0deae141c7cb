(** The content-addressed plan cache.

    Maps a {!Cache_key} digest to the JSON payload of a finished
    compilation (a plan summary, a simulation report, ...).  An entry is
    the payload's compact rendering ({!Dnn_serial.Json.compact}), not its
    tree, and a lookup answers with that rendering as a
    {!Dnn_serial.Json.Raw}: a hit replies with the stored text and
    renders nothing.  Entries are
    bounded by count and by total serialized bytes with LRU eviction;
    with a [persist_dir] every stored payload is also written to
    [<dir>/<digest>.json], and a miss in memory falls back to the
    directory — so a restarted service rewarms from disk.

    Persisted entries are written atomically (unique temp file, then
    rename) and wrapped in a checksummed envelope; a file that fails to
    parse or verify on load — truncated by a crash, bit-flipped,
    hand-edited — is quarantined to [<entry>.corrupt] and treated as a
    miss, never served.

    All operations are thread-safe: the cache is shared by every worker
    domain of the pool. *)

type t

type stats = {
  entries : int;
  bytes : int;          (** Serialized size of the in-memory payloads. *)
  hits : int;
  misses : int;
  evictions : int;
  disk_loads : int;     (** Misses answered from the persist directory. *)
  quarantined : int;    (** Corrupt persisted entries moved aside. *)
}

val create :
  ?max_entries:int -> ?max_bytes:int -> ?persist_dir:string -> unit -> t
(** Defaults: 256 entries, 64 MB.  The persist directory is created when
    missing; unreadable or corrupt persisted entries are treated as
    misses. *)

val find : t -> string -> Dnn_serial.Json.t option
(** Lookup by digest; counts a hit or a miss.  A found payload, from
    memory or from the persist directory, is a [Raw]. *)

val put : t -> string -> Dnn_serial.Json.t -> unit
(** Render the payload once and store the rendering; a [Raw] payload is
    stored as it is, without a render. *)

val stats : t -> stats

val stats_json : t -> Dnn_serial.Json.t
