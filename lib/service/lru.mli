(** A small string-keyed LRU map with entry- and byte-count bounds.

    Not thread-safe on its own; {!Plan_cache} wraps it in a mutex.
    Eviction scans for the least-recently-used entry, which is linear in
    the live entry count — fine at the few-hundred-entry sizes the plan
    cache is bounded to. *)

type 'a t

val create : max_entries:int -> max_bytes:int -> 'a t
(** Raises [Invalid_argument] when either bound is non-positive. *)

val bytes_of_mb : int -> (int, string) result
(** A megabyte (MiB) bound in bytes, or the message for a count below 1
    or above [max_int / 2^20], where the conversion would wrap.  The
    CLI's [--cache-mb] and [--router-cache-mb] and {!Lcmm_tier.Tier}'s
    router cache share it. *)

val find : 'a t -> string -> 'a option
(** Lookup; a hit refreshes the entry's recency. *)

val add : 'a t -> key:string -> bytes:int -> 'a -> (string * 'a) list
(** Insert (or replace) and return the entries evicted to restore the
    bounds, oldest first.  An entry larger than [max_bytes] by itself is
    stored alone after evicting everything else. *)

val remove : 'a t -> string -> unit

val length : 'a t -> int

val total_bytes : 'a t -> int

val bindings : 'a t -> (string * 'a) list
(** Every resident entry, most recently used first.  Recency is not
    perturbed: a snapshot is not a use.  The tier's graceful drain
    flushes the router cache back to shard owners from this list. *)
