let canonical g = Dnn_serial.Codec.to_string ~pretty:false g

(* The MD5 input is assembled in one spare buffer that every domain and
   thread takes by [Atomic.exchange] and hands back after hashing: no
   per-request concatenation, which for a zoo-sized graph is a ~30 KB
   string allocated straight into the major heap.  A caller that finds
   the spare taken, or whose input outgrows it, hashes in a buffer of
   its own.  The spare grows to the largest input seen up to
   [scratch_limit], so an oversized inline graph cannot pin memory. *)
let scratch_limit = 256 * 1024

let spare : Bytes.t option Atomic.t = Atomic.make None

let hash parts =
  let len =
    max 0 (List.fold_left (fun n s -> n + 1 + String.length s) (-1) parts)
  in
  let pooled = len <= scratch_limit in
  let buf =
    match if pooled then Atomic.exchange spare None else None with
    | Some b when Bytes.length b >= len -> b
    | Some _ | None -> Bytes.create len
  in
  let pos = ref 0 in
  List.iteri
    (fun i s ->
      if i > 0 then begin
        Bytes.set buf !pos '\x00';
        incr pos
      end;
      Bytes.blit_string s 0 buf !pos (String.length s);
      pos := !pos + String.length s)
    parts;
  let d = Digest.subbytes buf 0 len in
  if pooled then Atomic.set spare (Some buf);
  Digest.to_hex d

let request_digest_of_canonical ?(extra = []) ~dtype ~device ~options bytes =
  hash
    (bytes
    :: Tensor.Dtype.to_string dtype
    :: device.Fpga.Device.device_name
    :: Protocol.options_key options :: extra)

let request_digest ?extra ~dtype ~device ~options g =
  request_digest_of_canonical ?extra ~dtype ~device ~options (canonical g)

let run_digest_of_canonical ?(extra = []) ~dtype ~device ~options tenants =
  hash
    (Tensor.Dtype.to_string dtype
     :: device.Fpga.Device.device_name
     :: Protocol.options_key options
     :: extra
    @ List.concat_map (fun (bytes, tag) -> [ tag; bytes ]) tenants)
