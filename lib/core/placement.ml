type bank = Uram | Bram

type region = {
  bank : bank;
  first_block : int;
  block_count : int;
}

type assignment = {
  vbuf : Vbuffer.t;
  region : region;
}

type map = {
  assignments : assignment list;
  uram_blocks_used : int;
  bram_blocks_used : int;
}

let place ~device ~tile_bytes vbufs =
  let total = device.Fpga.Device.total in
  let uram_cap = total.Fpga.Resource.uram in
  let bram_cap = total.Fpga.Resource.bram36 in
  (* Tile buffers occupy the low BRAM blocks. *)
  let tile_bram =
    (tile_bytes + Fpga.Resource.bram36_bytes - 1) / Fpga.Resource.bram36_bytes
  in
  if tile_bram > bram_cap then
    Error
      (Printf.sprintf "tile buffers need %d BRAM36 blocks, device has %d"
         tile_bram bram_cap)
  else begin
    let ordered =
      List.stable_sort
        (fun a b -> compare b.Vbuffer.size_bytes a.Vbuffer.size_bytes)
        vbufs
    in
    let uram_cursor = ref 0 in
    let bram_cursor = ref tile_bram in
    let rec assign acc = function
      | [] -> Ok (List.rev acc)
      | vb :: rest ->
        let uram_blocks =
          (vb.Vbuffer.size_bytes + Fpga.Resource.uram_bytes - 1)
          / Fpga.Resource.uram_bytes
        in
        if !uram_cursor + uram_blocks <= uram_cap then begin
          let region =
            { bank = Uram; first_block = !uram_cursor; block_count = uram_blocks }
          in
          uram_cursor := !uram_cursor + uram_blocks;
          assign ({ vbuf = vb; region } :: acc) rest
        end
        else begin
          let bram_blocks =
            (vb.Vbuffer.size_bytes + Fpga.Resource.bram36_bytes - 1)
            / Fpga.Resource.bram36_bytes
          in
          if !bram_cursor + bram_blocks <= bram_cap then begin
            let region =
              { bank = Bram; first_block = !bram_cursor; block_count = bram_blocks }
            in
            bram_cursor := !bram_cursor + bram_blocks;
            assign ({ vbuf = vb; region } :: acc) rest
          end
          else
            Error
              (Printf.sprintf
                 "buffer vbuf%d (%d B) does not fit: URAM %d/%d, BRAM %d/%d"
                 vb.Vbuffer.vbuf_id vb.Vbuffer.size_bytes !uram_cursor uram_cap
                 !bram_cursor bram_cap)
        end
    in
    match assign [] ordered with
    | Error _ as e -> e
    | Ok assignments ->
      Ok
        { assignments;
          uram_blocks_used = !uram_cursor;
          bram_blocks_used = !bram_cursor }
  end

let pp ppf map =
  Format.fprintf ppf "memory map: %d URAM blocks, %d BRAM36 blocks@."
    map.uram_blocks_used map.bram_blocks_used;
  List.iter
    (fun a ->
      Format.fprintf ppf "  %-5s %4d..%4d  %a@."
        (match a.region.bank with Uram -> "URAM" | Bram -> "BRAM")
        a.region.first_block
        (a.region.first_block + a.region.block_count - 1)
        Vbuffer.pp a.vbuf)
    map.assignments
