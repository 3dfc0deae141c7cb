(* Packed bitsets over native ints.  Bit [i] of a set lives in word
   [i / word_bits] at position [i mod word_bits]; only the low
   [Sys.int_size - 1] usable bits of each word are populated so every
   word stays a non-negative OCaml immediate. *)

let word_bits = Sys.int_size - 1

type t = { words : int array; width : int }

let create width =
  if width < 0 then invalid_arg "Bitset.create: negative width";
  { words = Array.make ((width + word_bits - 1) / word_bits) 0; width }

let width t = t.width

let check t i =
  if i < 0 || i >= t.width then
    invalid_arg (Printf.sprintf "Bitset: bit %d out of range" i)

let set t i =
  check t i;
  let w = i / word_bits in
  t.words.(w) <- t.words.(w) lor (1 lsl (i mod word_bits))

let clear t i =
  check t i;
  let w = i / word_bits in
  t.words.(w) <- t.words.(w) land lnot (1 lsl (i mod word_bits))

let mem t i =
  check t i;
  t.words.(i / word_bits) land (1 lsl (i mod word_bits)) <> 0

let reset t = Array.fill t.words 0 (Array.length t.words) 0

let copy t = { t with words = Array.copy t.words }

let check_widths name dst src =
  if dst.width <> src.width then
    invalid_arg (Printf.sprintf "Bitset.%s: width mismatch" name)

let copy_into ~dst src =
  check_widths "copy_into" dst src;
  Array.blit src.words 0 dst.words 0 (Array.length src.words)

let union_into ~dst src =
  check_widths "union_into" dst src;
  for w = 0 to Array.length dst.words - 1 do
    dst.words.(w) <- dst.words.(w) lor src.words.(w)
  done

let diff_into ~dst src =
  check_widths "diff_into" dst src;
  for w = 0 to Array.length dst.words - 1 do
    dst.words.(w) <- dst.words.(w) land lnot src.words.(w)
  done

(* Kernighan's trick: one iteration per set bit. *)
let popcount_word x =
  let rec go x acc = if x = 0 then acc else go (x land (x - 1)) (acc + 1) in
  go x 0

let cardinal t = Array.fold_left (fun acc w -> acc + popcount_word w) 0 t.words

let iter f t =
  for w = 0 to Array.length t.words - 1 do
    let word = ref t.words.(w) in
    let base = w * word_bits in
    while !word <> 0 do
      let low = !word land (- !word) in
      f (base + popcount_word (low - 1));
      word := !word land (!word - 1)
    done
  done
