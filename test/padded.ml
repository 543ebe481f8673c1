(* A program with every global's zero tail written out: [ginit] padded
   with +0.0 up to [gsize].  It is the same memory image as the trimmed
   form [Lower] builds, and it is the form earlier versions lowered every
   global to, so its digest is the key those versions wrote into result
   caches and trace stores. *)

let program (p : Mira.Ir.program) : Mira.Ir.program =
  let pad (g : Mira.Ir.global) =
    let a = Array.make g.Mira.Ir.gsize 0.0 in
    Array.blit g.Mira.Ir.ginit 0 a 0 (Array.length g.Mira.Ir.ginit);
    { g with Mira.Ir.ginit = a }
  in
  { p with Mira.Ir.globals = List.map pad p.Mira.Ir.globals }
