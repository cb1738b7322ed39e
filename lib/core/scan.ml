module Device = Pmem.Device
module Geometry = Layout.Geometry

(* Span-driven iteration over the on-PM object tables.

   [Device.backed_spans] lists the byte ranges a store has ever touched;
   everything outside them is durably zero with nothing in flight, so a
   record there is neither allocated nor garbage and a scan may skip it.
   Table records never straddle a backing-chunk boundary (the record
   sizes divide the chunk size and both tables start record-aligned), so
   each record lies inside exactly one span and the ascending, disjoint
   span list visits every backed record exactly once, in index order.
   A scan therefore costs O(backed records) at every volume size: an
   unbacked record is never read, so it charges no simulated time. *)
let iter_objects dev ~table_off ~obj_size ~first ~last f =
  if last >= first then begin
    let table_end = table_off + ((last - first + 1) * obj_size) in
    List.iter
      (fun (off, len) ->
        let hi = off + len - 1 in
        if hi >= table_off && off < table_end then begin
          let i0 = first + ((max off table_off - table_off) / obj_size) in
          let i1 = first + ((min hi (table_end - 1) - table_off) / obj_size) in
          for i = i0 to i1 do
            f i
          done
        end)
      (Device.backed_spans dev)
  end

let inodes dev (geo : Geometry.t) f =
  iter_objects dev ~table_off:geo.inode_table_off ~obj_size:Geometry.inode_size
    ~first:1 ~last:geo.inode_count f

let pages dev (geo : Geometry.t) f =
  iter_objects dev ~table_off:geo.page_desc_off ~obj_size:Geometry.desc_size
    ~first:0 ~last:(geo.page_count - 1) f
