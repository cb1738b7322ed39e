let sb_size = 4096
let page_size = 4096
let inode_size = 128
let desc_size = 64
let dentry_size = 128
let name_max = 110
let dentries_per_page = page_size / dentry_size
let root_ino = 1

type t = {
  device_size : int;
  inode_count : int;
  page_count : int;
  inode_table_off : int;
  page_desc_off : int;
  data_off : int;
}

(* One inode (128 B) per group of four pages (4 x (4096 + 64) B). *)
let group_bytes = inode_size + (4 * (page_size + desc_size))

let compute ~device_size =
  let usable = device_size - sb_size in
  let groups = usable / group_bytes in
  if groups < 2 then
    invalid_arg "Layout.Geometry.compute: device too small (need >= 64 KiB)";
  let rec fit groups =
    let inode_count = groups and page_count = groups * 4 in
    let inode_table_off = sb_size in
    let page_desc_off = inode_table_off + (inode_count * inode_size) in
    let raw_data_off = page_desc_off + (page_count * desc_size) in
    let data_off = (raw_data_off + page_size - 1) / page_size * page_size in
    if data_off + (page_count * page_size) <= device_size then
      {
        device_size;
        inode_count;
        page_count;
        inode_table_off;
        page_desc_off;
        data_off;
      }
    else fit (groups - 1)
  in
  fit groups

let inode_off t ~ino =
  if ino < 1 || ino > t.inode_count then
    invalid_arg (Printf.sprintf "Layout.Geometry.inode_off: bad ino %d" ino);
  t.inode_table_off + ((ino - 1) * inode_size)

let desc_off t ~page =
  if page < 0 || page >= t.page_count then
    invalid_arg (Printf.sprintf "Layout.Geometry.desc_off: bad page %d" page);
  t.page_desc_off + (page * desc_size)

let page_off t ~page =
  if page < 0 || page >= t.page_count then
    invalid_arg (Printf.sprintf "Layout.Geometry.page_off: bad page %d" page);
  t.data_off + (page * page_size)

let dentry_off t ~page ~slot =
  if slot < 0 || slot >= dentries_per_page then
    invalid_arg (Printf.sprintf "Layout.Geometry.dentry_off: bad slot %d" slot);
  page_off t ~page + (slot * dentry_size)

let dentry_loc_of_off t off =
  if off < t.data_off || off >= t.data_off + (t.page_count * page_size) then
    invalid_arg "Layout.Geometry.dentry_loc_of_off: not a dentry offset";
  let rel = off - t.data_off in
  (rel / page_size, rel mod page_size / dentry_size)

let dentry_loc_opt t off =
  if
    off >= t.data_off
    && off < t.data_off + (t.page_count * page_size)
    && (off - t.data_off) mod dentry_size = 0
  then Some (dentry_loc_of_off t off)
  else None
