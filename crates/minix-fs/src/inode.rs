//! MINIX-style i-node encoding: 64 bytes, 7 direct zones, one indirect,
//! one double-indirect (paper §4.1/§5.1).
//!
//! Zone pointers hold store addresses with `0` meaning "no block". The
//! `group` field is the §4.1 extension: "MINIX stores the list identifier
//! in the i-node, so that it can remember the list identifier for each
//! file" (0 = the shared group).

use fsutil::fs::{FileType, Inode, NPTRS};
use fsutil::wire;

/// Encodes into a 64-byte slot: type, link count (always 1), a 32-bit size,
/// mtime, group and zones. A zeroed slot decodes as "free".
pub fn encode(inode: &Inode, slot: &mut [u8]) {
    slot.fill(0);
    slot[0..2].copy_from_slice(&inode.ftype.code().to_le_bytes());
    slot[2..4].copy_from_slice(&1u16.to_le_bytes());
    slot[4..8].copy_from_slice(&(inode.size as u32).to_le_bytes());
    slot[8..12].copy_from_slice(&inode.mtime.to_le_bytes());
    slot[12..16].copy_from_slice(&inode.group.to_le_bytes());
    for (i, z) in inode.ptrs.iter().enumerate() {
        slot[16 + i * 4..20 + i * 4].copy_from_slice(&z.to_le_bytes());
    }
}

/// Decodes a 64-byte slot; `None` when the slot is free.
pub fn decode(slot: &[u8]) -> Option<Inode> {
    let ftype = FileType::from_code(wire::le_u16(slot, 0))?;
    let mut ptrs = [0; NPTRS];
    for (i, z) in ptrs.iter_mut().enumerate() {
        *z = wire::le_u32(slot, 16 + i * 4);
    }
    Some(Inode {
        ftype,
        size: u64::from(wire::le_u32(slot, 4)),
        mtime: wire::le_u32(slot, 8),
        group: wire::le_u32(slot, 12),
        ptrs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsutil::fs::{ptr_path, PtrPath, IND, INODE_SIZE};

    #[test]
    fn encode_decode_roundtrip() {
        let mut ino = Inode::new(FileType::Dir, 5, 1234);
        ino.size = 8192;
        ino.ptrs[0] = 17;
        ino.ptrs[IND] = 99;
        let mut slot = [0u8; INODE_SIZE];
        encode(&ino, &mut slot);
        assert_eq!(decode(&slot), Some(ino));
    }

    #[test]
    fn zeroed_slot_is_free() {
        assert_eq!(decode(&[0u8; INODE_SIZE]), None);
    }

    #[test]
    fn zone_path_partitions_the_index_space() {
        // MINIX's 4 KB blocks hold 1024 zone pointers.
        let ppb = 1024;
        assert_eq!(ptr_path(0, ppb), Some(PtrPath::Direct(0)));
        assert_eq!(ptr_path(6, ppb), Some(PtrPath::Direct(6)));
        assert_eq!(ptr_path(7, ppb), Some(PtrPath::Indirect(0)));
        assert_eq!(ptr_path(7 + 1023, ppb), Some(PtrPath::Indirect(1023)));
        assert_eq!(ptr_path(7 + 1024, ppb), Some(PtrPath::Double(0, 0)));
        assert_eq!(
            ptr_path(7 + 1024 + 1024 * 5 + 3, ppb),
            Some(PtrPath::Double(5, 3))
        );
        let max = 7 + 1024 + 1024 * 1024;
        assert!(ptr_path(max as u64, ppb).is_none());
    }

    #[test]
    fn max_file_size_covers_the_benchmarks() {
        // 80 MB (Table 5) needs 20480 4-KB blocks — comfortably inside the
        // direct + indirect range.
        assert!(matches!(
            ptr_path(20_480, 1024),
            Some(PtrPath::Double(_, _))
        ));
    }
}
