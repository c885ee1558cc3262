//! Tests for the Sprite-LFS comparator.

use simdisk::MemDisk;

use crate::fsops::LfsError;
use crate::log::{LfsConfig, SpriteLfs, BLOCK, ROOT_INO};

fn lfs() -> SpriteLfs<MemDisk> {
    SpriteLfs::format(
        MemDisk::with_capacity(16 << 20),
        LfsConfig::small_for_tests(),
    )
    .unwrap()
}

fn pattern(seed: u8) -> Vec<u8> {
    (0..BLOCK)
        .map(|i| (i as u8).wrapping_mul(7) ^ seed)
        .collect()
}

#[test]
fn create_lookup_delete() {
    let mut fs = lfs();
    let a = fs.create("alpha").unwrap();
    let b = fs.create("beta").unwrap();
    assert_ne!(a, b);
    assert_eq!(fs.lookup("alpha").unwrap(), Some(a));
    assert_eq!(fs.create("alpha"), Err(LfsError::Exists));
    fs.delete("alpha").unwrap();
    assert_eq!(fs.lookup("alpha").unwrap(), None);
    assert_eq!(fs.delete("alpha"), Err(LfsError::NotFound));
    // The i-node number is reusable.
    let c = fs.create("gamma").unwrap();
    assert_eq!(c, a);
}

#[test]
fn write_read_roundtrip_direct_and_indirect() {
    let mut fs = lfs();
    let f = fs.create("f").unwrap();
    // Direct range (10 blocks) and into the indirect range.
    for i in 0..30u64 {
        fs.write_block(f, i, &pattern(i as u8)).unwrap();
    }
    fs.flush().unwrap();
    for i in 0..30u64 {
        let mut buf = vec![0u8; BLOCK];
        fs.read_block(f, i, &mut buf).unwrap();
        assert_eq!(buf, pattern(i as u8), "block {i}");
    }
    assert_eq!(fs.file_size(f).unwrap(), 30 * BLOCK as u64);
}

#[test]
fn double_indirect_range_works() {
    let mut fs = SpriteLfs::format(
        MemDisk::with_capacity(64 << 20),
        LfsConfig {
            segment_blocks: 64,
            ninodes: 128,
        },
    )
    .unwrap();
    let f = fs.create("huge").unwrap();
    let idx = 10 + 1024 + 7; // Into the double-indirect range.
    fs.write_block(f, idx, &pattern(0x55)).unwrap();
    fs.flush().unwrap();
    let mut buf = vec![0u8; BLOCK];
    fs.read_block(f, idx, &mut buf).unwrap();
    assert_eq!(buf, pattern(0x55));
    // Hole before it reads zero.
    fs.read_block(f, 10, &mut buf).unwrap();
    assert!(buf.iter().all(|&b| b == 0));
}

#[test]
fn overwrite_cascades_into_metadata_counters() {
    // The crux of Table 6: overwriting blocks in the indirect range costs
    // indirect-block writes in Sprite.
    let mut fs = lfs();
    let f = fs.create("f").unwrap();
    for i in 0..20u64 {
        fs.write_block(f, i, &pattern(1)).unwrap();
    }
    fs.flush().unwrap();
    fs.reset_counters();
    // Overwrite a block in the indirect range, then flush.
    fs.write_block(f, 15, &pattern(2)).unwrap();
    fs.flush().unwrap();
    let c = fs.counters();
    assert_eq!(c.data_blocks, 1);
    assert!(
        c.indirect_blocks >= 1,
        "overwrite in the indirect range must rewrite the indirect block"
    );
    assert!(c.inode_blocks >= 1, "and the i-node is dirty too");
}

#[test]
fn direct_overwrite_has_no_indirect_cost() {
    let mut fs = lfs();
    let f = fs.create("f").unwrap();
    fs.write_block(f, 0, &pattern(1)).unwrap();
    fs.flush().unwrap();
    fs.reset_counters();
    fs.write_block(f, 0, &pattern(2)).unwrap();
    fs.flush().unwrap();
    let c = fs.counters();
    assert_eq!(c.data_blocks, 1);
    assert_eq!(c.indirect_blocks, 0);
}

#[test]
fn dirty_inodes_share_inode_blocks() {
    // ε is small because many dirty i-nodes pack into one block.
    let mut fs = lfs();
    for i in 0..20 {
        fs.create(&format!("f{i}")).unwrap();
    }
    fs.flush().unwrap();
    let c = fs.counters();
    assert!(c.dirty_inodes_flushed >= 20);
    assert!(
        c.inode_blocks <= 2,
        "20 dirty i-nodes should pack into at most 2 blocks, got {}",
        c.inode_blocks
    );
}

#[test]
fn checkpoint_and_recover_restores_state() {
    let mut fs = lfs();
    let f = fs.create("keep").unwrap();
    for i in 0..5u64 {
        fs.write_block(f, i, &pattern(i as u8)).unwrap();
    }
    fs.checkpoint().unwrap();

    let disk = fs.into_disk();
    let mut fs = SpriteLfs::recover(disk, LfsConfig::small_for_tests()).unwrap();
    assert_eq!(fs.lookup("keep").unwrap(), Some(f));
    for i in 0..5u64 {
        let mut buf = vec![0u8; BLOCK];
        fs.read_block(f, i, &mut buf).unwrap();
        assert_eq!(buf, pattern(i as u8));
    }
}

#[test]
fn roll_forward_recovers_past_checkpoint() {
    let mut fs = lfs();
    let f = fs.create("early").unwrap();
    fs.write_block(f, 0, &pattern(1)).unwrap();
    fs.checkpoint().unwrap();
    // Work after the checkpoint, flushed (durable) but not checkpointed.
    let g = fs.create("late").unwrap();
    fs.write_block(g, 0, &pattern(2)).unwrap();
    fs.write_block(f, 0, &pattern(3)).unwrap();
    fs.delete("early").unwrap();
    fs.flush().unwrap();

    let disk = fs.into_disk();
    let mut fs = SpriteLfs::recover(disk, LfsConfig::small_for_tests()).unwrap();
    // 'late' was created after the checkpoint and must be recovered by
    // roll-forward; 'early' was deleted after the checkpoint.
    assert_eq!(fs.lookup("late").unwrap(), Some(g));
    assert_eq!(fs.lookup("early").unwrap(), None);
    let mut buf = vec![0u8; BLOCK];
    fs.read_block(g, 0, &mut buf).unwrap();
    assert_eq!(buf, pattern(2));
}

#[test]
fn unflushed_tail_lost_after_crash() {
    let mut fs = lfs();
    let f = fs.create("durable").unwrap();
    fs.write_block(f, 0, &pattern(1)).unwrap();
    fs.flush().unwrap();
    // Not flushed:
    let _g = fs.create("volatile").unwrap();
    fs.write_block(f, 0, &pattern(9)).unwrap();

    let disk = fs.into_disk();
    let mut fs = SpriteLfs::recover(disk, LfsConfig::small_for_tests()).unwrap();
    assert_eq!(fs.lookup("volatile").unwrap(), None);
    let mut buf = vec![0u8; BLOCK];
    let ino = fs.lookup("durable").unwrap().unwrap();
    fs.read_block(ino, 0, &mut buf).unwrap();
    assert_eq!(buf, pattern(1));
}

#[test]
fn root_directory_grows() {
    let mut fs = lfs();
    // 4096/32 = 128 entries per block; create enough to grow the dir.
    for i in 0..150 {
        fs.create(&format!("file-{i:04}")).unwrap();
    }
    fs.flush().unwrap();
    assert!(fs.file_size(ROOT_INO).unwrap() >= 2 * BLOCK as u64);
    assert!(fs.lookup("file-0149").unwrap().is_some());
}
