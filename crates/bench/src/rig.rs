//! The paper's test rig (§4.2), reconstructed: a 400 MB partition of an
//! HP C3010 behind each of the three file systems.
//!
//! - MINIX and MINIX LLD use 4 KB blocks and a static 6,144 KB buffer
//!   cache; LLD uses 0.5 MB segments.
//! - MINIX ran as a *user-level* process over SunOS raw-disk syscalls,
//!   SunOS in-kernel — modeled as a higher per-call CPU cost for the MINIX
//!   variants.

use ffs::{Ffs, FfsConfig};
use minix_fs::{FsConfig, FsCpuModel, InodeMode, LdStore, MinixFs, RawStore};
use simdisk::SimDisk;

/// Partition size used throughout §4.2.
pub const PARTITION_BYTES: u64 = 400 << 20;

/// Fresh paper-rig disk.
pub fn disk() -> SimDisk {
    SimDisk::hp_c3010_with_capacity(PARTITION_BYTES)
}

/// Fresh disk of a custom size (for quick runs).
pub fn disk_sized(bytes: u64) -> SimDisk {
    SimDisk::hp_c3010_with_capacity(bytes)
}

/// LLD configured as in §4.2: 0.5 MB segments, 4 KB blocks.
pub fn lld_config() -> lld::LldConfig {
    lld::LldConfig::default()
}

/// MINIX file-system configuration (both variants): 6,144 KB cache.
/// The per-call CPU cost models the user-level process + pipe overhead.
pub fn minix_config() -> FsConfig {
    FsConfig {
        ninodes: 16384,
        cache_bytes: 6144 << 10,
        inode_mode: InodeMode::Packed,
        cpu: FsCpuModel {
            per_call_us: 150,
            per_block_us: 60,
        },
    }
}

/// SunOS/FFS configuration: 8 KB blocks, in-kernel (lower CPU cost).
pub fn ffs_config() -> FfsConfig {
    FfsConfig::default()
}

/// Builds plain MINIX (update-in-place store) on a fresh rig disk.
pub fn minix(bytes: u64) -> MinixFs<RawStore<SimDisk>> {
    let store = RawStore::format(disk_sized(bytes)).expect("format raw store");
    MinixFs::format(store, minix_config()).expect("format MINIX")
}

/// Builds MINIX LLD on a fresh rig disk.
pub fn minix_lld(bytes: u64) -> MinixFs<LdStore<SimDisk>> {
    minix_lld_with(bytes, lld_config(), minix_config())
}

/// Builds MINIX LLD with custom LLD/FS configurations.
pub fn minix_lld_with(
    bytes: u64,
    lld_config: lld::LldConfig,
    fs_config: FsConfig,
) -> MinixFs<LdStore<SimDisk>> {
    let store = LdStore::format(disk_sized(bytes), lld_config).expect("format LD store");
    MinixFs::format(store, fs_config).expect("format MINIX LLD")
}

/// Builds the SunOS/FFS baseline on a fresh rig disk.
pub fn sunos(bytes: u64) -> Ffs<SimDisk> {
    Ffs::format(disk_sized(bytes), ffs_config()).expect("format FFS")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rigs_build_on_small_disks() {
        let _ = minix(32 << 20);
        let _ = minix_lld(32 << 20);
        let _ = sunos(32 << 20);
    }

    #[test]
    fn partition_has_about_800_segments() {
        // §4.2 reports reading 788 segment summaries for this partition.
        let store = LdStore::format(disk(), lld_config()).expect("format");
        let segs = store.lld().layout().segments;
        assert!(
            (780..=805).contains(&segs),
            "{segs} segments; paper's rig has ~788-800"
        );
    }
}
