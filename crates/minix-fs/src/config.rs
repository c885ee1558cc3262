//! File-system configuration knobs, matching the variants evaluated in
//! paper §4.

/// How i-nodes are stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InodeMode {
    /// I-nodes packed 64-per-block into shared i-node blocks.
    #[default]
    Packed,
    /// Each i-node in its own 64-byte block (§4.1: "one in which MINIX
    /// allocates a 64-byte block for each i-node"); requires a store with
    /// small-block support.
    SmallBlocks,
}

/// Modeled file-system CPU cost, charged to the simulated clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FsCpuModel {
    /// Per public operation (path handling, table lookups).
    pub per_call_us: u64,
    /// Per block moved between the cache and the caller.
    pub per_block_us: u64,
}

impl Default for FsCpuModel {
    fn default() -> Self {
        Self {
            per_call_us: 100,
            per_block_us: 60,
        }
    }
}

impl FsCpuModel {
    /// A model with no CPU cost at all.
    pub fn free() -> Self {
        Self {
            per_call_us: 0,
            per_block_us: 0,
        }
    }
}

/// Configuration for [`crate::MinixFs`].
#[derive(Debug, Clone)]
pub struct FsConfig {
    /// Total i-nodes created at format time.
    pub ninodes: u32,
    /// Buffer-cache capacity in bytes (paper: a static 6,144 KB cache).
    pub cache_bytes: usize,
    /// I-node storage mode.
    pub inode_mode: InodeMode,
    /// Modeled CPU costs.
    pub cpu: FsCpuModel,
}

impl Default for FsConfig {
    fn default() -> Self {
        Self {
            ninodes: 16384,
            cache_bytes: 6144 << 10,
            inode_mode: InodeMode::default(),
            cpu: FsCpuModel::default(),
        }
    }
}

impl FsConfig {
    /// A small, CPU-free configuration for unit tests.
    pub fn small_for_tests() -> Self {
        Self {
            ninodes: 512,
            cache_bytes: 256 << 10,
            cpu: FsCpuModel::free(),
            ..Self::default()
        }
    }
}
