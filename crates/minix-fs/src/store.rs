//! The storage backend abstraction the MINIX file system runs on.
//!
//! The paper's point is that the *same* file-system code runs over two very
//! different disk managers: classic update-in-place storage with a free-
//! block bitmap (plain MINIX) and the Logical Disk (MINIX LLD). This trait
//! captures exactly the operations §4.1 says MINIX needed from its storage
//! layer after the LD port:
//!
//! - allocate/free a block, with a locality hint ("allocates it close to
//!   the previous allocated block for that file" / `NewBlock(Lid,
//!   PredBid)`),
//! - optional allocation *groups* for per-file clustering (LD lists; the
//!   list id is what MINIX LLD "stores in the i-node"),
//! - optional small block sizes (the 64-byte i-node variant),
//! - `sync` (MINIX's sync maps to LD's `Flush`),
//! - a read-ahead capability flag (read-ahead is disabled over LD, §4.1).

pub use fsutil::fs::Addr;

use crate::Result;

/// Locality hint for allocation and the symmetric hint for freeing.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllocHint {
    /// Allocation group (`0` = the shared/meta group). For the LD store a
    /// group is a block list; `group - 1` is the list id.
    pub group: u64,
    /// The file's previous block, for physical clustering (`NewBlock`'s
    /// `PredBid`, or MINIX's allocate-near-previous policy).
    pub prev: Option<Addr>,
}

impl AllocHint {
    /// Hint within the shared group, after `prev`.
    pub fn after(prev: Option<Addr>) -> Self {
        Self { group: 0, prev }
    }

    /// Hint within a specific group.
    pub fn in_group(group: u64, prev: Option<Addr>) -> Self {
        Self { group, prev }
    }
}

/// Storage backend for [`crate::MinixFs`].
pub trait BlockStore {
    /// Full-size data block in bytes (4096 throughout the evaluation).
    fn block_size(&self) -> usize;

    /// Address of the well-known superblock block (always allocated).
    fn superblock_addr(&self) -> Addr;

    /// Reads a block; returns the number of valid bytes (full blocks
    /// return `block_size`, small blocks their stored length, LD's
    /// never-written and short-written blocks less). Bytes of `buf` past
    /// that count are left as they were.
    fn read_block(&mut self, addr: Addr, buf: &mut [u8]) -> Result<usize>;

    /// Writes a block (data may be shorter than the block's size class).
    fn write_block(&mut self, addr: Addr, data: &[u8]) -> Result<()>;

    /// Reads several full blocks, coalescing physically adjacent ones into
    /// single device requests where the store can (read-ahead batches).
    /// The default reads one block at a time.
    fn read_blocks(&mut self, addrs: &[Addr]) -> Result<Vec<Vec<u8>>> {
        let bs = self.block_size();
        let mut out = Vec::with_capacity(addrs.len());
        for &a in addrs {
            let mut buf = vec![0u8; bs];
            self.read_block(a, &mut buf)?;
            out.push(buf);
        }
        Ok(out)
    }

    /// Allocates a full-size block.
    fn alloc_block(&mut self, hint: &AllocHint) -> Result<Addr>;

    /// Allocates a block of `size` bytes (the multiple-block-size
    /// abstraction; the raw store only supports full blocks).
    fn alloc_sized(&mut self, hint: &AllocHint, size: usize) -> Result<Addr>;

    /// Frees a block. `hint.group` must be the group it was allocated in;
    /// `hint.prev` helps the LD store unlink in O(1).
    fn free_block(&mut self, addr: Addr, hint: &AllocHint) -> Result<()>;

    /// Creates an allocation group near `near` (LD: `NewList` after that
    /// list). Stores without groups return `0`.
    fn new_group(&mut self, near: Option<u64>) -> Result<u64>;

    /// Deletes a group **and every block still allocated in it** (LD:
    /// `DeleteList`). No-op for group `0`.
    fn delete_group(&mut self, group: u64) -> Result<()>;

    /// Makes all completed writes durable (LD: `Flush`).
    fn sync(&mut self) -> Result<()>;

    /// Whether read-ahead pays off on this store (true for update-in-place
    /// stores; false over LD, where logical adjacency says nothing about
    /// physical adjacency — §4.1 disables it).
    fn supports_readahead(&self) -> bool;

    /// Whether `alloc_sized` supports sizes below `block_size`.
    fn supports_small_blocks(&self) -> bool;

    /// Approximate free capacity in full blocks.
    fn free_blocks(&self) -> u64;

    /// Simulated clock (microseconds).
    fn now_us(&self) -> u64;

    /// Advances the simulated clock (modeled file-system CPU time).
    fn advance_us(&mut self, us: u64);

    /// The underlying device's event tracer, if any
    /// ([`simdisk::BlockDev::tracer`]).
    fn tracer(&self) -> Option<&ld_trace::Tracer> {
        None
    }
}
