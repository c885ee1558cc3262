//! The Logical Disk (LD) interface — de Jonge, Kaashoek & Hsieh, SOSP 1993.
//!
//! LD defines a new interface to disk storage that separates **file
//! management** (the file system's job: naming, directories, consistency of
//! its own structures) from **disk management** (LD's job: physical block
//! placement, clustering, recovery). The interface rests on four
//! abstractions (paper §2.1):
//!
//! 1. **Logical block numbers** ([`Bid`]) — location-independent names. LD
//!    keeps the block-number map from `Bid` to physical address and may move
//!    blocks at will; file systems never see physical addresses, so
//!    cascading metadata updates do not occur.
//! 2. **Block lists** ([`Lid`]) — ordered lists expressing logical
//!    relationships among blocks, plus a single ordered *list of lists*. LD
//!    clusters a list's blocks physically, and neighbouring lists near each
//!    other.
//! 3. **Atomic recovery units** — bracketed command sequences
//!    ([`LogicalDisk::begin_aru`] / [`LogicalDisk::end_aru`]) that recover
//!    all-or-nothing after a crash.
//! 4. **Multiple block sizes** — different size classes (e.g. 4 KB data
//!    blocks and 64-byte i-nodes) may coexist.
//!
//! The [`LogicalDisk`] trait transcribes the prototype interface of the
//! paper's Table 1 plus the auxiliary primitives described in §2.2
//! (space reservations, sublist/list moves, per-list flush, shutdown).
//!
//! Two implementations live in this workspace: the log-structured `lld`
//! crate (the paper's LLD, §3) and [`model::ModelLd`], a deliberately
//! simple in-memory implementation used as a differential-testing oracle.

mod error;
pub mod model;
mod types;
pub mod wire;

pub use error::{LdError, Result};
pub use types::{Bid, FailureSet, Lid, ListHints, Pred, PredList, ReservationId};

/// The Logical Disk interface (paper Table 1 + §2.2 auxiliary primitives).
///
/// Implementations decide *where* blocks live; callers decide *what* blocks
/// mean. All operations take `&mut self`: the prototype interface is
/// single-threaded and does not support concurrent ARUs (paper §2.2; §5.4
/// discusses lifting this).
pub trait LogicalDisk {
    /// The default block size class in bytes (e.g. 4096).
    fn default_block_size(&self) -> usize;

    /// Total payload capacity in bytes.
    fn capacity_bytes(&self) -> u64;

    /// Bytes still available for new blocks (net of reservations).
    fn free_bytes(&self) -> u64;

    /// Reads logical block `bid` into `buf`; returns the number of bytes the
    /// block holds. (`Read(Bid, Buf, Cnt)` in Table 1.) Bytes of `buf` past
    /// that count are left as they were; after an error, `buf`'s contents
    /// are unspecified.
    fn read(&mut self, bid: Bid, buf: &mut [u8]) -> Result<usize>;

    /// Writes `data` as the new contents of logical block `bid`.
    /// (`Write(Bid, Buf, Cnt)` in Table 1.)
    ///
    /// `data` may be shorter than the block's size class but not longer.
    fn write(&mut self, bid: Bid, data: &[u8]) -> Result<()>;

    /// Allocates a new logical block on list `lid` after `pred`, in the
    /// default size class; returns its block number.
    /// (`NewBlock(Lid, PredBid)` in Table 1.)
    fn new_block(&mut self, lid: Lid, pred: Pred) -> Result<Bid> {
        let size = self.default_block_size();
        self.new_block_with_size(lid, pred, size)
    }

    /// Allocates a new logical block with an explicit size class — the
    /// "multiple block sizes" abstraction (e.g. 64-byte i-node blocks,
    /// paper §4.1).
    fn new_block_with_size(&mut self, lid: Lid, pred: Pred, size: usize) -> Result<Bid>;

    /// Removes block `bid` from list `lid` and frees its number.
    /// (`DeleteBlock(Bid, Lid, PredBidHint)` in Table 1.)
    ///
    /// `pred_hint` is an optimization only: if it names the true predecessor
    /// the removal is O(1); otherwise the list is searched from the front.
    fn delete_block(&mut self, bid: Bid, lid: Lid, pred_hint: Option<Bid>) -> Result<()>;

    /// Allocates a new, empty block list, inserted in the list of lists
    /// after `pred`. (`NewList(PredLid, Hints)` in Table 1.)
    fn new_list(&mut self, pred: PredList, hints: ListHints) -> Result<Lid>;

    /// Deletes list `lid` **and all blocks on it**.
    /// (`DeleteList(Lid, PredLidHint)` in Table 1.)
    fn delete_list(&mut self, lid: Lid, pred_hint: Option<Lid>) -> Result<()>;

    /// Opens an explicit atomic recovery unit: all commands up to the next
    /// [`end_aru`](Self::end_aru) recover all-or-nothing. (`BeginARU()`.)
    fn begin_aru(&mut self) -> Result<()>;

    /// Closes the open atomic recovery unit. (`EndARU()`.)
    fn end_aru(&mut self) -> Result<()>;

    /// After a successful return, the results of all previous commands
    /// survive the given failures. (`Flush(FailureSet)` in Table 1.)
    fn flush(&mut self, failures: FailureSet) -> Result<()>;

    /// Makes all previous commands affecting list `lid` durable — "the last
    /// primitive allows an easy implementation of fsync" (paper §2.2).
    fn flush_list(&mut self, lid: Lid) -> Result<()>;

    /// Reserves `bytes` of physical space so that later allocations cannot
    /// fail with [`LdError::NoSpace`] (paper §2.2: UNIX file systems cannot
    /// handle late write failures).
    fn reserve(&mut self, bytes: u64) -> Result<ReservationId>;

    /// Cancels the unused remainder of a reservation.
    fn cancel_reservation(&mut self, id: ReservationId) -> Result<()>;

    /// Converts `bytes` of the reservation into real allocation headroom
    /// (called as reserved blocks are actually allocated).
    fn draw_reservation(&mut self, id: ReservationId, bytes: u64) -> Result<()>;

    /// Moves the contiguous sublist `first..=last` of `src` so that it
    /// follows `dst_pred` on `dst` — one of the §2.2 primitives that "allow
    /// the file system to easily express changes in requested clustering".
    fn move_sublist(
        &mut self,
        src: Lid,
        first: Bid,
        last: Bid,
        dst: Lid,
        dst_pred: Pred,
    ) -> Result<()>;

    /// Moves a whole list to a new position in the list of lists.
    fn move_list(&mut self, lid: Lid, pred: PredList) -> Result<()>;

    /// Swaps the physical contents of two logical blocks — the
    /// `SwapContents` primitive of §5.4, "useful for implementing
    /// transactions and multiversion data storage: new versions of blocks
    /// can be installed atomically without losing the old versions".
    ///
    /// Both blocks keep their numbers, list positions, and size classes;
    /// only the stored bytes trade places, so each block's current content
    /// must fit the other's size class.
    fn swap_contents(&mut self, a: Bid, b: Bid) -> Result<()>;

    /// Returns the block at position `index` of list `lid` — the *offset
    /// addressing* extension of §5.4 ("lists could be indexed as arrays"),
    /// which lets a file system address a file's blocks by offset with no
    /// indirect blocks, and lets a B-tree node address all its children
    /// through one list identifier.
    fn block_at(&mut self, lid: Lid, index: u64) -> Result<Bid>;

    /// Returns the blocks of `lid` in list order (diagnostic/introspection;
    /// also what a disk reorganizer uses to cluster).
    fn list_blocks(&mut self, lid: Lid) -> Result<Vec<Bid>>;

    /// Returns the number of bytes currently stored in `bid`.
    fn block_len(&mut self, bid: Bid) -> Result<usize>;

    /// Shuts the Logical Disk down cleanly (paper §3.6: writes a valid
    /// checkpoint so the next start avoids the recovery sweep). Subsequent
    /// operations fail with [`LdError::ShutDown`].
    fn shutdown(&mut self) -> Result<()>;
}

/// Runs `f` inside an atomic recovery unit.
///
/// On success the ARU is closed with [`LogicalDisk::end_aru`]. If `f` fails,
/// the ARU is still closed (an ARU whose commands never reach the disk is
/// simply absent after recovery). The first error encountered is returned.
pub fn with_aru<L, T, F>(ld: &mut L, f: F) -> Result<T>
where
    L: LogicalDisk + ?Sized,
    F: FnOnce(&mut L) -> Result<T>,
{
    ld.begin_aru()?;
    let out = f(ld);
    let end = ld.end_aru();
    match (out, end) {
        (Ok(v), Ok(())) => Ok(v),
        (Err(e), _) => Err(e),
        (_, Err(e)) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::model::ModelLd;
    use super::*;

    #[test]
    fn with_aru_brackets_operations() {
        let mut ld = ModelLd::new(1 << 20, 4096);
        let lid = ld.new_list(PredList::Start, ListHints::default()).unwrap();
        let bid = with_aru(&mut ld, |ld| {
            let bid = ld.new_block(lid, Pred::Start)?;
            ld.write(bid, b"hello")?;
            Ok(bid)
        })
        .unwrap();
        let mut buf = [0u8; 16];
        assert_eq!(ld.read(bid, &mut buf).unwrap(), 5);
        assert_eq!(&buf[..5], b"hello");
    }

    #[test]
    fn with_aru_propagates_inner_error_and_closes() {
        let mut ld = ModelLd::new(1 << 20, 4096);
        let err = with_aru(&mut ld, |ld| ld.read(Bid(999), &mut [0u8; 8]).map(|_| ()));
        assert_eq!(err, Err(LdError::UnknownBlock(Bid(999))));
        // The ARU was closed despite the failure.
        assert_eq!(ld.begin_aru(), Ok(()));
        assert_eq!(ld.end_aru(), Ok(()));
    }
}
