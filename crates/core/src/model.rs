//! A deliberately simple in-memory [`LogicalDisk`] used as a
//! differential-testing oracle.
//!
//! `ModelLd` implements the full interface with the most obvious possible
//! data structures (hash maps and vectors) and no durability machinery.
//! Property tests run random operation sequences against both `ModelLd` and
//! the real log-structured implementation and require identical observable
//! behaviour; anything the two disagree on is a bug in one of them.

use std::collections::HashMap;

use crate::{
    Bid, FailureSet, LdError, Lid, ListHints, LogicalDisk, Pred, PredList, ReservationId, Result,
};

#[derive(Debug, Clone)]
struct ModelBlock {
    data: Vec<u8>,
    size_class: usize,
    list: Lid,
}

#[derive(Debug, Clone)]
struct ModelList {
    blocks: Vec<Bid>,
}

/// The in-memory reference implementation.
#[derive(Debug, Clone)]
pub struct ModelLd {
    blocks: HashMap<Bid, ModelBlock>,
    lists: HashMap<Lid, ModelList>,
    /// The list of lists, in order.
    list_order: Vec<Lid>,
    reservations: HashMap<ReservationId, u64>,
    /// Freed ids, reused LIFO — matching LLD's allocator so differential
    /// tests can compare returned ids directly.
    free_bids: Vec<u64>,
    free_lids: Vec<u64>,
    capacity: u64,
    allocated: u64,
    reserved: u64,
    default_block_size: usize,
    next_bid: u64,
    next_lid: u64,
    next_reservation: u64,
    aru_open: bool,
    shut_down: bool,
}

impl ModelLd {
    /// Creates a model disk with `capacity` bytes of payload space and the
    /// given default block size.
    ///
    /// # Panics
    ///
    /// Panics if `default_block_size` is zero.
    pub fn new(capacity: u64, default_block_size: usize) -> Self {
        assert!(default_block_size > 0, "block size must be non-zero");
        Self {
            blocks: HashMap::new(),
            lists: HashMap::new(),
            list_order: Vec::new(),
            reservations: HashMap::new(),
            free_bids: Vec::new(),
            free_lids: Vec::new(),
            capacity,
            allocated: 0,
            reserved: 0,
            default_block_size,
            next_bid: 0,
            next_lid: 0,
            next_reservation: 1,
            aru_open: false,
            shut_down: false,
        }
    }

    /// The lists currently allocated, in list-of-lists order.
    pub fn list_of_lists(&self) -> &[Lid] {
        &self.list_order
    }

    fn check_up(&self) -> Result<()> {
        if self.shut_down {
            Err(LdError::ShutDown)
        } else {
            Ok(())
        }
    }

    fn list_mut(&mut self, lid: Lid) -> Result<&mut ModelList> {
        self.lists.get_mut(&lid).ok_or(LdError::UnknownList(lid))
    }

    fn insert_into_list(list: &mut Vec<Bid>, bid: Bid, pred: Pred, lid: Lid) -> Result<()> {
        match pred {
            Pred::Start => {
                list.insert(0, bid);
                Ok(())
            }
            Pred::After(p) => {
                let pos = list
                    .iter()
                    .position(|&b| b == p)
                    .ok_or(LdError::NotOnList { bid: p, lid })?;
                list.insert(pos + 1, bid);
                Ok(())
            }
        }
    }
}

impl LogicalDisk for ModelLd {
    fn default_block_size(&self) -> usize {
        self.default_block_size
    }

    fn capacity_bytes(&self) -> u64 {
        self.capacity
    }

    fn free_bytes(&self) -> u64 {
        self.capacity - self.allocated - self.reserved
    }

    fn read(&mut self, bid: Bid, buf: &mut [u8]) -> Result<usize> {
        self.check_up()?;
        let block = self.blocks.get(&bid).ok_or(LdError::UnknownBlock(bid))?;
        if buf.len() < block.data.len() {
            return Err(LdError::BufferTooSmall {
                need: block.data.len(),
                got: buf.len(),
            });
        }
        buf[..block.data.len()].copy_from_slice(&block.data);
        Ok(block.data.len())
    }

    fn write(&mut self, bid: Bid, data: &[u8]) -> Result<()> {
        self.check_up()?;
        let block = self
            .blocks
            .get_mut(&bid)
            .ok_or(LdError::UnknownBlock(bid))?;
        if data.len() > block.size_class {
            return Err(LdError::BlockTooLarge {
                got: data.len(),
                max: block.size_class,
            });
        }
        block.data = data.to_vec();
        Ok(())
    }

    fn new_block_with_size(&mut self, lid: Lid, pred: Pred, size: usize) -> Result<Bid> {
        self.check_up()?;
        if size == 0 {
            return Err(LdError::UnsupportedBlockSize(size));
        }
        if !self.lists.contains_key(&lid) {
            return Err(LdError::UnknownList(lid));
        }
        if self.free_bytes() < size as u64 {
            return Err(LdError::NoSpace);
        }
        let bid = match self.free_bids.last() {
            Some(&b) => Bid(b),
            None => Bid(self.next_bid),
        };
        // Validate the predecessor before committing the allocation.
        {
            let list = self.list_mut(lid)?;
            Self::insert_into_list(&mut list.blocks, bid, pred, lid)?;
        }
        if self.free_bids.pop().is_none() {
            self.next_bid += 1;
        }
        self.allocated += size as u64;
        self.blocks.insert(
            bid,
            ModelBlock {
                data: Vec::new(),
                size_class: size,
                list: lid,
            },
        );
        Ok(bid)
    }

    fn delete_block(&mut self, bid: Bid, lid: Lid, _pred_hint: Option<Bid>) -> Result<()> {
        self.check_up()?;
        let block = self.blocks.get(&bid).ok_or(LdError::UnknownBlock(bid))?;
        if block.list != lid {
            return Err(LdError::NotOnList { bid, lid });
        }
        let size = block.size_class;
        let list = self.list_mut(lid)?;
        let pos = list
            .blocks
            .iter()
            .position(|&b| b == bid)
            .ok_or(LdError::NotOnList { bid, lid })?;
        list.blocks.remove(pos);
        self.blocks.remove(&bid);
        self.free_bids.push(bid.0);
        self.allocated -= size as u64;
        Ok(())
    }

    fn new_list(&mut self, pred: PredList, _hints: ListHints) -> Result<Lid> {
        self.check_up()?;
        let pos = match pred {
            PredList::Start => 0,
            PredList::After(p) => {
                self.list_order
                    .iter()
                    .position(|&l| l == p)
                    .ok_or(LdError::UnknownList(p))?
                    + 1
            }
        };
        let lid = match self.free_lids.pop() {
            Some(l) => Lid(l),
            None => {
                self.next_lid += 1;
                Lid(self.next_lid - 1)
            }
        };
        self.list_order.insert(pos, lid);
        self.lists.insert(lid, ModelList { blocks: Vec::new() });
        Ok(lid)
    }

    fn delete_list(&mut self, lid: Lid, _pred_hint: Option<Lid>) -> Result<()> {
        self.check_up()?;
        let list = self.lists.remove(&lid).ok_or(LdError::UnknownList(lid))?;
        for bid in &list.blocks {
            if let Some(b) = self.blocks.remove(bid) {
                self.allocated -= b.size_class as u64;
                self.free_bids.push(bid.0);
            }
        }
        self.list_order.retain(|&l| l != lid);
        self.free_lids.push(lid.0);
        Ok(())
    }

    fn begin_aru(&mut self) -> Result<()> {
        self.check_up()?;
        if self.aru_open {
            return Err(LdError::AruAlreadyOpen);
        }
        self.aru_open = true;
        Ok(())
    }

    fn end_aru(&mut self) -> Result<()> {
        self.check_up()?;
        if !self.aru_open {
            return Err(LdError::NoAruOpen);
        }
        self.aru_open = false;
        Ok(())
    }

    fn flush(&mut self, _failures: FailureSet) -> Result<()> {
        self.check_up()
    }

    fn flush_list(&mut self, lid: Lid) -> Result<()> {
        self.check_up()?;
        if !self.lists.contains_key(&lid) {
            return Err(LdError::UnknownList(lid));
        }
        Ok(())
    }

    fn reserve(&mut self, bytes: u64) -> Result<ReservationId> {
        self.check_up()?;
        if self.free_bytes() < bytes {
            return Err(LdError::NoSpace);
        }
        let id = ReservationId(self.next_reservation);
        self.next_reservation += 1;
        self.reserved += bytes;
        self.reservations.insert(id, bytes);
        Ok(id)
    }

    fn cancel_reservation(&mut self, id: ReservationId) -> Result<()> {
        self.check_up()?;
        let bytes = self
            .reservations
            .remove(&id)
            .ok_or(LdError::UnknownReservation(id))?;
        self.reserved -= bytes;
        Ok(())
    }

    fn draw_reservation(&mut self, id: ReservationId, bytes: u64) -> Result<()> {
        self.check_up()?;
        let left = self
            .reservations
            .get_mut(&id)
            .ok_or(LdError::UnknownReservation(id))?;
        let take = bytes.min(*left);
        *left -= take;
        self.reserved -= take;
        if *left == 0 {
            self.reservations.remove(&id);
        }
        Ok(())
    }

    fn move_sublist(
        &mut self,
        src: Lid,
        first: Bid,
        last: Bid,
        dst: Lid,
        dst_pred: Pred,
    ) -> Result<()> {
        self.check_up()?;
        if !self.lists.contains_key(&dst) {
            return Err(LdError::UnknownList(dst));
        }
        let src_list = self.list_mut(src)?;
        let a = src_list
            .blocks
            .iter()
            .position(|&b| b == first)
            .ok_or(LdError::NotOnList {
                bid: first,
                lid: src,
            })?;
        let b = src_list
            .blocks
            .iter()
            .position(|&b| b == last)
            .ok_or(LdError::NotOnList {
                bid: last,
                lid: src,
            })?;
        if a > b {
            return Err(LdError::NotOnList {
                bid: last,
                lid: src,
            });
        }
        let moved: Vec<Bid> = src_list.blocks.drain(a..=b).collect();
        // Re-validate the destination predecessor *after* the drain so a
        // move within one list behaves correctly.
        let dst_list = self.list_mut(dst)?;
        let insert_at = match dst_pred {
            Pred::Start => 0,
            Pred::After(p) => {
                dst_list
                    .blocks
                    .iter()
                    .position(|&x| x == p)
                    .ok_or(LdError::NotOnList { bid: p, lid: dst })?
                    + 1
            }
        };
        for (i, bid) in moved.iter().enumerate() {
            dst_list.blocks.insert(insert_at + i, *bid);
        }
        for bid in moved {
            if let Some(block) = self.blocks.get_mut(&bid) {
                block.list = dst;
            }
        }
        Ok(())
    }

    fn move_list(&mut self, lid: Lid, pred: PredList) -> Result<()> {
        self.check_up()?;
        if !self.lists.contains_key(&lid) {
            return Err(LdError::UnknownList(lid));
        }
        self.list_order.retain(|&l| l != lid);
        let pos = match pred {
            PredList::Start => 0,
            PredList::After(p) => {
                self.list_order
                    .iter()
                    .position(|&l| l == p)
                    .ok_or(LdError::UnknownList(p))?
                    + 1
            }
        };
        self.list_order.insert(pos, lid);
        Ok(())
    }

    fn swap_contents(&mut self, a: Bid, b: Bid) -> Result<()> {
        self.check_up()?;
        let ea = self.blocks.get(&a).ok_or(LdError::UnknownBlock(a))?;
        let eb = self.blocks.get(&b).ok_or(LdError::UnknownBlock(b))?;
        if ea.data.len() > eb.size_class {
            return Err(LdError::BlockTooLarge {
                got: ea.data.len(),
                max: eb.size_class,
            });
        }
        if eb.data.len() > ea.size_class {
            return Err(LdError::BlockTooLarge {
                got: eb.data.len(),
                max: ea.size_class,
            });
        }
        if a == b {
            return Ok(());
        }
        let da = self.blocks.get(&a).expect("checked").data.clone(); // PANIC-OK: presence checked on the lines above
        let db = self.blocks.get(&b).expect("checked").data.clone(); // PANIC-OK: presence checked on the lines above
        self.blocks.get_mut(&a).expect("checked").data = db; // PANIC-OK: presence checked on the lines above
        self.blocks.get_mut(&b).expect("checked").data = da; // PANIC-OK: presence checked on the lines above
        Ok(())
    }

    fn block_at(&mut self, lid: Lid, index: u64) -> Result<Bid> {
        self.check_up()?;
        let list = self.lists.get(&lid).ok_or(LdError::UnknownList(lid))?;
        list.blocks
            .get(index as usize)
            .copied()
            .ok_or(LdError::IndexOutOfRange { lid, index })
    }

    fn list_blocks(&mut self, lid: Lid) -> Result<Vec<Bid>> {
        self.check_up()?;
        Ok(self
            .lists
            .get(&lid)
            .ok_or(LdError::UnknownList(lid))?
            .blocks
            .clone())
    }

    fn block_len(&mut self, bid: Bid) -> Result<usize> {
        self.check_up()?;
        Ok(self
            .blocks
            .get(&bid)
            .ok_or(LdError::UnknownBlock(bid))?
            .data
            .len())
    }

    fn shutdown(&mut self) -> Result<()> {
        self.check_up()?;
        self.shut_down = true;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ld() -> ModelLd {
        ModelLd::new(1 << 20, 4096)
    }

    #[test]
    fn blocks_keep_list_order() {
        let mut ld = ld();
        let lid = ld.new_list(PredList::Start, ListHints::default()).unwrap();
        let a = ld.new_block(lid, Pred::Start).unwrap();
        let c = ld.new_block(lid, Pred::After(a)).unwrap();
        let b = ld.new_block(lid, Pred::After(a)).unwrap();
        assert_eq!(ld.list_blocks(lid).unwrap(), vec![a, b, c]);
    }

    #[test]
    fn delete_block_removes_from_list_and_frees_space() {
        let mut ld = ld();
        let lid = ld.new_list(PredList::Start, ListHints::default()).unwrap();
        let free0 = ld.free_bytes();
        let a = ld.new_block(lid, Pred::Start).unwrap();
        assert_eq!(ld.free_bytes(), free0 - 4096);
        ld.delete_block(a, lid, None).unwrap();
        assert_eq!(ld.free_bytes(), free0);
        assert_eq!(ld.read(a, &mut [0u8; 8]), Err(LdError::UnknownBlock(a)));
        assert!(ld.list_blocks(lid).unwrap().is_empty());
    }

    #[test]
    fn delete_list_frees_all_blocks() {
        let mut ld = ld();
        let lid = ld.new_list(PredList::Start, ListHints::default()).unwrap();
        let a = ld.new_block(lid, Pred::Start).unwrap();
        let free_before = ld.free_bytes();
        ld.delete_list(lid, None).unwrap();
        assert_eq!(ld.free_bytes(), free_before + 4096);
        assert_eq!(ld.read(a, &mut [0u8; 8]), Err(LdError::UnknownBlock(a)));
        assert_eq!(ld.list_blocks(lid), Err(LdError::UnknownList(lid)));
    }

    #[test]
    fn list_of_lists_respects_predecessors() {
        let mut ld = ld();
        let a = ld.new_list(PredList::Start, ListHints::default()).unwrap();
        let c = ld
            .new_list(PredList::After(a), ListHints::default())
            .unwrap();
        let b = ld
            .new_list(PredList::After(a), ListHints::default())
            .unwrap();
        assert_eq!(ld.list_of_lists(), &[a, b, c]);
        ld.move_list(c, PredList::Start).unwrap();
        assert_eq!(ld.list_of_lists(), &[c, a, b]);
    }

    #[test]
    fn write_respects_size_class() {
        let mut ld = ld();
        let lid = ld.new_list(PredList::Start, ListHints::default()).unwrap();
        let small = ld.new_block_with_size(lid, Pred::Start, 64).unwrap();
        assert!(ld.write(small, &[0u8; 64]).is_ok());
        assert_eq!(
            ld.write(small, &[0u8; 65]),
            Err(LdError::BlockTooLarge { got: 65, max: 64 })
        );
    }

    #[test]
    fn no_space_is_reported_up_front() {
        let mut ld = ModelLd::new(8192, 4096);
        let lid = ld.new_list(PredList::Start, ListHints::default()).unwrap();
        let _a = ld.new_block(lid, Pred::Start).unwrap();
        let b = ld.new_block(lid, Pred::Start).unwrap();
        assert_eq!(ld.new_block(lid, Pred::Start), Err(LdError::NoSpace));
        ld.delete_block(b, lid, None).unwrap();
        assert!(ld.new_block(lid, Pred::Start).is_ok());
    }

    #[test]
    fn reservations_hold_space() {
        let mut ld = ModelLd::new(8192, 4096);
        let lid = ld.new_list(PredList::Start, ListHints::default()).unwrap();
        let r = ld.reserve(8192).unwrap();
        assert_eq!(ld.new_block(lid, Pred::Start), Err(LdError::NoSpace));
        ld.draw_reservation(r, 4096).unwrap();
        assert!(ld.new_block(lid, Pred::Start).is_ok());
        ld.cancel_reservation(r).unwrap();
        assert!(ld.new_block(lid, Pred::Start).is_ok());
        assert_eq!(
            ld.cancel_reservation(r),
            Err(LdError::UnknownReservation(r))
        );
    }

    #[test]
    fn move_sublist_between_lists() {
        let mut ld = ld();
        let src = ld.new_list(PredList::Start, ListHints::default()).unwrap();
        let dst = ld
            .new_list(PredList::After(src), ListHints::default())
            .unwrap();
        let mut bids = Vec::new();
        let mut pred = Pred::Start;
        for _ in 0..5 {
            let b = ld.new_block(src, pred).unwrap();
            bids.push(b);
            pred = Pred::After(b);
        }
        let d0 = ld.new_block(dst, Pred::Start).unwrap();
        ld.move_sublist(src, bids[1], bids[3], dst, Pred::After(d0))
            .unwrap();
        assert_eq!(ld.list_blocks(src).unwrap(), vec![bids[0], bids[4]]);
        assert_eq!(
            ld.list_blocks(dst).unwrap(),
            vec![d0, bids[1], bids[2], bids[3]]
        );
        // The moved blocks now belong to `dst`.
        ld.delete_block(bids[2], dst, Some(bids[1])).unwrap();
    }

    #[test]
    fn move_sublist_within_one_list_to_front() {
        let mut ld = ld();
        let lid = ld.new_list(PredList::Start, ListHints::default()).unwrap();
        let a = ld.new_block(lid, Pred::Start).unwrap();
        let b = ld.new_block(lid, Pred::After(a)).unwrap();
        let c = ld.new_block(lid, Pred::After(b)).unwrap();
        ld.move_sublist(lid, b, c, lid, Pred::Start).unwrap();
        assert_eq!(ld.list_blocks(lid).unwrap(), vec![b, c, a]);
    }

    #[test]
    fn aru_nesting_is_rejected() {
        let mut ld = ld();
        ld.begin_aru().unwrap();
        assert_eq!(ld.begin_aru(), Err(LdError::AruAlreadyOpen));
        ld.end_aru().unwrap();
        assert_eq!(ld.end_aru(), Err(LdError::NoAruOpen));
    }

    #[test]
    fn shutdown_blocks_everything() {
        let mut ld = ld();
        ld.shutdown().unwrap();
        assert_eq!(ld.flush(FailureSet::PowerFailure), Err(LdError::ShutDown));
        assert_eq!(
            ld.new_list(PredList::Start, ListHints::default()),
            Err(LdError::ShutDown)
        );
        assert_eq!(ld.shutdown(), Err(LdError::ShutDown));
    }

    #[test]
    fn read_shorter_block_reports_length() {
        let mut ld = ld();
        let lid = ld.new_list(PredList::Start, ListHints::default()).unwrap();
        let b = ld.new_block(lid, Pred::Start).unwrap();
        ld.write(b, b"xyz").unwrap();
        let mut buf = [0u8; 4096];
        assert_eq!(ld.read(b, &mut buf).unwrap(), 3);
        assert_eq!(&buf[..3], b"xyz");
        assert_eq!(ld.block_len(b).unwrap(), 3);
        // A too-small buffer is rejected without partial copies.
        assert_eq!(
            ld.read(b, &mut [0u8; 2]),
            Err(LdError::BufferTooSmall { need: 3, got: 2 })
        );
    }
}
