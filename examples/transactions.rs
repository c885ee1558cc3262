//! Shadow-block transactions with `SwapContents` — the paper's §5.2/§5.4
//! recipe: "File systems using LD can implement isolation control by using
//! atomic recovery units and a primitive that would swap the physical
//! addresses of two logical blocks", and "such a primitive would be useful
//! for implementing transactions and multiversion data storage: new
//! versions of blocks can be installed atomically without losing the old
//! versions".
//!
//! A record store keeps each record in a *current* block with a *shadow*
//! block beside it. A transaction writes the new version into the shadows
//! (no isolation problem: readers only touch current blocks), then commits
//! by swapping every touched pair inside one ARU. The old versions live on
//! in the shadows — multiversion storage for free — and a crash anywhere
//! leaves either all new versions or all old ones.
//!
//! Run with: `cargo run --release --example transactions`

use ld_core::{Bid, FailureSet, LdError, ListHints, LogicalDisk, Pred, PredList};
use lld::{Lld, LldConfig};
use simdisk::SimDisk;

struct RecordStore {
    ld: Lld<SimDisk>,
    /// Per record: (current block, shadow block holding the previous
    /// version).
    records: Vec<(Bid, Bid)>,
}

impl RecordStore {
    fn create(nrecords: usize) -> Self {
        let disk = SimDisk::hp_c3010_with_capacity(32 << 20);
        let mut ld = Lld::format(disk, LldConfig::default()).expect("format");
        let lid = ld
            .new_list(PredList::Start, ListHints::default())
            .expect("list");
        let mut records = Vec::new();
        let mut pred = Pred::Start;
        for i in 0..nrecords {
            let current = ld.new_block(lid, pred).expect("alloc");
            let shadow = ld.new_block(lid, Pred::After(current)).expect("alloc");
            ld.write(current, format!("record {i} v0").as_bytes())
                .expect("init");
            pred = Pred::After(shadow);
            records.push((current, shadow));
        }
        ld.flush(FailureSet::PowerFailure).expect("flush");
        Self { ld, records }
    }

    fn read(&mut self, idx: usize) -> String {
        let (current, _) = self.records[idx];
        let mut buf = vec![0u8; 4096];
        let n = self.ld.read(current, &mut buf).expect("read");
        String::from_utf8_lossy(&buf[..n]).into_owned()
    }

    fn read_previous(&mut self, idx: usize) -> String {
        let (_, shadow) = self.records[idx];
        let mut buf = vec![0u8; 4096];
        let n = self.ld.read(shadow, &mut buf).expect("read");
        String::from_utf8_lossy(&buf[..n]).into_owned()
    }

    /// Updates several records as one transaction.
    fn transact(&mut self, updates: &[(usize, String)]) -> Result<(), LdError> {
        // Phase 1 (no isolation concerns): stage new versions in shadows.
        for (idx, value) in updates {
            let (_, shadow) = self.records[*idx];
            self.ld.write(shadow, value.as_bytes())?;
        }
        // Phase 2: commit — swap every pair inside one ARU.
        self.ld.begin_aru()?;
        for (idx, _) in updates {
            let (current, shadow) = self.records[*idx];
            self.ld.swap_contents(current, shadow)?;
        }
        self.ld.end_aru()?;
        self.ld.flush(FailureSet::PowerFailure)
    }
}

fn main() {
    let mut store = RecordStore::create(8);
    println!(
        "initial: r2 = {:?}, r5 = {:?}",
        store.read(2),
        store.read(5)
    );

    // A committed transaction over two records.
    store
        .transact(&[(2, "record 2 v1".into()), (5, "record 5 v1".into())])
        .expect("commit");
    println!(
        "after txn: r2 = {:?}, r5 = {:?} (previous versions retained: {:?}, {:?})",
        store.read(2),
        store.read(5),
        store.read_previous(2),
        store.read_previous(5),
    );

    // A transaction interrupted mid-commit: record its disk writes, then
    // crash it after every write it made and recover.
    store.ld.disk_mut().record_writes();
    store
        .transact(&[(2, "record 2 v2".into()), (5, "record 5 v2".into())])
        .expect("commit");
    let config = store.ld.config().clone();
    let mut images = store.ld.disk_mut().take_recording().expect("recording");
    let (mut committed, mut rolled_back) = (0u32, 0u32);
    for n in 0..=images.writes() {
        images.advance_to(n);
        let mut ld = Lld::open(images.disk(), config.clone()).expect("recover");
        let mut read = |bid: Bid| {
            let mut buf = vec![0u8; 4096];
            let n = ld.read(bid, &mut buf).expect("read");
            String::from_utf8_lossy(&buf[..n]).into_owned()
        };
        let r2 = read(store.records[2].0);
        let r5 = read(store.records[5].0);
        let both_old = r2 == "record 2 v1" && r5 == "record 5 v1";
        let both_new = r2 == "record 2 v2" && r5 == "record 5 v2";
        assert!(
            both_old || both_new,
            "crash at write {n}: r2 = {r2:?}, r5 = {r5:?}; the transaction must be all-or-nothing"
        );
        if both_new {
            committed += 1;
        } else {
            rolled_back += 1;
        }
    }
    println!(
        "\ncrashed at each of {} points of the commit: {rolled_back} rolled back, {committed} committed (all-or-nothing held)",
        images.writes() + 1
    );
}
