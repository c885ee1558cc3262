//! Atomic recovery units under fire.
//!
//! A "bank transfer" updates two account blocks. Without ARUs a crash
//! between the two writes can persist one half; with an ARU, recovery
//! keeps both or neither (paper §2.1: atomic recovery units make fsck-style
//! consistency checks unnecessary and support application transactions).
//!
//! The demo records the transfer's disk writes once, crashes it at every
//! written-sector boundary and tallies what recovery produced.
//!
//! Run with: `cargo run --example crash_recovery`

use ld_core::{Bid, FailureSet, LdError, ListHints, LogicalDisk, Pred, PredList};
use lld::{Lld, LldConfig};
use simdisk::{CrashImages, SimDisk};

fn balances(ld: &mut Lld<SimDisk>, a: Bid, b: Bid) -> Option<(u64, u64)> {
    let mut buf = [0u8; 8];
    let read = |ld: &mut Lld<SimDisk>, bid, buf: &mut [u8; 8]| -> Option<u64> {
        match ld.read(bid, buf) {
            Ok(8) => Some(u64::from_le_bytes(*buf)),
            _ => None,
        }
    };
    let va = read(ld, a, &mut buf)?;
    let vb = read(ld, b, &mut buf)?;
    Some((va, vb))
}

/// Runs one transfer on a recording disk. Returns its crash images, the
/// configuration to recover with and the two accounts.
fn record_transfer(use_aru: bool) -> (CrashImages, LldConfig, Bid, Bid) {
    let disk = SimDisk::hp_c3010_with_capacity(16 << 20);
    let config = LldConfig {
        flush_threshold_pct: 99, // Force partial-segment flushes.
        ..LldConfig::default()
    };
    let mut ld = Lld::format(disk, config.clone()).expect("format");
    let lid = ld
        .new_list(PredList::Start, ListHints::default())
        .expect("list");
    let a = ld.new_block(lid, Pred::Start).expect("alloc");
    let b = ld.new_block(lid, Pred::After(a)).expect("alloc");
    ld.write(a, &100u64.to_le_bytes()).expect("write");
    ld.write(b, &0u64.to_le_bytes()).expect("write");
    ld.flush(FailureSet::PowerFailure).expect("flush");

    // Transfer 40 from a to b. The unlucky application syncs between the
    // two writes (or a segment boundary falls there).
    ld.disk_mut().record_writes();
    let transfer = (|| -> Result<(), LdError> {
        if use_aru {
            ld.begin_aru()?;
        }
        ld.write(a, &60u64.to_le_bytes())?;
        ld.flush(FailureSet::PowerFailure)?;
        ld.write(b, &40u64.to_le_bytes())?;
        if use_aru {
            ld.end_aru()?;
        }
        ld.flush(FailureSet::PowerFailure)
    })();
    transfer.expect("transfer");
    let images = ld.disk_mut().take_recording().expect("recording");
    (images, config, a, b)
}

fn main() {
    for use_aru in [false, true] {
        let (mut images, config, a, b) = record_transfer(use_aru);
        let mut consistent = 0u32;
        let mut torn = 0u32;
        let mut outcomes = std::collections::BTreeMap::new();
        // Crash after 0, 1, 2, ... writes of the transfer's disk traffic.
        for n in 0..=images.writes() {
            images.advance_to(n);
            let mut ld = Lld::open(images.disk(), config.clone()).expect("recover");
            let Some((va, vb)) = balances(&mut ld, a, b) else {
                continue;
            };
            *outcomes.entry((va, vb)).or_insert(0u32) += 1;
            if va + vb == 100 {
                consistent += 1;
            } else {
                torn += 1;
            }
        }
        println!(
            "{}: {} crash points, {} consistent recoveries, {} torn; outcomes: {:?}",
            if use_aru {
                "with ARU   "
            } else {
                "without ARU"
            },
            images.writes() + 1,
            consistent,
            torn,
            outcomes
        );
        if use_aru {
            assert_eq!(torn, 0, "ARUs must never recover a torn transfer");
        }
    }
    println!("\nwith ARUs every crash point recovers to (100,0) or (60,40) — all or nothing.");
}
