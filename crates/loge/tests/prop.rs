//! Property tests: Loge vs a trivial model, and recovery-anywhere.

use loge::{Loge, BLOCK};
use proptest::prelude::*;
use simdisk::MemDisk;
use std::collections::HashMap;

fn payload(seed: u8) -> Vec<u8> {
    (0..BLOCK)
        .map(|i| (i as u8).wrapping_mul(11) ^ seed)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random writes/overwrites/reads match a HashMap model exactly.
    #[test]
    fn matches_model(ops in proptest::collection::vec((any::<u16>(), any::<u8>(), any::<bool>()), 1..120)) {
        let mut loge = Loge::format(MemDisk::with_capacity(4 << 20))
            .expect("format");
        let blocks = loge.logical_blocks();
        let mut model: HashMap<u32, u8> = HashMap::new();
        let mut buf = vec![0u8; BLOCK];
        for (bid, seed, is_write) in ops {
            let bid = u32::from(bid) % blocks;
            if is_write {
                loge.write(bid, &payload(seed)).expect("write");
                model.insert(bid, seed);
            } else {
                match model.get(&bid) {
                    Some(&s) => {
                        loge.read(bid, &mut buf).expect("read");
                        prop_assert_eq!(&buf, &payload(s));
                    }
                    None => prop_assert!(loge.read(bid, &mut buf).is_err()),
                }
            }
        }
    }

    /// Every write is individually durable: recovery after any prefix of
    /// the workload reproduces exactly the model at that point (Loge's
    /// guarantee is stronger than LLD's — "recovery up to the very last
    /// block successfully written", §5.2).
    #[test]
    fn recovery_reproduces_every_write(
        writes in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..60),
    ) {
        let mut loge = Loge::format(MemDisk::with_capacity(4 << 20))
            .expect("format");
        let blocks = loge.logical_blocks();
        let mut model: HashMap<u32, u8> = HashMap::new();
        for (bid, seed) in writes {
            let bid = u32::from(bid) % blocks;
            loge.write(bid, &payload(seed)).expect("write");
            model.insert(bid, seed);
        }
        // Crash with zero warning; every completed write must survive.
        let disk = loge.into_disk();
        let mut rec = Loge::recover(disk).expect("recover");
        let mut buf = vec![0u8; BLOCK];
        for (bid, seed) in model {
            rec.read(bid, &mut buf).expect("recovered read");
            prop_assert_eq!(&buf, &payload(seed), "bid {}", bid);
        }
    }
}
