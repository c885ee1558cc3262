//! Workload generators: file data, names, and access orders.

use ld_core::{Bid, ListHints, LogicalDisk, Pred, PredList};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Deterministic RNG for a named workload.
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// File content that compresses to roughly the paper's assumed 60 % ratio:
/// textual key=value lines over a shared vocabulary, as produced by real
/// file-system payloads (sources, configuration, logs).
pub fn compressible_data(len: usize, seed: u64) -> Vec<u8> {
    const WORDS: [&str; 16] = [
        "segment", "cleaner", "logical", "disk", "buffer", "kernel", "config", "value", "block",
        "inode", "recover", "journal", "policy", "extent", "offset", "cache",
    ];
    let mut r = rng(seed);
    let mut out = Vec::with_capacity(len + 32);
    while out.len() < len {
        let w1 = WORDS[r.gen_range(0..WORDS.len())];
        let w2 = WORDS[r.gen_range(0..WORDS.len())];
        let n: u32 = r.gen_range(0..100_000);
        out.extend_from_slice(w1.as_bytes());
        out.push(b'.');
        out.extend_from_slice(w2.as_bytes());
        out.push(b'=');
        out.extend_from_slice(n.to_string().as_bytes());
        // A dash of incompressible payload (hashes, binary fields) keeps
        // the overall ratio near the paper's assumed 60 %.
        out.push(b' ');
        for _ in 0..10 {
            out.push(r.gen());
        }
        out.push(b'\n');
    }
    out.truncate(len);
    out
}

/// Incompressible (pseudo-random) file content.
pub fn random_data(len: usize, seed: u64) -> Vec<u8> {
    let mut r = rng(seed);
    (0..len).map(|_| r.gen()).collect()
}

/// The file names of the small-file benchmark (one directory).
pub fn file_names(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("/f{i:06}")).collect()
}

/// Allocates `n` blocks, in order, on one new list of `ld`, writing `data`
/// to each when given; returns their ids.
pub fn fill_list(ld: &mut impl LogicalDisk, n: usize, data: Option<&[u8]>) -> Vec<Bid> {
    let lid = ld
        .new_list(PredList::Start, ListHints::default())
        .expect("list");
    let mut bids = Vec::with_capacity(n);
    let mut pred = Pred::Start;
    for _ in 0..n {
        let b = ld.new_block(lid, pred).expect("alloc");
        if let Some(data) = data {
            ld.write(b, data).expect("fill");
        }
        bids.push(b);
        pred = Pred::After(b);
    }
    bids
}

/// An index into `0..n` where 90 % of picks fall in the hot first `hot`.
pub fn hot_cold_pick(r: &mut StdRng, hot: usize, n: usize) -> usize {
    if r.gen_bool(0.9) {
        r.gen_range(0..hot)
    } else {
        r.gen_range(hot..n)
    }
}

/// A shuffled visit order over `n` items.
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut rng(seed));
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compressible_data_hits_the_paper_ratio() {
        let data = compressible_data(64 << 10, 7);
        let c = ldcomp::compress(&data);
        let ratio = c.len() as f64 / data.len() as f64;
        assert!(
            (0.40..=0.65).contains(&ratio),
            "ratio {ratio:.2} should be near the paper's 60%"
        );
    }

    #[test]
    fn random_data_does_not_compress() {
        let data = random_data(16 << 10, 7);
        let c = ldcomp::compress(&data);
        assert!(c.len() >= data.len());
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(compressible_data(1000, 3), compressible_data(1000, 3));
        assert_eq!(shuffled(100, 9), shuffled(100, 9));
        assert_ne!(shuffled(100, 9), shuffled(100, 10));
    }
}
