//! The segment usage table (paper §3: "LLD maintains in main memory a
//! segment usage table that records the number of live bytes in each
//! segment") plus free-segment bookkeeping and victim selection for the
//! cleaner.

use std::collections::BTreeSet;

use crate::cleaner::CleaningPolicy;

/// Lifecycle state of a physical segment. The discriminant is the state's
/// byte in a checkpoint's usage table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegState {
    /// Unused; may be allocated for the next segment write.
    Free = 0,
    /// Holds (or may hold) live data and a valid summary.
    Live = 1,
    /// Holds the durable copy of the current *partial* segment (§3.2); it
    /// is superseded and freed when the in-memory segment seals.
    Scratch = 2,
    /// Retired because of persistent media faults: never allocated, never
    /// a cleaning victim, never released back to the free set. Live blocks
    /// that could not be evacuated may still map into it.
    Quarantined = 3,
}

/// Per-segment usage information.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegUsage {
    /// Lifecycle state.
    pub state: SegState,
    /// Live payload bytes (stored lengths of blocks whose live copy is
    /// here).
    pub live_bytes: u64,
    /// Timestamp of the most recent write into the segment — the "age"
    /// input to the Sprite cost-benefit policy.
    pub last_write_ts: u64,
}

/// The usage table.
#[derive(Debug)]
pub struct UsageTable {
    segs: Vec<SegUsage>,
    free: BTreeSet<u32>,
}

impl UsageTable {
    /// Creates a table with all `n` segments free.
    pub fn new(n: u32) -> Self {
        Self {
            segs: vec![
                SegUsage {
                    state: SegState::Free,
                    live_bytes: 0,
                    last_write_ts: 0,
                };
                n as usize
            ],
            free: (0..n).collect(),
        }
    }

    /// Number of segments.
    pub fn len(&self) -> u32 {
        self.segs.len() as u32
    }

    /// Number of free segments.
    pub fn free_count(&self) -> u32 {
        self.free.len() as u32
    }

    /// Per-segment usage.
    pub fn get(&self, seg: u32) -> &SegUsage {
        &self.segs[seg as usize]
    }

    /// Allocates the free segment closest to `near` (reducing the seek for
    /// the upcoming segment write, the Loge-inspired heuristic §5.2
    /// suggests integrating). Returns `None` when no segment is free.
    pub fn alloc_near(&mut self, near: u32) -> Option<u32> {
        let up = self.free.range(near..).next().copied();
        let down = self.free.range(..near).next_back().copied();
        let pick = match (down, up) {
            (None, None) => return None,
            (Some(d), None) => d,
            (None, Some(u)) => u,
            (Some(d), Some(u)) => {
                if near - d <= u - near {
                    d
                } else {
                    u
                }
            }
        };
        self.free.remove(&pick);
        self.segs[pick as usize] = SegUsage {
            state: SegState::Live,
            live_bytes: 0,
            last_write_ts: 0,
        };
        Some(pick)
    }

    /// Marks a just-allocated segment as the scratch target of a partial
    /// write.
    pub fn mark_scratch(&mut self, seg: u32) {
        self.segs[seg as usize].state = SegState::Scratch;
    }

    /// Returns a segment to the free set, zeroing its usage. A quarantined
    /// segment stays quarantined: reusing failing media would silently
    /// corrupt whatever lands there next.
    pub fn release(&mut self, seg: u32) {
        if self.segs[seg as usize].state == SegState::Quarantined {
            return;
        }
        self.segs[seg as usize] = SegUsage {
            state: SegState::Free,
            live_bytes: 0,
            last_write_ts: 0,
        };
        self.free.insert(seg);
    }

    /// Retires a segment from circulation (media faults). Keeps the
    /// current live-byte accounting — blocks that could not be evacuated
    /// still map into the segment.
    pub fn quarantine(&mut self, seg: u32) {
        self.free.remove(&seg);
        self.segs[seg as usize].state = SegState::Quarantined;
    }

    /// Adds live bytes to a segment (a block copy landed there).
    pub fn add_live(&mut self, seg: u32, bytes: u64, ts: u64) {
        let s = &mut self.segs[seg as usize];
        s.live_bytes += bytes;
        s.last_write_ts = s.last_write_ts.max(ts);
    }

    /// Removes live bytes from a segment (its copy of a block died).
    ///
    /// # Panics
    ///
    /// Panics if the accounting would go negative — that is always an
    /// LLD bug, never a runtime condition.
    pub fn sub_live(&mut self, seg: u32, bytes: u64) {
        let s = &mut self.segs[seg as usize];
        assert!(
            s.live_bytes >= bytes,
            "segment {seg} live-byte accounting underflow"
        );
        s.live_bytes -= bytes;
    }

    /// Overwrites a segment's usage (recovery rebuild).
    pub fn set(&mut self, seg: u32, usage: SegUsage) {
        if usage.state == SegState::Free {
            self.free.insert(seg);
        } else {
            self.free.remove(&seg);
        }
        self.segs[seg as usize] = usage;
    }

    /// The free segments, in ascending order.
    pub fn free_list(&self) -> Vec<u32> {
        self.free.iter().copied().collect()
    }

    /// Iterates over `(segment, usage)` for all segments.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &SegUsage)> {
        self.segs.iter().enumerate().map(|(i, s)| (i as u32, s))
    }

    /// Picks up to `max` cleaning victims among live segments, best first.
    /// Greedy picks the least-utilized segments; cost-benefit the highest
    /// `(1 - u) * age / (1 + u)` (Rosenblum & Ousterhout; paper §3.5 notes
    /// all Sprite policies apply to LLD). Scratch segments are superseded
    /// by the in-memory segment and full ones yield nothing, so neither is
    /// a candidate. Ties break toward the lower segment id, so every pick
    /// — one victim on the direct path, a batch the command queue
    /// prefetches — is deterministic.
    pub fn pick_victims(
        &self,
        policy: CleaningPolicy,
        data_bytes: u64,
        now_ts: u64,
        max: usize,
    ) -> Vec<u32> {
        let cands = self
            .segs
            .iter()
            .enumerate()
            .filter(|(_, s)| s.state == SegState::Live && s.live_bytes < data_bytes)
            .map(|(i, s)| (i as u32, s));
        match policy {
            CleaningPolicy::Greedy => best_first(
                cands.map(|(i, s)| (s.live_bytes, i)).collect(),
                max,
                |a, b| a.cmp(b),
            ),
            CleaningPolicy::CostBenefit => best_first(
                cands
                    .map(|(i, s)| (cost_benefit(s, data_bytes, now_ts), i))
                    .collect(),
                max,
                |a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)),
            ),
        }
    }
}

/// The segment ids of the `max` best `(score, segment)` candidates under
/// `order` (best first), without sorting the rest.
fn best_first<K>(
    mut cands: Vec<(K, u32)>,
    max: usize,
    order: impl Fn(&(K, u32), &(K, u32)) -> std::cmp::Ordering,
) -> Vec<u32> {
    if max < cands.len() {
        cands.select_nth_unstable_by(max, &order);
        cands.truncate(max);
    }
    // Segment ids are unique, so `order` is total and the unstable sort
    // is deterministic.
    cands.sort_unstable_by(order);
    cands.into_iter().map(|(_, i)| i).collect()
}

fn cost_benefit(s: &SegUsage, data_bytes: u64, now_ts: u64) -> f64 {
    let u = s.live_bytes as f64 / data_bytes as f64;
    let age = now_ts.saturating_sub(s.last_write_ts) as f64 + 1.0;
    (1.0 - u) * age / (1.0 + u)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_near_prefers_closest_free_segment() {
        let mut t = UsageTable::new(10);
        for s in [3u32, 4, 6] {
            t.free.remove(&s);
            t.segs[s as usize].state = SegState::Live;
        }
        // Near 4 (taken): candidates 2 and 5, distance 2 vs 1 → 5.
        assert_eq!(t.alloc_near(4), Some(5));
        // Near 0: 0 itself is free.
        assert_eq!(t.alloc_near(0), Some(0));
        assert_eq!(t.free_count(), 5);
    }

    #[test]
    fn alloc_near_exhausts_to_none() {
        let mut t = UsageTable::new(2);
        assert!(t.alloc_near(0).is_some());
        assert!(t.alloc_near(0).is_some());
        assert_eq!(t.alloc_near(0), None);
    }

    #[test]
    fn live_byte_accounting() {
        let mut t = UsageTable::new(4);
        let s = t.alloc_near(0).unwrap();
        t.add_live(s, 1000, 5);
        t.add_live(s, 500, 9);
        assert_eq!(t.get(s).live_bytes, 1500);
        assert_eq!(t.get(s).last_write_ts, 9);
        t.sub_live(s, 1500);
        assert_eq!(t.get(s).live_bytes, 0);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn negative_live_bytes_panics() {
        let mut t = UsageTable::new(2);
        let s = t.alloc_near(0).unwrap();
        t.sub_live(s, 1);
    }

    #[test]
    fn greedy_picks_least_utilized() {
        let mut t = UsageTable::new(4);
        let a = t.alloc_near(0).unwrap();
        let b = t.alloc_near(3).unwrap();
        t.add_live(a, 100, 1);
        t.add_live(b, 50, 2);
        assert_eq!(t.pick_victims(CleaningPolicy::Greedy, 1000, 10, 1), [b]);
        assert_eq!(t.pick_victims(CleaningPolicy::Greedy, 1000, 10, 2), [b, a]);
    }

    #[test]
    fn single_picks_break_ties_toward_the_lower_segment() {
        let mut t = UsageTable::new(4);
        let a = t.alloc_near(1).unwrap();
        let b = t.alloc_near(3).unwrap();
        // Same utilization and age: equal scores under both policies.
        t.add_live(a, 400, 7);
        t.add_live(b, 400, 7);
        for policy in [CleaningPolicy::Greedy, CleaningPolicy::CostBenefit] {
            assert_eq!(t.pick_victims(policy, 1000, 20, 1), [a], "{policy:?}");
        }
    }

    /// `pick_victims` as a full sort of every candidate.
    fn victims_by_full_sort(
        t: &UsageTable,
        policy: CleaningPolicy,
        data_bytes: u64,
        now_ts: u64,
        max: usize,
    ) -> Vec<u32> {
        let mut cands: Vec<(u32, &SegUsage)> = t
            .iter()
            .filter(|(_, s)| s.state == SegState::Live && s.live_bytes < data_bytes)
            .collect();
        match policy {
            CleaningPolicy::Greedy => cands.sort_by_key(|(i, s)| (s.live_bytes, *i)),
            CleaningPolicy::CostBenefit => cands.sort_by(|(ia, a), (ib, b)| {
                cost_benefit(b, data_bytes, now_ts)
                    .total_cmp(&cost_benefit(a, data_bytes, now_ts))
                    .then(ia.cmp(ib))
            }),
        }
        cands.truncate(max);
        cands.into_iter().map(|(i, _)| i).collect()
    }

    #[test]
    fn pick_victims_selects_what_a_full_sort_would() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let states = [
            SegState::Live,
            SegState::Live,
            SegState::Live,
            SegState::Free,
            SegState::Scratch,
            SegState::Quarantined,
        ];
        for seed in 0..300 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(1u32..48);
            let mut t = UsageTable::new(n);
            for seg in 0..n {
                // Few distinct values, so both policies meet many ties.
                t.set(
                    seg,
                    SegUsage {
                        state: states[rng.gen_range(0..states.len())],
                        live_bytes: 250 * rng.gen_range(0u64..5),
                        last_write_ts: 5 * rng.gen_range(0u64..3),
                    },
                );
            }
            let max = rng.gen_range(0..n as usize + 3);
            for policy in [CleaningPolicy::Greedy, CleaningPolicy::CostBenefit] {
                assert_eq!(
                    t.pick_victims(policy, 1000, 20, max),
                    victims_by_full_sort(&t, policy, 1000, 20, max),
                    "seed {seed}, {policy:?}, max {max}"
                );
            }
        }
    }

    #[test]
    fn cost_benefit_prefers_old_cold_segments() {
        let mut t = UsageTable::new(4);
        let a = t.alloc_near(0).unwrap();
        let b = t.alloc_near(3).unwrap();
        // Same utilization, different age: the older one wins.
        t.add_live(a, 500, 1);
        t.add_live(b, 500, 99);
        assert_eq!(t.pick_victims(CleaningPolicy::CostBenefit, 1000, 100, 1), [a]);
    }

    #[test]
    fn full_segments_are_not_victims() {
        let mut t = UsageTable::new(2);
        let a = t.alloc_near(0).unwrap();
        t.add_live(a, 1000, 1);
        assert!(t.pick_victims(CleaningPolicy::Greedy, 1000, 5, 1).is_empty());
    }

    #[test]
    fn quarantined_segments_leave_circulation_for_good() {
        let mut t = UsageTable::new(3);
        let a = t.alloc_near(0).unwrap();
        t.add_live(a, 700, 4);
        t.quarantine(a);
        assert_eq!(t.get(a).state, SegState::Quarantined);
        // Accounting survives (unevacuated blocks still map here).
        assert_eq!(t.get(a).live_bytes, 700);
        // Not a victim, not allocatable, and release is a no-op.
        assert!(t.pick_victims(CleaningPolicy::Greedy, 1000, 9, 1).is_empty());
        t.release(a);
        assert_eq!(t.get(a).state, SegState::Quarantined);
        assert_eq!(t.free_count(), 2);
        // Quarantining a free segment removes it from the free set.
        t.quarantine(2);
        assert_eq!(t.free_count(), 1);
        assert!(!t.free_list().contains(&2));
    }

    #[test]
    fn release_returns_segment_to_free_set() {
        let mut t = UsageTable::new(2);
        let a = t.alloc_near(0).unwrap();
        t.add_live(a, 10, 1);
        t.release(a);
        assert_eq!(t.get(a).state, SegState::Free);
        assert_eq!(t.get(a).live_bytes, 0);
        assert_eq!(t.free_count(), 2);
    }
}
