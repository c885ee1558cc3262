//! Deterministic media-fault injection.
//!
//! Real HP C3010-class drives fail per sector, not just wholesale:
//! transient ECC errors that succeed on retry, latent sector errors that
//! persist until the sector is rewritten elsewhere, and grown defects that
//! appear when a marginal sector is written. This module models all three
//! plus an optional background error rate, driven entirely by a stored
//! seed and the simulated clock — the same seed always yields the same
//! fault schedule, so every experiment stays reproducible.
//!
//! Whether a sector is fault-scheduled is a pure function of
//! `(seed, fault kind, sector)` via a SplitMix64-style mixer; no state is
//! kept for healthy sectors, so the model costs one hash per sector read
//! and nothing at all when disabled.

use std::collections::{HashMap, HashSet};

/// Configuration of the media-fault model. All rates are per-million
/// sectors (ppm); a rate of 0 disables that fault class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultConfig {
    /// Seed for the deterministic fault schedule.
    pub seed: u64,
    /// Fraction of sectors (ppm) with a transient read fault: the first
    /// few reads fail, then the sector reads fine forever.
    pub transient_ppm: u32,
    /// Upper bound on how many times a transient sector fails before it
    /// recovers (the exact count per sector is seed-derived, `1..=max`).
    pub transient_max_failures: u32,
    /// Fraction of sectors (ppm) with a latent sector error: every read
    /// fails until the data is relocated and the sector retired.
    pub latent_ppm: u32,
    /// Fraction of sectors (ppm) that grow a defect when written: the
    /// write completes but every subsequent read of the sector fails.
    pub grown_ppm: u32,
    /// Background one-off read-error rate (ppm per read attempt), keyed
    /// by the simulated clock so a retry at a later time succeeds.
    pub background_ppm: u32,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            transient_ppm: 0,
            transient_max_failures: 2,
            latent_ppm: 0,
            grown_ppm: 0,
            background_ppm: 0,
        }
    }
}

/// Live fault state: the config plus the little memory the model needs
/// (how often each transient sector has already failed, and which sectors
/// have grown defects).
#[derive(Debug)]
pub(crate) struct FaultState {
    config: FaultConfig,
    /// Failures already delivered per transient-scheduled sector.
    transient_fails: HashMap<u64, u32>,
    /// Sectors whose defect has been triggered by a write.
    grown_bad: HashSet<u64>,
}

/// SplitMix64-style mixer: a high-quality pure hash of (seed, salt, x).
fn mix(seed: u64, salt: u64, x: u64) -> u64 {
    let mut z = seed
        ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Whether a hash falls inside a ppm-sized window.
fn scheduled(h: u64, ppm: u32) -> bool {
    ppm > 0 && h % 1_000_000 < u64::from(ppm)
}

const SALT_TRANSIENT: u64 = 1;
const SALT_TRANSIENT_COUNT: u64 = 2;
const SALT_LATENT: u64 = 3;
const SALT_GROWN: u64 = 4;
const SALT_BACKGROUND: u64 = 5;

impl FaultState {
    pub(crate) fn new(config: FaultConfig) -> Self {
        Self {
            config,
            transient_fails: HashMap::new(),
            grown_bad: HashSet::new(),
        }
    }

    /// Decides whether a media read of `sector` at simulated time `now_us`
    /// fails. Mutates only the transient failure counters.
    pub(crate) fn read_fails(&mut self, sector: u64, now_us: u64) -> bool {
        let seed = self.config.seed;
        if self.grown_bad.contains(&sector) {
            return true;
        }
        if scheduled(mix(seed, SALT_LATENT, sector), self.config.latent_ppm) {
            return true;
        }
        if scheduled(mix(seed, SALT_TRANSIENT, sector), self.config.transient_ppm) {
            let budget = 1 + (mix(seed, SALT_TRANSIENT_COUNT, sector)
                % u64::from(self.config.transient_max_failures.max(1)))
                as u32;
            let delivered = self.transient_fails.entry(sector).or_insert(0);
            if *delivered < budget {
                *delivered += 1;
                return true;
            }
        }
        if scheduled(
            mix(seed, SALT_BACKGROUND, now_us ^ sector.rotate_left(32)),
            self.config.background_ppm,
        ) {
            return true;
        }
        false
    }

    /// Whether `sector` fails reads persistently (latent error or a
    /// triggered grown defect) — a pure probe that consumes no transient
    /// budget, used to stop the drive's read-ahead at the first bad
    /// sector (a real drive cannot buffer what it cannot read).
    pub(crate) fn persistently_bad(&self, sector: u64) -> bool {
        self.grown_bad.contains(&sector)
            || scheduled(
                mix(self.config.seed, SALT_LATENT, sector),
                self.config.latent_ppm,
            )
    }

    /// Called after a sector write; returns true when the write triggered
    /// a grown defect (the data was written, but the sector will fail
    /// every subsequent read).
    pub(crate) fn write_grows_defect(&mut self, sector: u64) -> bool {
        if scheduled(mix(self.config.seed, SALT_GROWN, sector), self.config.grown_ppm)
            && self.grown_bad.insert(sector)
        {
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let cfg = FaultConfig {
            seed: 42,
            transient_ppm: 50_000,
            latent_ppm: 10_000,
            ..FaultConfig::default()
        };
        let mut a = FaultState::new(cfg);
        let mut b = FaultState::new(cfg);
        for sector in 0..10_000u64 {
            assert_eq!(a.read_fails(sector, 0), b.read_fails(sector, 0));
        }
    }

    #[test]
    fn transient_sectors_recover_after_bounded_failures() {
        let cfg = FaultConfig {
            seed: 7,
            transient_ppm: 1_000_000, // Every sector transient.
            transient_max_failures: 3,
            ..FaultConfig::default()
        };
        let mut f = FaultState::new(cfg);
        let mut failures = 0;
        while f.read_fails(123, 0) {
            failures += 1;
            assert!(failures <= 3, "transient failures must be bounded");
        }
        assert!(failures >= 1);
        // Recovered for good.
        for _ in 0..10 {
            assert!(!f.read_fails(123, 0));
        }
    }

    #[test]
    fn latent_sectors_never_recover() {
        let cfg = FaultConfig {
            seed: 9,
            latent_ppm: 1_000_000,
            ..FaultConfig::default()
        };
        let mut f = FaultState::new(cfg);
        for _ in 0..20 {
            assert!(f.read_fails(55, 0));
        }
    }

    #[test]
    fn grown_defects_fire_only_after_a_write() {
        let cfg = FaultConfig {
            seed: 11,
            grown_ppm: 1_000_000,
            ..FaultConfig::default()
        };
        let mut f = FaultState::new(cfg);
        assert!(!f.read_fails(77, 0), "untouched sector reads fine");
        assert!(f.write_grows_defect(77));
        assert!(f.read_fails(77, 0), "written sector is now bad");
        // Triggering is idempotent.
        assert!(!f.write_grows_defect(77));
    }

    #[test]
    fn background_errors_depend_on_the_clock() {
        let cfg = FaultConfig {
            seed: 13,
            background_ppm: 500_000,
            ..FaultConfig::default()
        };
        let mut f = FaultState::new(cfg);
        // At ~50% per attempt, 64 attempts at distinct times must contain
        // both outcomes (deterministically, given the fixed seed).
        let outcomes: Vec<bool> = (0..64u64).map(|t| f.read_fails(1, t * 1000)).collect();
        assert!(outcomes.iter().any(|&x| x));
        assert!(outcomes.iter().any(|&x| !x));
    }

    #[test]
    fn disabled_config_never_faults() {
        let mut f = FaultState::new(FaultConfig::default());
        for sector in 0..1000 {
            assert!(!f.read_fails(sector, sector * 17));
            assert!(!f.write_grows_defect(sector));
        }
    }
}
