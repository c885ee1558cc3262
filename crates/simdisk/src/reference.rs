//! The per-sector request path, kept as a reference for the run-based
//! one in the crate root, and a differential property test between them.
//!
//! The reference walks a request one sector at a time: it decomposes
//! every sector into CHS, charges its time, asks the fault model about it
//! and moves its 512 bytes on its own. [`SimDisk`]'s real path moves
//! whole track runs and keeps per-sector work only where it is
//! observable. The test drives both over the same random request scripts
//! and requires every observable to agree.

use crate::{BlockDev, DiskError, SimDisk, SECTOR_SIZE};

impl SimDisk {
    /// Per-sector twin of `transfer`: `op` is called once per sector,
    /// after the sector's time is charged, and may abort the transfer.
    fn reference_transfer<F>(&mut self, sector: u64, count: u64, mut op: F) -> Result<(), DiskError>
    where
        F: FnMut(&mut Self, u64) -> Result<(), DiskError>,
    {
        let sector_us = self.timing.sector_us(&self.geometry);
        let mut prev_cylinder = self.geometry.chs(sector).cylinder;
        let mut moved = 0u64;
        let mut result = Ok(());
        for i in 0..count {
            let cur_sector = sector + i;
            let chs = self.geometry.chs(cur_sector);
            if i > 0 && chs.sector == 0 {
                if chs.cylinder != prev_cylinder {
                    let t = self.timing.min_seek_us;
                    self.stats.switch_us += t;
                    self.clock_us += t;
                    self.head_cylinder = chs.cylinder;
                    self.trace(ld_trace::Event::HeadSwitch { us: t });
                } else {
                    self.stats.switch_us += self.timing.head_switch_us;
                    self.clock_us += self.timing.head_switch_us;
                    self.trace(ld_trace::Event::HeadSwitch {
                        us: self.timing.head_switch_us,
                    });
                }
            }
            self.clock_us += sector_us;
            self.stats.transfer_us += sector_us;
            moved += 1;
            if let Err(e) = op(self, cur_sector) {
                result = Err(e);
                break;
            }
            prev_cylinder = chs.cylinder;
        }
        if moved > 0 {
            self.trace(ld_trace::Event::Transfer {
                sectors: moved,
                us: moved * sector_us,
            });
        }
        result
    }

    /// Per-sector twin of `read_sectors`.
    pub(crate) fn reference_read(&mut self, sector: u64, buf: &mut [u8]) -> Result<(), DiskError> {
        let count = self.check(sector, buf.len())?;
        self.stats.read_ops += 1;
        let (c0, c1) = self.cache_range;
        if self.timing.readahead_buffer_sectors > 0 && sector >= c0 && sector + count <= c1 {
            self.stats.cached_reads += 1;
            self.trace(ld_trace::Event::CacheHit {
                sector,
                sectors: count,
            });
            self.clock_us += self.timing.command_overhead_us;
            self.stats.overhead_us += self.timing.command_overhead_us;
            if self.timing.command_overhead_us > 0 {
                self.trace(ld_trace::Event::CmdOverhead {
                    us: self.timing.command_overhead_us,
                });
            }
            let t = count * self.timing.bus_sector_us;
            self.clock_us += t;
            self.stats.transfer_us += t;
            if t > 0 {
                self.trace(ld_trace::Event::Transfer {
                    sectors: count,
                    us: t,
                });
            }
            for (i, chunk) in buf.chunks_mut(SECTOR_SIZE).enumerate() {
                self.store.read_run(sector + i as u64, chunk);
                self.stats.sectors_read += 1;
            }
            return Ok(());
        }
        if self.timing.readahead_buffer_sectors > 0 {
            self.stats.cache_misses += 1;
            self.trace(ld_trace::Event::CacheMiss {
                sector,
                sectors: count,
            });
        }
        self.position_for(sector);
        let mut bufs: Vec<&mut [u8]> = buf.chunks_mut(SECTOR_SIZE).collect();
        self.reference_transfer(sector, count, |disk, s| {
            let now = disk.clock_us;
            if let Some(f) = disk.faults.as_mut() {
                if f.read_fails(s, now) {
                    disk.stats.read_faults += 1;
                    return Err(DiskError::Unreadable { sector: s });
                }
            }
            let idx = (s - sector) as usize;
            disk.store.read_run(s, bufs[idx]);
            disk.stats.sectors_read += 1;
            Ok(())
        })?;
        if self.timing.readahead_buffer_sectors > 0 {
            let mut end = (sector + count + self.timing.readahead_buffer_sectors)
                .min(self.geometry.total_sectors());
            if let Some(f) = &self.faults {
                let mut e = sector + count;
                while e < end && !f.persistently_bad(e) {
                    e += 1;
                }
                end = e;
            }
            self.cache_range = (sector, end);
            self.head_cylinder = self.geometry.cylinder_of(end - 1);
        }
        Ok(())
    }

    /// Per-sector twin of `write_sectors`.
    pub(crate) fn reference_write(&mut self, sector: u64, data: &[u8]) -> Result<(), DiskError> {
        let count = self.check(sector, data.len())?;
        self.stats.write_ops += 1;
        self.cache_range = (0, 0);
        self.position_for(sector);
        let chunks: Vec<&[u8]> = data.chunks(SECTOR_SIZE).collect();
        self.reference_transfer(sector, count, |disk, s| {
            let idx = (s - sector) as usize;
            disk.store.write_run(s, chunks[idx]);
            if let Some(r) = disk.recording.as_mut() {
                r.landed(s, chunks[idx]);
            }
            disk.stats.sectors_written += 1;
            if let Some(f) = disk.faults.as_mut() {
                f.write_grows_defect(s);
            }
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use crate::{hp_c3010, BlockDev, FaultConfig, Geometry, SimDisk, SECTOR_SIZE};

    /// Where a request starts: anywhere, or `back` sectors before the
    /// start of a track, so it crosses a track (and often a cylinder)
    /// boundary.
    #[derive(Debug, Clone, Copy)]
    enum At {
        Any(u64),
        BeforeTrack { track: u64, back: u64 },
    }

    #[derive(Debug, Clone, Copy)]
    enum Step {
        Write {
            at: At,
            len: u64,
            seed: u8,
        },
        /// A write of zeros: over unwritten pages it must allocate
        /// nothing, over written ones it must still land.
        Zeros {
            at: At,
            len: u64,
        },
        Read {
            at: At,
            len: u64,
        },
        /// Read just past the last read: served from the read-ahead
        /// buffer when it still covers the range.
        ReadOn {
            skip: u64,
            len: u64,
        },
        CrashNow,
        Revive,
        Think {
            us: u64,
        },
    }

    fn at() -> impl Strategy<Value = At> {
        prop_oneof![
            1 => any::<u64>().prop_map(At::Any),
            2 => (any::<u64>(), 1u64..24).prop_map(|(track, back)| At::BeforeTrack { track, back }),
        ]
    }

    fn len() -> impl Strategy<Value = u64> {
        prop_oneof![
            4 => 1u64..20,
            2 => 20u64..200,
            1 => 200u64..700,
        ]
    }

    fn step() -> impl Strategy<Value = Step> {
        prop_oneof![
            6 => (at(), len(), any::<u8>()).prop_map(|(at, len, seed)| Step::Write { at, len, seed }),
            3 => (at(), len()).prop_map(|(at, len)| Step::Zeros { at, len }),
            5 => (at(), len()).prop_map(|(at, len)| Step::Read { at, len }),
            4 => (0u64..8, 1u64..40).prop_map(|(skip, len)| Step::ReadOn { skip, len }),
            1 => Just(Step::CrashNow),
            2 => Just(Step::Revive),
            2 => (0u64..20_000).prop_map(|us| Step::Think { us }),
        ]
    }

    /// A fault model with every rate non-zero, or none (`attach == 0`).
    fn faults() -> impl Strategy<Value = Option<FaultConfig>> {
        (
            0u8..4,
            any::<u64>(),
            1u32..40_000,
            1u32..3_000,
            1u32..20_000,
            1u32..30_000,
        )
            .prop_map(
                |(attach, seed, transient_ppm, latent_ppm, grown_ppm, background_ppm)| {
                    (attach > 0).then_some(FaultConfig {
                        seed,
                        transient_ppm,
                        transient_max_failures: 1 + (seed % 3) as u32,
                        latent_ppm,
                        grown_ppm,
                        background_ppm,
                    })
                },
            )
    }

    fn disk(shape: u8, faults: Option<FaultConfig>) -> SimDisk {
        // Small tracks put many boundaries under short requests; the
        // C3010's own shape checks the full-size track.
        let geometry = match shape {
            0 => Geometry::new(40, 3, 17),
            _ => hp_c3010::geometry_with_capacity(2 << 20),
        };
        let mut disk = SimDisk::new(geometry, hp_c3010::timing());
        disk.set_tracer(ld_trace::Tracer::new(1 << 16));
        disk.record_writes();
        if let Some(cfg) = faults {
            disk.set_faults(cfg);
        }
        disk
    }

    /// Everything a caller can observe of a disk between requests.
    fn observe(d: &SimDisk) -> (u64, crate::DiskStats, bool, u32, (u64, u64), u64, usize) {
        (
            d.clock_us,
            d.stats,
            d.down,
            d.head_cylinder,
            d.cache_range,
            d.recorded_writes(),
            d.resident_bytes(),
        )
    }

    fn fill(seed: u8, bytes: usize) -> Vec<u8> {
        (0..bytes)
            .map(|j| seed.wrapping_add((j / 7) as u8))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Track runs and the per-sector reference agree on everything
        /// observable: each result and read buffer, the clock, the stats,
        /// the head and read-ahead state, the pages the medium holds, the
        /// trace events, the final medium and the write log, sector for
        /// sector.
        #[test]
        fn runs_match_the_per_sector_reference(
            shape in 0u8..2,
            fault_config in faults(),
            script in proptest::collection::vec(step(), 1..48),
        ) {
            let mut runs = disk(shape, fault_config);
            let mut reference = disk(shape, fault_config);
            let total = runs.total_sectors();
            let spt = u64::from(runs.geometry().sectors_per_track);
            let mut last_read_end = 0u64;
            for (i, step) in script.iter().enumerate() {
                let place = |at: At, len: u64| {
                    let len = len.min(total);
                    let sector = match at {
                        At::Any(x) => x % (total - len + 1),
                        At::BeforeTrack { track, back } => {
                            let edge = (1 + track % (total / spt - 1)) * spt;
                            edge.saturating_sub(back).min(total - len)
                        }
                    };
                    (sector, len)
                };
                let (a, b) = match *step {
                    Step::Write { at, len, seed } => {
                        let (sector, len) = place(at, len);
                        let data = fill(seed, len as usize * SECTOR_SIZE);
                        (runs.write_sectors(sector, &data), reference.reference_write(sector, &data))
                    }
                    Step::Zeros { at, len } => {
                        let (sector, len) = place(at, len);
                        let data = vec![0u8; len as usize * SECTOR_SIZE];
                        (runs.write_sectors(sector, &data), reference.reference_write(sector, &data))
                    }
                    Step::Read { at, len } => {
                        let (sector, len) = place(at, len);
                        last_read_end = sector + len;
                        let mut x = vec![0xAAu8; len as usize * SECTOR_SIZE];
                        let mut y = x.clone();
                        let r = (runs.read_sectors(sector, &mut x), reference.reference_read(sector, &mut y));
                        prop_assert!(x == y, "step {}: read buffers differ", i);
                        r
                    }
                    Step::ReadOn { skip, len } => {
                        let (sector, len) = place(At::Any(last_read_end + skip), len);
                        last_read_end = sector + len;
                        let mut x = vec![0xAAu8; len as usize * SECTOR_SIZE];
                        let mut y = x.clone();
                        let r = (runs.read_sectors(sector, &mut x), reference.reference_read(sector, &mut y));
                        prop_assert!(x == y, "step {}: read buffers differ", i);
                        r
                    }
                    Step::CrashNow => {
                        runs.crash_now();
                        reference.crash_now();
                        (Ok(()), Ok(()))
                    }
                    Step::Revive => {
                        runs.revive();
                        reference.revive();
                        (Ok(()), Ok(()))
                    }
                    Step::Think { us } => {
                        runs.advance_us(us);
                        reference.advance_us(us);
                        (Ok(()), Ok(()))
                    }
                };
                prop_assert_eq!(a, b, "step {}: {:?}", i, step);
                prop_assert_eq!(observe(&runs), observe(&reference), "step {}: {:?}", i, step);
            }
            let events = |d: &SimDisk| d.tracer.as_ref().map(|t| t.tail(usize::MAX));
            prop_assert_eq!(runs.tracer.as_ref().map(|t| t.dropped()), Some(0));
            prop_assert!(events(&runs) == events(&reference), "trace events differ");
            prop_assert!(runs.image_bytes() == reference.image_bytes(), "media differ");
            let log = |d: &mut SimDisk| d.take_recording().map(|images| images.log);
            prop_assert!(log(&mut runs) == log(&mut reference), "write logs differ");
        }
    }
}
