//! E5 — Table 6: blocks written per operation, Sprite LFS vs MINIX LLD.
//!
//! The paper's formulas (δ = amortized i-node-map block cost, ε =
//! amortized dirty-i-node cost):
//!
//! | operation            | Sprite LFS        | MINIX LLD    |
//! |----------------------|-------------------|--------------|
//! | create or delete     | 1 + 2δ + 2ε       | 1 + 2ε       |
//! | overwrite (direct)   | 1 + δ + ε         | 1 + ε        |
//! | overwrite (indirect) | 2 + δ + ε         | 1 + ε        |
//! | overwrite (dbl-ind)  | 3 + δ + ε         | 1 + ε        |
//! | append (indirect)    | 2..3 + δ + ε      | 2 + ε        |
//!
//! Here both systems are *measured*: every block each implementation
//! writes is counted by category and divided by the operation count. Ops
//! are batched (flush every 16, checkpoint every 128) so the amortized
//! quantities δ and ε take their steady-state values.

use minix_fs::{FsConfig, InodeMode, LdStore, MinixFs};
use simdisk::SimDisk;
use sprite_lfs::{LfsConfig, SpriteLfs};

use crate::report::{col, json_col, num, Cell, Report, Table};
use crate::rig;
use crate::workload::compressible_data;

const BATCH: usize = 16;
const CKPT_EVERY: usize = 128;
/// Overwrite probes use a smaller flush window whose ops touch distinct
/// blocks, so write-absorption in either system's cache cannot hide the
/// per-operation cost.
const OW_BATCH: usize = 4;

/// Per-operation cost in 4 KB block equivalents, by category.
#[derive(Debug, Clone, Copy, Default)]
struct Cost {
    data: f64,
    inode: f64,
    indirect: f64,
    imap: f64,
}

impl Cost {
    fn total(&self) -> f64 {
        self.data + self.inode + self.indirect + self.imap
    }

    /// The breakdown cell, then the total on its own.
    fn cells(&self) -> [Cell; 2] {
        let (total, data, inode, indirect, imap) = (
            self.total(),
            self.data,
            self.inode,
            self.indirect,
            self.imap,
        );
        let breakdown =
            format!("{total:.2} (d {data:.2} + i {inode:.3} + ind {indirect:.2} + map {imap:.3})");
        [breakdown.into(), num(total, 2)]
    }
}

// ----- Sprite side -----

struct SpriteProbe {
    fs: SpriteLfs<SimDisk>,
}

impl SpriteProbe {
    fn new() -> Self {
        let fs = SpriteLfs::format(rig::disk_sized(256 << 20), LfsConfig::default())
            .expect("format sprite");
        Self { fs }
    }

    fn measure(&mut self, n: usize, mut op: impl FnMut(&mut SpriteLfs<SimDisk>, usize)) -> Cost {
        self.measure_batched(n, BATCH, &mut op)
    }

    fn measure_batched(
        &mut self,
        n: usize,
        batch: usize,
        op: &mut impl FnMut(&mut SpriteLfs<SimDisk>, usize),
    ) -> Cost {
        self.fs.checkpoint().expect("checkpoint");
        self.fs.reset_counters();
        for i in 0..n {
            op(&mut self.fs, i);
            if (i + 1) % batch == 0 {
                self.fs.flush().expect("flush");
            }
            if (i + 1) % CKPT_EVERY == 0 {
                self.fs.checkpoint().expect("checkpoint");
            }
        }
        self.fs.checkpoint().expect("checkpoint");
        let c = *self.fs.counters();
        Cost {
            data: c.data_blocks as f64 / n as f64,
            inode: c.inode_blocks as f64 / n as f64,
            indirect: c.indirect_blocks as f64 / n as f64,
            imap: c.imap_blocks as f64 / n as f64,
        }
    }
}

// ----- MINIX LLD side -----

struct LldProbe {
    fs: MinixFs<LdStore<SimDisk>>,
}

impl LldProbe {
    fn new() -> Self {
        let config = FsConfig {
            inode_mode: InodeMode::SmallBlocks,
            ..rig::minix_config()
        };
        let store =
            LdStore::format(rig::disk_sized(256 << 20), rig::lld_config()).expect("format LD");
        Self {
            fs: MinixFs::format(store, config).expect("format MINIX LLD"),
        }
    }

    /// Measures user block-equivalents per op: data blocks count 1, small
    /// i-node blocks count 64/4096, exactly as the paper bills ε.
    fn measure(
        &mut self,
        n: usize,
        mut op: impl FnMut(&mut MinixFs<LdStore<SimDisk>>, usize),
    ) -> Cost {
        self.measure_batched(n, BATCH, &mut op)
    }

    fn measure_batched(
        &mut self,
        n: usize,
        batch: usize,
        op: &mut impl FnMut(&mut MinixFs<LdStore<SimDisk>>, usize),
    ) -> Cost {
        self.fs.sync().expect("sync");
        self.fs.store_mut().lld_mut().reset_stats();
        for i in 0..n {
            op(&mut self.fs, i);
            if (i + 1) % batch == 0 {
                self.fs.sync().expect("sync");
            }
        }
        self.fs.sync().expect("sync");
        let s = *self.fs.store().lld().stats();
        // Split user writes into full 4096-byte blocks (data/dir/indirect)
        // and 64-byte i-node blocks: with W total writes and U total bytes,
        // 4096·d + 64·i = U and d + i = W.
        let inode_writes =
            (4096 * s.block_writes).saturating_sub(s.user_bytes_written) / (4096 - 64);
        let data_blocks = s.block_writes - inode_writes;
        Cost {
            data: data_blocks as f64 / n as f64,
            inode: (inode_writes as f64 * 64.0 / 4096.0) / n as f64,
            indirect: 0.0, // Included in data_blocks when they occur.
            imap: 0.0,     // LD has no i-node map.
        }
    }
}

/// Runs the comparison.
pub fn run(opts: super::Opts) -> Report {
    let n = if opts.quick { 128 } else { 512 };
    let block = 4096usize;
    let data = compressible_data(block, 0x7AB1E6);

    // --- Sprite LFS ---
    let mut sp = SpriteProbe::new();
    let create = sp.measure(n, |fs, i| {
        fs.create(&format!("c{i:05}")).expect("create");
    });
    let delete = sp.measure(n, |fs, i| {
        fs.delete(&format!("c{i:05}")).expect("delete");
    });
    // A file spanning direct + indirect + double-indirect ranges.
    let big = sp.fs.create("big").expect("create big");
    for idx in [0u64, 5, 9, 10, 500, 1030, 1040, 1100] {
        sp.fs.write_block(big, idx, &data).expect("prefill");
    }
    sp.fs.checkpoint().expect("ckpt");
    let ow_direct = sp.measure_batched(n, OW_BATCH, &mut |fs, i| {
        // Distinct direct blocks within each flush window.
        fs.write_block(big, (i % 8) as u64, &data).expect("ow");
    });
    let ow_ind = sp.measure(n, |fs, i| {
        fs.write_block(big, 10 + (i % 100) as u64, &data)
            .expect("ow");
    });
    let ow_dind = sp.measure(n, |fs, i| {
        fs.write_block(big, 1034 + (i % 60) as u64, &data)
            .expect("ow");
    });
    let mut next = 2000u64;
    let append = sp.measure(n, |fs, _| {
        // True appends: each op extends the file by one fresh block.
        fs.write_block(big, next, &data).expect("append");
        next += 1;
    });

    // --- MINIX LLD ---
    let mut ml = LldProbe::new();
    let m_create = ml.measure(n, |fs, i| {
        fs.create(&format!("/c{i:05}")).expect("create");
    });
    let m_delete = ml.measure(n, |fs, i| {
        fs.unlink(&format!("/c{i:05}")).expect("unlink");
    });
    let big_ino = ml.fs.create("/big").expect("create big");
    // Prefill so direct, indirect, and double-indirect ranges exist.
    for idx in [0u64, 5, 6, 7, 500, 1030, 1034, 1100] {
        ml.fs
            .write(big_ino, idx * block as u64, &data)
            .expect("prefill");
    }
    ml.fs.sync().expect("sync");
    let m_ow_direct = ml.measure_batched(n, OW_BATCH, &mut |fs, i| {
        // Distinct direct blocks within each flush window.
        fs.write(big_ino, ((i % 7) * block) as u64, &data)
            .expect("ow");
    });
    let m_ow_ind = ml.measure(n, |fs, i| {
        fs.write(big_ino, ((7 + i % 100) * block) as u64, &data)
            .expect("ow");
    });
    let m_ow_dind = ml.measure(n, |fs, i| {
        fs.write(big_ino, ((1034 + i % 60) * block) as u64, &data)
            .expect("ow");
    });
    let mut app_idx = 2000u64;
    let m_append = ml.measure(n, |fs, _| {
        // True appends: each op extends the file by one fresh block.
        fs.write(big_ino, app_idx * block as u64, &data)
            .expect("append");
        app_idx += 1;
    });

    let mut t = Table::new(
        "",
        [
            col("operation", "operation", ""),
            col("Sprite LFS (blocks/op)", "sprite", ""),
            json_col("sprite_total", "blocks/op"),
            col("MINIX LLD (blocks/op)", "lld", ""),
            json_col("lld_total", "blocks/op"),
        ],
    );
    for (op, sprite, lld) in [
        ("create", create, m_create),
        ("delete", delete, m_delete),
        ("overwrite, direct", ow_direct, m_ow_direct),
        ("overwrite, indirect", ow_ind, m_ow_ind),
        ("overwrite, dbl-indirect", ow_dind, m_ow_dind),
        ("append, indirect range", append, m_append),
    ] {
        let ([sprite, sprite_total], [lld, lld_total]) = (sprite.cells(), lld.cells());
        t.row([op.into(), sprite, sprite_total, lld, lld_total]);
    }

    let mut report = Report::new("table6", opts.quick);
    report
        .note(
            "E5: Table 6 — measured blocks written per operation\n\
             (d = data, i = dirty i-nodes (ε), ind = indirect cascades, map = i-node map (δ))\n\
             Paper: Sprite pays δ + ε + indirect cascades everywhere; MINIX LLD never\n\
             pays δ or cascades because block numbers are location-independent.\n\n",
        )
        .table(t);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every E5 claim (`crate::claims`) holds at quick scale.
    #[test]
    fn claims_hold_quick() {
        crate::claims::assert_quick("table6");
    }

    /// Sprite LFS rewrites indirect blocks when it overwrites blocks in
    /// the indirect range: with a flush every 4 ops they cost more than
    /// 0.15 blocks/op. The report's "overwrite, indirect" row flushes
    /// every 16 ops and shows 0.06 at quick scale, so this probe is not a
    /// claim over the report. (MINIX LLD's side is the E5 claims.)
    #[test]
    fn lld_avoids_cascading_updates() {
        let data = compressible_data(4096, 1);
        let mut sp = SpriteProbe::new();
        let big = sp.fs.create("big").expect("create");
        for idx in [0u64, 10, 50, 100] {
            sp.fs.write_block(big, idx, &data).expect("prefill");
        }
        let sprite = sp.measure_batched(64, 4, &mut |fs, i| {
            fs.write_block(big, 10 + (i % 90) as u64, &data)
                .expect("ow");
        });
        assert!(
            sprite.indirect > 0.15,
            "Sprite overwrites in the indirect range must rewrite indirect \
             blocks ({:.2}/op)",
            sprite.indirect
        );
    }
}
