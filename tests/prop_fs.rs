//! Property test: the MINIX file system behaves identically over the raw
//! update-in-place store and the Logical Disk store — the backend swap
//! that *is* the paper's contribution must be observably invisible. The FFS
//! baseline, which shares MINIX's namespace engine, must answer alike too.
//!
//! Remounts and directory removal are among the ops, so random sequences
//! also cover directories without an index (after a mount) and directory
//! i-nodes freed and reused.

use ld_core::wire::fnv1a64;
use logical_disk_repro::ffs::{Ffs, FfsConfig};
use logical_disk_repro::minix_fs::{BlockStore, FsConfig, FsCpuModel, LdStore, MinixFs, RawStore};
use logical_disk_repro::simdisk::MemDisk;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Create {
        name: u8,
    },
    Write {
        name: u8,
        offset: u16,
        len: u16,
        seed: u8,
    },
    Read {
        name: u8,
        offset: u16,
        len: u16,
    },
    Unlink {
        name: u8,
    },
    Truncate {
        name: u8,
    },
    Rename {
        from: u8,
        to: u8,
    },
    Mkdir {
        name: u8,
    },
    Rmdir {
        name: u8,
    },
    Readdir,
    Sync,
    DropCaches,
    /// Sync, then mount the store afresh.
    Remount,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => any::<u8>().prop_map(|name| Op::Create { name: name % 24 }),
        6 => (any::<u8>(), any::<u16>(), any::<u16>(), any::<u8>())
            .prop_map(|(n, o, l, s)| Op::Write {
                name: n % 24,
                offset: o % 20_000,
                len: l % 6_000,
                seed: s,
            }),
        5 => (any::<u8>(), any::<u16>(), any::<u16>())
            .prop_map(|(n, o, l)| Op::Read { name: n % 24, offset: o % 24_000, len: l % 8_000 }),
        2 => any::<u8>().prop_map(|name| Op::Unlink { name: name % 24 }),
        1 => any::<u8>().prop_map(|name| Op::Truncate { name: name % 24 }),
        2 => (any::<u8>(), any::<u8>())
            .prop_map(|(f, t)| Op::Rename { from: f % 24, to: t % 24 }),
        1 => any::<u8>().prop_map(|name| Op::Mkdir { name: name % 8 }),
        1 => any::<u8>().prop_map(|name| Op::Rmdir { name: name % 8 }),
        1 => Just(Op::Readdir),
        1 => Just(Op::Sync),
        1 => Just(Op::DropCaches),
        1 => Just(Op::Remount),
    ]
}

fn payload(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(23) ^ seed)
        .collect()
}

/// Applies an op FFS has too (not truncate, rename, rmdir or remount) to
/// `$fs`; returns a comparable observation string.
macro_rules! apply_shared {
    ($fs:expr, $op:expr) => {{
        let fs = $fs;
        match $op {
            Op::Create { name } => format!("{:?}", fs.create(&format!("/f{name}"))),
            Op::Write {
                name,
                offset,
                len,
                seed,
            } => {
                let path = format!("/f{name}");
                match fs.lookup(&path) {
                    Ok(ino) => format!(
                        "{:?}",
                        fs.write(ino, u64::from(*offset), &payload(*len as usize, *seed))
                    ),
                    Err(e) => format!("lookup-failed {e:?}"),
                }
            }
            Op::Read { name, offset, len } => {
                let path = format!("/f{name}");
                match fs.lookup(&path) {
                    Ok(ino) => {
                        let mut buf = vec![0u8; *len as usize];
                        match fs.read(ino, u64::from(*offset), &mut buf) {
                            Ok(n) => format!("read {n} {:?}", fnv1a64(&buf[..n])),
                            Err(e) => format!("read-failed {e:?}"),
                        }
                    }
                    Err(e) => format!("lookup-failed {e:?}"),
                }
            }
            Op::Unlink { name } => format!("{:?}", fs.unlink(&format!("/f{name}"))),
            Op::Mkdir { name } => format!("{:?}", fs.mkdir(&format!("/d{name}"))),
            Op::Readdir => {
                let mut names: Vec<String> = fs
                    .readdir("/")
                    .expect("readdir")
                    .into_iter()
                    .map(|d| d.name)
                    .collect();
                names.sort();
                format!("{names:?}")
            }
            Op::Sync => format!("{:?}", fs.sync()),
            Op::DropCaches => format!("{:?}", fs.drop_caches()),
            Op::Truncate { .. } | Op::Rename { .. } | Op::Rmdir { .. } | Op::Remount => {
                unreachable!("MINIX-only op {:?}", $op)
            }
        }
    }};
}

/// Whether FFS has the op.
fn ffs_has(op: &Op) -> bool {
    !matches!(
        op,
        Op::Truncate { .. } | Op::Rename { .. } | Op::Rmdir { .. } | Op::Remount
    )
}

/// An observation with a new i-node's number masked: FFS numbers i-nodes by
/// cylinder group, MINIX from a bitmap.
fn masked(op: &Op, seen: String) -> String {
    match op {
        Op::Create { .. } | Op::Mkdir { .. } if seen.starts_with("Ok(") => "Ok(_)".into(),
        _ => seen,
    }
}

/// Applies one op; returns a comparable observation string.
fn apply<S: BlockStore>(fs: &mut MinixFs<S>, op: &Op) -> String {
    match op {
        Op::Truncate { name } => {
            let path = format!("/f{name}");
            match fs.lookup(&path) {
                Ok(ino) => format!("{:?}", fs.truncate(ino)),
                Err(e) => format!("lookup-failed {e:?}"),
            }
        }
        Op::Rename { from, to } => {
            format!("{:?}", fs.rename(&format!("/f{from}"), &format!("/f{to}")))
        }
        Op::Rmdir { name } => format!("{:?}", fs.rmdir(&format!("/d{name}"))),
        Op::Remount => unreachable!("remounting takes the file system by value"),
        _ => apply_shared!(fs, op),
    }
}

/// Syncs, then mounts the same store afresh: nothing cached, no directory
/// indexed.
fn remount<S: BlockStore>(mut fs: MinixFs<S>) -> (MinixFs<S>, String) {
    let synced = format!("{:?}", fs.sync());
    (
        MinixFs::mount(fs.into_store(), config()).expect("remount"),
        synced,
    )
}

fn config() -> FsConfig {
    FsConfig {
        ninodes: 64,
        cache_bytes: 128 << 10,
        cpu: FsCpuModel::free(),
        ..FsConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn backends_are_observably_identical(ops in proptest::collection::vec(op_strategy(), 1..80)) {
        let raw_store = RawStore::format(MemDisk::with_capacity(24 << 20)).expect("format raw");
        let mut raw = MinixFs::format(raw_store, config()).expect("mkfs raw");
        let ld_store = LdStore::format(
            MemDisk::with_capacity(24 << 20),
            logical_disk_repro::lld::LldConfig::small_for_tests(),
        )
        .expect("format ld");
        let mut ld = MinixFs::format(ld_store, config()).expect("mkfs ld");

        for (i, op) in ops.iter().enumerate() {
            let (a, b) = match op {
                Op::Remount => {
                    let (a, b);
                    (raw, a) = remount(raw);
                    (ld, b) = remount(ld);
                    (a, b)
                }
                _ => (apply(&mut raw, op), apply(&mut ld, op)),
            };
            prop_assert_eq!(a, b, "op {} = {:?} diverged", i, op);
        }

        // FFS runs the ops it has, beside MINIX on a fresh raw store.
        let raw_store = RawStore::format(MemDisk::with_capacity(24 << 20)).expect("format raw");
        let mut raw = MinixFs::format(raw_store, config()).expect("mkfs raw");
        let mut ffs = Ffs::format(MemDisk::with_capacity(24 << 20), FfsConfig::small_for_tests())
            .expect("mkfs ffs");
        for (i, op) in ops.iter().enumerate().filter(|(_, op)| ffs_has(op)) {
            let a = masked(op, apply(&mut raw, op));
            let b = masked(op, apply_shared!(&mut ffs, op));
            prop_assert_eq!(a, b, "op {} = {:?} diverged on FFS", i, op);
        }
    }
}
