//! Shared file-system substrate: the namespace engine, buffer cache, bitmap
//! allocator, directory entry codec, and path utilities.
//!
//! These pieces are the common machinery of the three file systems in this
//! workspace (`minix-fs`, `ffs`, and the directory layer of `sprite-lfs`):
//! the file management that `minix-fs` and `ffs` share, generic over their
//! disk management ([`fs::Fs`] over a [`fs::Layout`]), a write-back LRU
//! [`BufferCache`] (the paper's 6,144 KB static MINIX cache), a persistent
//! [`Bitmap`] allocator (MINIX free-i-node/free-zone maps and FFS
//! cylinder-group maps), MINIX-style fixed-size directory entries with the
//! per-directory index that answers their linear scan
//! ([`dirent::DirIndex`]), and absolute-path parsing.

mod bitmap;
mod cache;
pub mod dirent;
pub mod fs;
pub mod path;

pub use bitmap::Bitmap;
pub use cache::{BufferCache, Evicted, SPARE_MAX};
pub use ld_core::wire;
pub use path::PathError;
