//! The file-system superblock, stored in the store's well-known block.

use fsutil::wire;

use crate::config::InodeMode;
use crate::store::Addr;
use crate::{FsError, Result};

const MAGIC: u32 = 0x4D58_4C44; // "MXLD"
const VERSION: u16 = 1;

/// Decoded superblock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuperBlock {
    /// Total i-nodes.
    pub ninodes: u32,
    /// I-node storage mode.
    pub inode_mode: InodeMode,
    /// Addresses of the i-node containers: packed i-node blocks
    /// ([`InodeMode::Packed`]) or i-node index blocks
    /// ([`InodeMode::SmallBlocks`]).
    pub inode_containers: Vec<Addr>,
    /// Addresses of the i-node bitmap blocks.
    pub bitmap_blocks: Vec<Addr>,
}

impl SuperBlock {
    /// Encodes into one file-system block.
    ///
    /// # Panics
    ///
    /// Panics if the superblock does not fit `block_size` — the format
    /// parameters are validated up front.
    pub fn encode(&self, block_size: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(block_size);
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&VERSION.to_le_bytes());
        let flags: u16 = (matches!(self.inode_mode, InodeMode::SmallBlocks) as u16) << 1;
        out.extend_from_slice(&flags.to_le_bytes());
        out.extend_from_slice(&self.ninodes.to_le_bytes());
        out.extend_from_slice(&(self.inode_containers.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.bitmap_blocks.len() as u32).to_le_bytes());
        for a in &self.inode_containers {
            out.extend_from_slice(&a.to_le_bytes());
        }
        for a in &self.bitmap_blocks {
            out.extend_from_slice(&a.to_le_bytes());
        }
        assert!(out.len() <= block_size, "superblock overflow");
        out.resize(block_size, 0);
        out
    }

    /// Decodes a superblock image.
    pub fn decode(data: &[u8]) -> Result<Self> {
        if data.len() < 20 {
            return Err(FsError::BadSuperblock);
        }
        let magic = wire::le_u32(data, 0);
        let version = wire::le_u16(data, 4);
        if magic != MAGIC || version != VERSION {
            return Err(FsError::BadSuperblock);
        }
        let flags = wire::le_u16(data, 6);
        let ninodes = wire::le_u32(data, 8);
        let nc = wire::le_u32(data, 12) as usize;
        let nb = wire::le_u32(data, 16) as usize;
        let need = 20 + 4 * (nc + nb);
        if data.len() < need {
            return Err(FsError::BadSuperblock);
        }
        let mut read = |i: usize| wire::le_u32(data, 20 + 4 * i);
        let inode_containers = (0..nc).map(&mut read).collect();
        let bitmap_blocks = (nc..nc + nb).map(&mut read).collect();
        Ok(Self {
            ninodes,
            inode_mode: if flags & 2 != 0 {
                InodeMode::SmallBlocks
            } else {
                InodeMode::Packed
            },
            inode_containers,
            bitmap_blocks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let sb = SuperBlock {
            ninodes: 16384,
            inode_mode: InodeMode::SmallBlocks,
            inode_containers: (100..120).collect(),
            bitmap_blocks: vec![50],
        };
        let bytes = sb.encode(4096);
        assert_eq!(bytes.len(), 4096);
        assert_eq!(SuperBlock::decode(&bytes).unwrap(), sb);
    }

    #[test]
    fn garbage_is_rejected() {
        assert_eq!(
            SuperBlock::decode(&[0u8; 4096]),
            Err(FsError::BadSuperblock)
        );
        assert_eq!(SuperBlock::decode(&[1, 2]), Err(FsError::BadSuperblock));
    }
}
