//! The data-file codec: a header plus fixed-size checksummed blocks.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic     8 bytes   "USSBLK1\n"
//! version   u32       FORMAT_VERSION
//! blocksize u32       BLOCK_SIZE
//! length    u64       payload length in bytes
//! headsum   u64       checksum(HEADER_SALT ^ generation, bytes above)
//! blocks    ⌈length/BLOCK_SIZE⌉ ×:
//!   blocksum  u64     checksum(BLOCK_SALT ^ generation ^ index, chunk)
//!   chunk     BLOCK_SIZE bytes (zero-padded tail in the final block)
//! ```
//!
//! The per-block salt folds in the *generation and the block index*: a
//! block transplanted from another generation or another slot fails its
//! checksum even when its bytes are internally intact. Decoding verifies
//! the magic, version, declared geometry, header checksum, file length,
//! and every block checksum before any payload byte is trusted.

use crate::checksum::checksum;
use crate::format::{put_u32, put_u64, Reader};
use crate::{StoreError, FORMAT_VERSION};

/// Magic bytes opening every data file.
pub const BLOCKS_MAGIC: [u8; 8] = *b"USSBLK1\n";

/// Fixed payload bytes per block.
pub const BLOCK_SIZE: usize = 4096;

/// Salt of the header checksum (xor-folded with the generation). Public
/// so corruption tests can craft valid-checksum files that fail a later,
/// typed check.
pub const HEADER_SALT: u64 = 0xB10C_4EAD_0000_0001;
/// Salt of each block checksum (xor-folded with generation and index).
pub const BLOCK_SALT: u64 = 0xB10C_DA7A_0000_0002;

/// Encodes `payload` into the checksummed block-file representation for
/// the given snapshot generation.
pub fn encode_blocks(payload: &[u8], generation: u64) -> Vec<u8> {
    let blocks = payload.len().div_ceil(BLOCK_SIZE);
    let mut out = Vec::with_capacity(32 + blocks * (8 + BLOCK_SIZE));
    out.extend_from_slice(&BLOCKS_MAGIC);
    put_u32(&mut out, FORMAT_VERSION);
    put_u32(&mut out, BLOCK_SIZE as u32);
    put_u64(&mut out, payload.len() as u64);
    let headsum = checksum(HEADER_SALT ^ generation, &out);
    put_u64(&mut out, headsum);
    let mut chunk = [0u8; BLOCK_SIZE];
    for (index, part) in payload.chunks(BLOCK_SIZE).enumerate() {
        chunk[..part.len()].copy_from_slice(part);
        chunk[part.len()..].fill(0);
        let salt = BLOCK_SALT ^ generation ^ index as u64;
        put_u64(&mut out, checksum(salt, &chunk));
        out.extend_from_slice(&chunk);
    }
    out
}

/// Decodes and fully verifies a block file, returning the payload.
///
/// # Errors
///
/// [`StoreError::BadMagic`] / [`StoreError::Version`] /
/// [`StoreError::Truncated`] / [`StoreError::Checksum`] /
/// [`StoreError::Corrupt`] on the first violated property.
pub fn decode_blocks(bytes: &[u8], generation: u64) -> Result<Vec<u8>, StoreError> {
    let mut r = Reader::new(bytes, "block file header");
    if r.take(8)? != BLOCKS_MAGIC {
        return Err(StoreError::BadMagic { what: "blocks" });
    }
    let version = r.u32()?;
    let block_size = r.u32()?;
    let length = r.u64()?;
    let headsum_at = r.position();
    let headsum = r.u64()?;
    if checksum(HEADER_SALT ^ generation, &bytes[..headsum_at]) != headsum {
        return Err(StoreError::Checksum {
            what: "block file header".to_string(),
        });
    }
    if version != FORMAT_VERSION {
        return Err(StoreError::Version {
            what: "blocks",
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    if block_size as usize != BLOCK_SIZE {
        return Err(StoreError::Corrupt {
            detail: format!("block size {block_size} (this build writes {BLOCK_SIZE})"),
        });
    }
    let blocks = (length as usize).div_ceil(BLOCK_SIZE);
    // Bounded by the bytes left: a forged header length fails as
    // truncated below instead of reserving memory up front.
    let mut payload = Vec::with_capacity((length as usize).min(r.remaining()));
    for index in 0..blocks {
        let mut br = Reader::new(
            r.take(8 + BLOCK_SIZE).map_err(|_| StoreError::Truncated {
                what: "block file body",
            })?,
            "block",
        );
        let blocksum = br.u64()?;
        let chunk = br.take(BLOCK_SIZE)?;
        let salt = BLOCK_SALT ^ generation ^ index as u64;
        if checksum(salt, chunk) != blocksum {
            return Err(StoreError::Checksum {
                what: format!("block {index}"),
            });
        }
        let want = (length as usize - payload.len()).min(BLOCK_SIZE);
        payload.extend_from_slice(&chunk[..want]);
        // Padding past the payload must be zero (a flipped pad byte is
        // caught by the block checksum already; this guards the encoder).
        debug_assert!(chunk[want..].iter().all(|&b| b == 0));
    }
    r.finish()?;
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_various_sizes() {
        for len in [
            0usize,
            1,
            BLOCK_SIZE - 1,
            BLOCK_SIZE,
            BLOCK_SIZE + 1,
            3 * BLOCK_SIZE + 17,
        ] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
            let file = encode_blocks(&payload, 5);
            assert_eq!(decode_blocks(&file, 5).unwrap(), payload, "len {len}");
        }
    }

    #[test]
    fn generation_mismatch_fails_closed() {
        let file = encode_blocks(b"payload", 1);
        assert!(matches!(
            decode_blocks(&file, 2),
            Err(StoreError::Checksum { .. })
        ));
    }

    #[test]
    fn swapped_blocks_fail_closed() {
        let payload: Vec<u8> = (0..2 * BLOCK_SIZE).map(|i| i as u8).collect();
        let mut file = encode_blocks(&payload, 1);
        let header = 32;
        let rec = 8 + BLOCK_SIZE;
        let (a, b) = (header, header + rec);
        let first: Vec<u8> = file[a..a + rec].to_vec();
        let second: Vec<u8> = file[b..b + rec].to_vec();
        file[a..a + rec].copy_from_slice(&second);
        file[b..b + rec].copy_from_slice(&first);
        assert!(matches!(
            decode_blocks(&file, 1),
            Err(StoreError::Checksum { what }) if what == "block 0"
        ));
    }

    #[test]
    fn version_bump_is_rejected_after_checksum_passes() {
        // Craft a file claiming version 2 with a *valid* header checksum,
        // so the typed rejection is the version check, not the checksum.
        let mut file = encode_blocks(b"x", 1);
        file[8..12].copy_from_slice(&2u32.to_le_bytes());
        let sum = checksum(HEADER_SALT ^ 1, &file[..24]);
        file[24..32].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            decode_blocks(&file, 1).unwrap_err(),
            StoreError::Version {
                what: "blocks",
                found: 2,
                supported: FORMAT_VERSION
            }
        );
    }

    #[test]
    fn truncation_fails_closed() {
        let file = encode_blocks(&vec![9u8; BLOCK_SIZE + 5], 1);
        for cut in [0, 7, 31, 40, file.len() - 1] {
            assert!(decode_blocks(&file[..cut], 1).is_err(), "cut {cut}");
        }
    }
}
