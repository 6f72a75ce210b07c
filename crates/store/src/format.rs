//! Little-endian encode/decode primitives shared by every on-disk
//! structure: a growing byte-vector writer and a cursor reader whose
//! every read is bounds-checked into [`StoreError::Truncated`].

use crate::StoreError;

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Bounds-checked cursor over a decoded byte slice. `what` names the
/// structure being decoded in the truncation errors.
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
    what: &'static str,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(bytes: &'a [u8], what: &'static str) -> Self {
        Reader { bytes, at: 0, what }
    }

    pub(crate) fn take(&mut self, len: usize) -> Result<&'a [u8], StoreError> {
        let end = self
            .at
            .checked_add(len)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(StoreError::Truncated { what: self.what })?;
        let out = &self.bytes[self.at..end];
        self.at = end;
        Ok(out)
    }

    pub(crate) fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Bytes consumed so far.
    pub(crate) fn position(&self) -> usize {
        self.at
    }

    /// `count` little-endian `u32`s, taken in one step: a count the
    /// remaining bytes cannot back fails as truncated before any memory is
    /// reserved for it.
    pub(crate) fn u32s(
        &mut self,
        count: usize,
    ) -> Result<impl Iterator<Item = u32> + 'a, StoreError> {
        let len = count
            .checked_mul(4)
            .ok_or(StoreError::Truncated { what: self.what })?;
        let words = self.take(len)?.chunks_exact(4);
        Ok(words.map(|w| u32::from_le_bytes(w.try_into().unwrap())))
    }

    /// Bytes not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    /// Fails unless the cursor consumed the slice exactly.
    pub(crate) fn finish(self) -> Result<(), StoreError> {
        if self.at == self.bytes.len() {
            Ok(())
        } else {
            Err(StoreError::Corrupt {
                detail: format!(
                    "{}: {} trailing bytes after the declared content",
                    self.what,
                    self.bytes.len() - self.at
                ),
            })
        }
    }
}
