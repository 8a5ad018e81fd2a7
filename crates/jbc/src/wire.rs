//! The wire toolkit every binary format in the workspace shares: LEB128
//! varints and CRC-32/IEEE 802.3.
//!
//! TDRL event logs (`replay::codec`), TDRB batches and TDRC control
//! frames (`audit-pipeline`) and TDRP containers ([`crate::container`])
//! all use these definitions (`docs/FORMATS.md` §1). They live here, in
//! the lowest crate of the stack, so there is exactly one copy of each.

/// A varint could not be read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarintError {
    /// Input ended before the varint's last byte.
    Truncated,
    /// The varint ran past ten bytes or would overflow 64 bits.
    Overflow,
}

/// Append `v` as an unsigned LEB128 varint.
#[inline]
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Read an unsigned LEB128 varint at `*pos`, advancing it past the
/// varint. On error `*pos` is left somewhere inside the varint.
#[inline]
pub fn read_varint(buf: &[u8], pos: &mut usize) -> Result<u64, VarintError> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let b = *buf.get(*pos).ok_or(VarintError::Truncated)?;
        *pos += 1;
        let part = (b & 0x7f) as u64;
        if shift == 63 && part > 1 {
            return Err(VarintError::Overflow);
        }
        v |= part << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(VarintError::Overflow)
}

/// Incremental CRC-32/IEEE 802.3 hasher (reflected, init and final XOR
/// `0xFFFFFFFF`).
///
/// The streaming readers validate checksums as bytes arrive — feed chunks
/// with [`update`](Crc32::update) in any split and [`value`](Crc32::value)
/// equals [`crc32`] of the concatenation. Bitwise implementation: fast
/// enough for ingest and dependency free.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Fresh hasher (equivalent to the CRC of zero bytes).
    #[inline]
    pub fn new() -> Self {
        Crc32 { state: !0u32 }
    }

    /// Fold `data` into the running checksum.
    #[inline]
    pub fn update(&mut self, data: &[u8]) {
        let mut crc = self.state;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xedb8_8320 & mask);
            }
        }
        self.state = crc;
    }

    /// The checksum of everything fed so far (does not consume the hasher;
    /// further [`update`](Crc32::update)s continue from this state).
    #[inline]
    pub fn value(&self) -> u32 {
        !self.state
    }
}

/// One-shot CRC-32/IEEE of `data`.
#[inline]
pub fn crc32(data: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(data);
    h.value()
}
