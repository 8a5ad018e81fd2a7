//! TDRP — the sealed, hash-addressed program container.
//!
//! A reference registry (the audit daemon's catalog of known-good
//! programs) needs programs to travel as *bytes*: named, shipped,
//! verified, and cached as first-class objects. This module defines that
//! wire form. A **TDRP container** wraps the canonical serialization of a
//! [`Program`] in the same envelope discipline as the TDRL/TDRB/TDRC
//! formats (`docs/FORMATS.md` §7 is the normative spec):
//!
//! ```text
//! container := u32 length | payload of exactly `length` bytes
//! payload   := magic "TDRP" | u16 version | u16 flags
//!              | 32-byte SHA-256 digest of the program bytes
//!              | varint program_len | canonical program bytes
//!              | u32 CRC-32 of everything after the magic, up to the trailer
//! ```
//!
//! The container is **hash-addressed**: the [`ReferenceId`] of a program
//! *is* the SHA-256 digest of its canonical byte encoding. Ids are
//! therefore self-certifying — [`open`] recomputes the digest over the
//! bytes it decoded and rejects a mismatch — and content-addressed: two
//! structurally equal programs seal to the same id, byte-for-byte.
//!
//! Canonicality is enforced, not assumed: [`open`] re-encodes the decoded
//! program and rejects the container if the bytes differ
//! ([`ContainerError::NotCanonical`]), so there is exactly one accepted
//! encoding per program value and the id function is injective over
//! accepted containers.
//!
//! This crate is dependency-free by design, so the primitives the
//! envelope needs are implemented in-crate: LEB128 varints and
//! CRC-32/IEEE in [`crate::wire`] (the one copy every format shares,
//! `docs/FORMATS.md` §1), SHA-256 here.

use std::collections::HashMap;
use std::fmt;

use crate::op::{ElemTy, Op};
use crate::program::{
    Class, ClassId, Field, FieldId, Handler, Method, MethodId, NativeDecl, NativeId, Program, Ty,
};
use crate::wire::{crc32, put_varint, read_varint, VarintError};

/// The four magic bytes opening every TDRP payload.
pub const MAGIC: [u8; 4] = *b"TDRP";

/// The container format version this module reads and writes.
pub const VERSION: u16 = 1;

/// Largest container payload [`open`] will accept (256 MiB): a corrupt
/// length prefix must not balloon memory.
pub const MAX_CONTAINER_LEN: u64 = 256 << 20;

// ---------------------------------------------------------------------------
// ReferenceId
// ---------------------------------------------------------------------------

/// The identity of a reference program: the SHA-256 digest of its
/// canonical byte encoding.
///
/// Ids are self-certifying — whoever holds the container can recompute
/// the id from its bytes, so a registry keyed by `ReferenceId` cannot be
/// poisoned by a mislabeled upload — and content-addressed: equal
/// programs have equal ids.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReferenceId(pub [u8; 32]);

impl ReferenceId {
    /// The id as lowercase hex (64 characters).
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for b in &self.0 {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }

    /// Parse a 64-character hex string back into an id.
    pub fn from_hex(s: &str) -> Option<ReferenceId> {
        let s = s.trim();
        if s.len() != 64 {
            return None;
        }
        let mut out = [0u8; 32];
        for (i, chunk) in s.as_bytes().chunks(2).enumerate() {
            let hi = (chunk[0] as char).to_digit(16)?;
            let lo = (chunk[1] as char).to_digit(16)?;
            out[i] = ((hi << 4) | lo) as u8;
        }
        Some(ReferenceId(out))
    }
}

impl fmt::Display for ReferenceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The 12-hex-digit prefix is unambiguous in any realistic registry
        // and keeps log lines readable; `to_hex` prints the full id.
        for b in &self.0[..6] {
            write!(f, "{b:02x}")?;
        }
        write!(f, "…")
    }
}

impl fmt::Debug for ReferenceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ReferenceId({})", self.to_hex())
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// A typed reason a TDRP container was rejected.
///
/// The classification follows the §2.1/§5.2 discipline of the sibling
/// formats: checks run in the order length, magic, checksum, version,
/// flags, body, trailing bytes, and every declared count is bounded
/// against the remaining input before anything is allocated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContainerError {
    /// Input ended before the container (or a declared length) completed.
    Truncated,
    /// The declared payload length exceeds [`MAX_CONTAINER_LEN`].
    FrameTooLarge {
        /// The declared payload length.
        len: u64,
        /// The bound it exceeded.
        max: u64,
    },
    /// The payload does not open with `"TDRP"`.
    BadMagic,
    /// The CRC-32 trailer does not match the payload.
    BadChecksum {
        /// The checksum stored in the trailer.
        stored: u32,
        /// The checksum computed over the received payload.
        computed: u32,
    },
    /// The container's version is not [`VERSION`].
    UnsupportedVersion(u16),
    /// A reserved flag bit is set.
    UnsupportedFlags(u16),
    /// A varint ran past its maximum width or would overflow 64 bits.
    VarintOverflow,
    /// A declared count or length exceeds what the input can hold.
    LengthOverflow {
        /// The declared element count or byte length.
        declared: u64,
        /// The bytes (or minimum element sizes) actually remaining.
        available: u64,
    },
    /// The stored digest does not match the SHA-256 of the program bytes
    /// — the id would not certify the content.
    DigestMismatch {
        /// The digest stored in the container header.
        stored: ReferenceId,
        /// The digest computed over the received program bytes.
        computed: ReferenceId,
    },
    /// The program bytes decode, but are not the canonical encoding of
    /// the decoded program — two different byte strings would otherwise
    /// name the same program under different ids.
    NotCanonical,
    /// A string's bytes are not valid UTF-8.
    BadUtf8,
    /// A tag byte (an `Option` or `bool` on the wire) holds a value
    /// outside its domain.
    BadTag {
        /// Which field was being decoded.
        what: &'static str,
        /// The offending byte.
        value: u8,
    },
    /// An opcode byte outside the instruction set.
    BadOpcode(u8),
    /// Input continues past the end of the container.
    TrailingBytes,
}

impl fmt::Display for ContainerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContainerError::Truncated => write!(f, "container truncated"),
            ContainerError::FrameTooLarge { len, max } => {
                write!(
                    f,
                    "container payload of {len} bytes exceeds the {max}-byte bound"
                )
            }
            ContainerError::BadMagic => write!(f, "bad magic (expected \"TDRP\")"),
            ContainerError::BadChecksum { stored, computed } => write!(
                f,
                "checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
            ),
            ContainerError::UnsupportedVersion(v) => write!(f, "unsupported version {v}"),
            ContainerError::UnsupportedFlags(bits) => {
                write!(f, "unsupported flags {bits:#06x}")
            }
            ContainerError::VarintOverflow => write!(f, "varint overflow"),
            ContainerError::LengthOverflow {
                declared,
                available,
            } => write!(
                f,
                "declared length {declared} exceeds the {available} available"
            ),
            ContainerError::DigestMismatch { stored, computed } => write!(
                f,
                "digest mismatch (stored {}, computed {})",
                stored.to_hex(),
                computed.to_hex()
            ),
            ContainerError::NotCanonical => {
                write!(f, "program bytes are not the canonical encoding")
            }
            ContainerError::BadUtf8 => write!(f, "string is not valid UTF-8"),
            ContainerError::BadTag { what, value } => {
                write!(f, "bad tag byte {value:#04x} for {what}")
            }
            ContainerError::BadOpcode(b) => write!(f, "unknown opcode byte {b:#04x}"),
            ContainerError::TrailingBytes => write!(f, "trailing bytes after the container"),
        }
    }
}

impl std::error::Error for ContainerError {}

// ---------------------------------------------------------------------------
// Primitives: SHA-256 (varints and CRC-32 come from `crate::wire`)
// ---------------------------------------------------------------------------

impl From<VarintError> for ContainerError {
    fn from(e: VarintError) -> Self {
        match e {
            VarintError::Truncated => ContainerError::Truncated,
            VarintError::Overflow => ContainerError::VarintOverflow,
        }
    }
}

/// SHA-256 (FIPS 180-4) of `data`. Plain portable implementation; the
/// unit tests pin it against the published test vectors.
fn sha256(data: &[u8]) -> [u8; 32] {
    const K: [u32; 64] = [
        0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
        0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
        0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
        0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
        0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
        0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
        0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
        0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
        0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
        0xc67178f2,
    ];
    let mut h: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];

    // Pad: 0x80, zeros to 56 mod 64, then the bit length as big-endian u64.
    let mut msg = data.to_vec();
    let bit_len = (data.len() as u64).wrapping_mul(8);
    msg.push(0x80);
    while msg.len() % 64 != 56 {
        msg.push(0);
    }
    msg.extend_from_slice(&bit_len.to_be_bytes());

    let mut w = [0u32; 64];
    for block in msg.chunks_exact(64) {
        for (t, chunk) in block.chunks_exact(4).enumerate() {
            w[t] = u32::from_be_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        for t in 16..64 {
            let s0 = w[t - 15].rotate_right(7) ^ w[t - 15].rotate_right(18) ^ (w[t - 15] >> 3);
            let s1 = w[t - 2].rotate_right(17) ^ w[t - 2].rotate_right(19) ^ (w[t - 2] >> 10);
            w[t] = w[t - 16]
                .wrapping_add(s0)
                .wrapping_add(w[t - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = h;
        for t in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = hh
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[t])
                .wrapping_add(w[t]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            hh = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        h[0] = h[0].wrapping_add(a);
        h[1] = h[1].wrapping_add(b);
        h[2] = h[2].wrapping_add(c);
        h[3] = h[3].wrapping_add(d);
        h[4] = h[4].wrapping_add(e);
        h[5] = h[5].wrapping_add(f);
        h[6] = h[6].wrapping_add(g);
        h[7] = h[7].wrapping_add(hh);
    }

    let mut out = [0u8; 32];
    for (i, word) in h.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

// ---------------------------------------------------------------------------
// Canonical program encoding
// ---------------------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ContainerError> {
        let end = self.pos.checked_add(n).ok_or(ContainerError::Truncated)?;
        let s = self
            .buf
            .get(self.pos..end)
            .ok_or(ContainerError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    fn byte(&mut self) -> Result<u8, ContainerError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ContainerError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    fn i16(&mut self) -> Result<i16, ContainerError> {
        Ok(i16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    fn u32(&mut self) -> Result<u32, ContainerError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn i32(&mut self) -> Result<i32, ContainerError> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn i64(&mut self) -> Result<i64, ContainerError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn f64(&mut self) -> Result<f64, ContainerError> {
        let bits = u64::from_le_bytes(self.take(8)?.try_into().expect("8"));
        Ok(f64::from_bits(bits))
    }

    fn varint(&mut self) -> Result<u64, ContainerError> {
        Ok(read_varint(self.buf, &mut self.pos)?)
    }

    /// A declared element count, bounded by the bytes remaining divided
    /// by the minimum on-wire element size — a forged count is rejected
    /// before any allocation toward it.
    fn bounded_count(&mut self, min_elem: usize) -> Result<usize, ContainerError> {
        let declared = self.varint()?;
        let available = (self.buf.len() - self.pos) / min_elem.max(1);
        if declared > available as u64 {
            return Err(ContainerError::LengthOverflow {
                declared,
                available: available as u64,
            });
        }
        Ok(declared as usize)
    }

    fn string(&mut self) -> Result<String, ContainerError> {
        let len = self.bounded_count(1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ContainerError::BadUtf8)
    }

    fn bool(&mut self, what: &'static str) -> Result<bool, ContainerError> {
        match self.byte()? {
            0 => Ok(false),
            1 => Ok(true),
            value => Err(ContainerError::BadTag { what, value }),
        }
    }

    fn opt_u16(&mut self, what: &'static str) -> Result<Option<u16>, ContainerError> {
        if self.bool(what)? {
            Ok(Some(self.u16()?))
        } else {
            Ok(None)
        }
    }
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn put_bool(out: &mut Vec<u8>, b: bool) {
    out.push(b as u8);
}

fn put_opt_u16(out: &mut Vec<u8>, v: Option<u16>) {
    match v {
        Some(n) => {
            out.push(1);
            out.extend_from_slice(&n.to_le_bytes());
        }
        None => out.push(0),
    }
}

fn ty_byte(ty: Ty) -> u8 {
    match ty {
        Ty::I32 => 0,
        Ty::I64 => 1,
        Ty::F64 => 2,
        Ty::Ref => 3,
    }
}

fn ty_from(b: u8) -> Result<Ty, ContainerError> {
    Ok(match b {
        0 => Ty::I32,
        1 => Ty::I64,
        2 => Ty::F64,
        3 => Ty::Ref,
        value => return Err(ContainerError::BadTag { what: "Ty", value }),
    })
}

fn elem_ty_byte(ty: ElemTy) -> u8 {
    match ty {
        ElemTy::I8 => 0,
        ElemTy::U16 => 1,
        ElemTy::I32 => 2,
        ElemTy::I64 => 3,
        ElemTy::F64 => 4,
        ElemTy::Ref => 5,
    }
}

fn elem_ty_from(b: u8) -> Result<ElemTy, ContainerError> {
    Ok(match b {
        0 => ElemTy::I8,
        1 => ElemTy::U16,
        2 => ElemTy::I32,
        3 => ElemTy::I64,
        4 => ElemTy::F64,
        5 => ElemTy::Ref,
        value => {
            return Err(ContainerError::BadTag {
                what: "ElemTy",
                value,
            })
        }
    })
}

/// Opcode byte assignments: declaration order of [`Op`], `0x00..=0x70`.
/// Immediates follow the opcode byte fixed-width little-endian (`u16`,
/// `i32`, `u32` targets, `i64`, `f64` bit patterns); switch tables carry
/// a varint element count.
fn put_op(out: &mut Vec<u8>, op: &Op) {
    use Op::*;
    let u16imm = |out: &mut Vec<u8>, code: u8, n: u16| {
        out.push(code);
        out.extend_from_slice(&n.to_le_bytes());
    };
    let u32imm = |out: &mut Vec<u8>, code: u8, n: u32| {
        out.push(code);
        out.extend_from_slice(&n.to_le_bytes());
    };
    match op {
        Nop => out.push(0x00),
        IConst(v) => {
            out.push(0x01);
            out.extend_from_slice(&v.to_le_bytes());
        }
        LConst(v) => {
            out.push(0x02);
            out.extend_from_slice(&v.to_le_bytes());
        }
        DConst(v) => {
            out.push(0x03);
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        AConstNull => out.push(0x04),
        LdcStr(n) => u16imm(out, 0x05, *n),
        ILoad(n) => u16imm(out, 0x06, *n),
        LLoad(n) => u16imm(out, 0x07, *n),
        DLoad(n) => u16imm(out, 0x08, *n),
        ALoad(n) => u16imm(out, 0x09, *n),
        IStore(n) => u16imm(out, 0x0a, *n),
        LStore(n) => u16imm(out, 0x0b, *n),
        DStore(n) => u16imm(out, 0x0c, *n),
        AStore(n) => u16imm(out, 0x0d, *n),
        IInc(n, d) => {
            u16imm(out, 0x0e, *n);
            out.extend_from_slice(&d.to_le_bytes());
        }
        Pop => out.push(0x0f),
        Dup => out.push(0x10),
        DupX1 => out.push(0x11),
        Swap => out.push(0x12),
        IAdd => out.push(0x13),
        ISub => out.push(0x14),
        IMul => out.push(0x15),
        IDiv => out.push(0x16),
        IRem => out.push(0x17),
        INeg => out.push(0x18),
        IShl => out.push(0x19),
        IShr => out.push(0x1a),
        IUShr => out.push(0x1b),
        IAnd => out.push(0x1c),
        IOr => out.push(0x1d),
        IXor => out.push(0x1e),
        LAdd => out.push(0x1f),
        LSub => out.push(0x20),
        LMul => out.push(0x21),
        LDiv => out.push(0x22),
        LRem => out.push(0x23),
        LNeg => out.push(0x24),
        LShl => out.push(0x25),
        LShr => out.push(0x26),
        LUShr => out.push(0x27),
        LAnd => out.push(0x28),
        LOr => out.push(0x29),
        LXor => out.push(0x2a),
        DAdd => out.push(0x2b),
        DSub => out.push(0x2c),
        DMul => out.push(0x2d),
        DDiv => out.push(0x2e),
        DRem => out.push(0x2f),
        DNeg => out.push(0x30),
        I2L => out.push(0x31),
        I2D => out.push(0x32),
        L2I => out.push(0x33),
        L2D => out.push(0x34),
        D2I => out.push(0x35),
        D2L => out.push(0x36),
        I2B => out.push(0x37),
        I2C => out.push(0x38),
        I2S => out.push(0x39),
        LCmp => out.push(0x3a),
        DCmpL => out.push(0x3b),
        DCmpG => out.push(0x3c),
        Goto(t) => u32imm(out, 0x3d, *t),
        IfEq(t) => u32imm(out, 0x3e, *t),
        IfNe(t) => u32imm(out, 0x3f, *t),
        IfLt(t) => u32imm(out, 0x40, *t),
        IfGe(t) => u32imm(out, 0x41, *t),
        IfGt(t) => u32imm(out, 0x42, *t),
        IfLe(t) => u32imm(out, 0x43, *t),
        IfICmpEq(t) => u32imm(out, 0x44, *t),
        IfICmpNe(t) => u32imm(out, 0x45, *t),
        IfICmpLt(t) => u32imm(out, 0x46, *t),
        IfICmpGe(t) => u32imm(out, 0x47, *t),
        IfICmpGt(t) => u32imm(out, 0x48, *t),
        IfICmpLe(t) => u32imm(out, 0x49, *t),
        IfACmpEq(t) => u32imm(out, 0x4a, *t),
        IfACmpNe(t) => u32imm(out, 0x4b, *t),
        IfNull(t) => u32imm(out, 0x4c, *t),
        IfNonNull(t) => u32imm(out, 0x4d, *t),
        TableSwitch {
            low,
            targets,
            default,
        } => {
            out.push(0x4e);
            out.extend_from_slice(&low.to_le_bytes());
            put_varint(out, targets.len() as u64);
            for t in targets {
                out.extend_from_slice(&t.to_le_bytes());
            }
            out.extend_from_slice(&default.to_le_bytes());
        }
        LookupSwitch { pairs, default } => {
            out.push(0x4f);
            put_varint(out, pairs.len() as u64);
            for (k, t) in pairs {
                out.extend_from_slice(&k.to_le_bytes());
                out.extend_from_slice(&t.to_le_bytes());
            }
            out.extend_from_slice(&default.to_le_bytes());
        }
        New(c) => u16imm(out, 0x50, c.0),
        GetField(fi) => u16imm(out, 0x51, fi.0),
        PutField(fi) => u16imm(out, 0x52, fi.0),
        GetStatic(fi) => u16imm(out, 0x53, fi.0),
        PutStatic(fi) => u16imm(out, 0x54, fi.0),
        InstanceOf(c) => u16imm(out, 0x55, c.0),
        CheckCast(c) => u16imm(out, 0x56, c.0),
        NewArray(ty) => {
            out.push(0x57);
            out.push(elem_ty_byte(*ty));
        }
        ArrayLength => out.push(0x58),
        IALoad => out.push(0x59),
        IAStore => out.push(0x5a),
        LALoad => out.push(0x5b),
        LAStore => out.push(0x5c),
        DALoad => out.push(0x5d),
        DAStore => out.push(0x5e),
        AALoad => out.push(0x5f),
        AAStore => out.push(0x60),
        BALoad => out.push(0x61),
        BAStore => out.push(0x62),
        CALoad => out.push(0x63),
        CAStore => out.push(0x64),
        InvokeStatic(m) => u16imm(out, 0x65, m.0),
        InvokeVirtual(m) => u16imm(out, 0x66, m.0),
        InvokeSpecial(m) => u16imm(out, 0x67, m.0),
        InvokeNative(n) => u16imm(out, 0x68, n.0),
        Return => out.push(0x69),
        IReturn => out.push(0x6a),
        LReturn => out.push(0x6b),
        DReturn => out.push(0x6c),
        AReturn => out.push(0x6d),
        AThrow => out.push(0x6e),
        MonitorEnter => out.push(0x6f),
        MonitorExit => out.push(0x70),
    }
}

fn read_op(r: &mut Reader<'_>) -> Result<Op, ContainerError> {
    use Op::*;
    let code = r.byte()?;
    Ok(match code {
        0x00 => Nop,
        0x01 => IConst(r.i32()?),
        0x02 => LConst(r.i64()?),
        0x03 => DConst(r.f64()?),
        0x04 => AConstNull,
        0x05 => LdcStr(r.u16()?),
        0x06 => ILoad(r.u16()?),
        0x07 => LLoad(r.u16()?),
        0x08 => DLoad(r.u16()?),
        0x09 => ALoad(r.u16()?),
        0x0a => IStore(r.u16()?),
        0x0b => LStore(r.u16()?),
        0x0c => DStore(r.u16()?),
        0x0d => AStore(r.u16()?),
        0x0e => IInc(r.u16()?, r.i16()?),
        0x0f => Pop,
        0x10 => Dup,
        0x11 => DupX1,
        0x12 => Swap,
        0x13 => IAdd,
        0x14 => ISub,
        0x15 => IMul,
        0x16 => IDiv,
        0x17 => IRem,
        0x18 => INeg,
        0x19 => IShl,
        0x1a => IShr,
        0x1b => IUShr,
        0x1c => IAnd,
        0x1d => IOr,
        0x1e => IXor,
        0x1f => LAdd,
        0x20 => LSub,
        0x21 => LMul,
        0x22 => LDiv,
        0x23 => LRem,
        0x24 => LNeg,
        0x25 => LShl,
        0x26 => LShr,
        0x27 => LUShr,
        0x28 => LAnd,
        0x29 => LOr,
        0x2a => LXor,
        0x2b => DAdd,
        0x2c => DSub,
        0x2d => DMul,
        0x2e => DDiv,
        0x2f => DRem,
        0x30 => DNeg,
        0x31 => I2L,
        0x32 => I2D,
        0x33 => L2I,
        0x34 => L2D,
        0x35 => D2I,
        0x36 => D2L,
        0x37 => I2B,
        0x38 => I2C,
        0x39 => I2S,
        0x3a => LCmp,
        0x3b => DCmpL,
        0x3c => DCmpG,
        0x3d => Goto(r.u32()?),
        0x3e => IfEq(r.u32()?),
        0x3f => IfNe(r.u32()?),
        0x40 => IfLt(r.u32()?),
        0x41 => IfGe(r.u32()?),
        0x42 => IfGt(r.u32()?),
        0x43 => IfLe(r.u32()?),
        0x44 => IfICmpEq(r.u32()?),
        0x45 => IfICmpNe(r.u32()?),
        0x46 => IfICmpLt(r.u32()?),
        0x47 => IfICmpGe(r.u32()?),
        0x48 => IfICmpGt(r.u32()?),
        0x49 => IfICmpLe(r.u32()?),
        0x4a => IfACmpEq(r.u32()?),
        0x4b => IfACmpNe(r.u32()?),
        0x4c => IfNull(r.u32()?),
        0x4d => IfNonNull(r.u32()?),
        0x4e => {
            let low = r.i32()?;
            let n = r.bounded_count(4)?;
            let mut targets = Vec::with_capacity(n);
            for _ in 0..n {
                targets.push(r.u32()?);
            }
            let default = r.u32()?;
            TableSwitch {
                low,
                targets,
                default,
            }
        }
        0x4f => {
            let n = r.bounded_count(8)?;
            let mut pairs = Vec::with_capacity(n);
            for _ in 0..n {
                pairs.push((r.i32()?, r.u32()?));
            }
            let default = r.u32()?;
            LookupSwitch { pairs, default }
        }
        0x50 => New(ClassId(r.u16()?)),
        0x51 => GetField(FieldId(r.u16()?)),
        0x52 => PutField(FieldId(r.u16()?)),
        0x53 => GetStatic(FieldId(r.u16()?)),
        0x54 => PutStatic(FieldId(r.u16()?)),
        0x55 => InstanceOf(ClassId(r.u16()?)),
        0x56 => CheckCast(ClassId(r.u16()?)),
        0x57 => NewArray(elem_ty_from(r.byte()?)?),
        0x58 => ArrayLength,
        0x59 => IALoad,
        0x5a => IAStore,
        0x5b => LALoad,
        0x5c => LAStore,
        0x5d => DALoad,
        0x5e => DAStore,
        0x5f => AALoad,
        0x60 => AAStore,
        0x61 => BALoad,
        0x62 => BAStore,
        0x63 => CALoad,
        0x64 => CAStore,
        0x65 => InvokeStatic(MethodId(r.u16()?)),
        0x66 => InvokeVirtual(MethodId(r.u16()?)),
        0x67 => InvokeSpecial(MethodId(r.u16()?)),
        0x68 => InvokeNative(NativeId(r.u16()?)),
        0x69 => Return,
        0x6a => IReturn,
        0x6b => LReturn,
        0x6c => DReturn,
        0x6d => AReturn,
        0x6e => AThrow,
        0x6f => MonitorEnter,
        0x70 => MonitorExit,
        other => return Err(ContainerError::BadOpcode(other)),
    })
}

/// The canonical byte encoding of `program` — the domain of
/// [`reference_id`]. Deterministic: unordered collections (each class's
/// `declared` map) are serialized in ascending name order, so two
/// structurally equal programs encode byte-identically.
pub fn canonical_program_bytes(program: &Program) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + program.total_code_len() * 3);

    put_varint(&mut out, program.classes.len() as u64);
    for class in &program.classes {
        put_string(&mut out, &class.name);
        put_opt_u16(&mut out, class.super_class.map(|c| c.0));
        put_varint(&mut out, class.layout.len() as u64);
        for fid in &class.layout {
            out.extend_from_slice(&fid.0.to_le_bytes());
        }
        put_varint(&mut out, class.vtable.len() as u64);
        for mid in &class.vtable {
            out.extend_from_slice(&mid.0.to_le_bytes());
        }
        // `declared` is a HashMap; sort by name so the encoding is a
        // function of the program value, not of hash iteration order.
        let mut declared: Vec<(&String, &MethodId)> = class.declared.iter().collect();
        declared.sort_by(|a, b| a.0.cmp(b.0));
        put_varint(&mut out, declared.len() as u64);
        for (name, mid) in declared {
            put_string(&mut out, name);
            out.extend_from_slice(&mid.0.to_le_bytes());
        }
    }

    put_varint(&mut out, program.methods.len() as u64);
    for method in &program.methods {
        put_string(&mut out, &method.name);
        out.extend_from_slice(&method.owner.0.to_le_bytes());
        put_varint(&mut out, method.params.len() as u64);
        for &p in &method.params {
            out.push(ty_byte(p));
        }
        match method.ret {
            Some(ty) => {
                out.push(1);
                out.push(ty_byte(ty));
            }
            None => out.push(0),
        }
        put_bool(&mut out, method.is_static);
        out.extend_from_slice(&method.max_locals.to_le_bytes());
        put_varint(&mut out, method.code.len() as u64);
        for op in &method.code {
            put_op(&mut out, op);
        }
        put_varint(&mut out, method.handlers.len() as u64);
        for h in &method.handlers {
            out.extend_from_slice(&h.start.to_le_bytes());
            out.extend_from_slice(&h.end.to_le_bytes());
            out.extend_from_slice(&h.target.to_le_bytes());
            put_opt_u16(&mut out, h.class.map(|c| c.0));
        }
        put_opt_u16(&mut out, method.vslot);
        put_varint(&mut out, method.code_base);
    }

    put_varint(&mut out, program.fields.len() as u64);
    for field in &program.fields {
        put_string(&mut out, &field.name);
        out.extend_from_slice(&field.owner.0.to_le_bytes());
        out.push(ty_byte(field.ty));
        put_bool(&mut out, field.is_static);
        put_varint(&mut out, field.slot as u64);
    }

    put_varint(&mut out, program.strings.len() as u64);
    for s in &program.strings {
        put_string(&mut out, s);
    }

    put_varint(&mut out, program.natives.len() as u64);
    for n in &program.natives {
        put_string(&mut out, &n.name);
        out.push(n.args);
        put_bool(&mut out, n.ret);
    }

    put_varint(&mut out, program.static_slots as u64);
    out.extend_from_slice(&program.entry.0.to_le_bytes());
    out
}

fn decode_program(bytes: &[u8]) -> Result<Program, ContainerError> {
    let mut r = Reader { buf: bytes, pos: 0 };

    let n_classes = r.bounded_count(1)?;
    let mut classes = Vec::with_capacity(n_classes);
    for _ in 0..n_classes {
        let name = r.string()?;
        let super_class = r.opt_u16("Class.super_class")?.map(ClassId);
        let n_layout = r.bounded_count(2)?;
        let mut layout = Vec::with_capacity(n_layout);
        for _ in 0..n_layout {
            layout.push(FieldId(r.u16()?));
        }
        let n_vtable = r.bounded_count(2)?;
        let mut vtable = Vec::with_capacity(n_vtable);
        for _ in 0..n_vtable {
            vtable.push(MethodId(r.u16()?));
        }
        let n_declared = r.bounded_count(3)?;
        let mut declared = HashMap::with_capacity(n_declared);
        for _ in 0..n_declared {
            let mname = r.string()?;
            declared.insert(mname, MethodId(r.u16()?));
        }
        classes.push(Class {
            name,
            super_class,
            layout,
            vtable,
            declared,
        });
    }

    let n_methods = r.bounded_count(1)?;
    let mut methods = Vec::with_capacity(n_methods);
    for _ in 0..n_methods {
        let name = r.string()?;
        let owner = ClassId(r.u16()?);
        let n_params = r.bounded_count(1)?;
        let mut params = Vec::with_capacity(n_params);
        for _ in 0..n_params {
            params.push(ty_from(r.byte()?)?);
        }
        let ret = if r.bool("Method.ret")? {
            Some(ty_from(r.byte()?)?)
        } else {
            None
        };
        let is_static = r.bool("Method.is_static")?;
        let max_locals = r.u16()?;
        let n_code = r.bounded_count(1)?;
        let mut code = Vec::with_capacity(n_code);
        for _ in 0..n_code {
            code.push(read_op(&mut r)?);
        }
        let n_handlers = r.bounded_count(13)?;
        let mut handlers = Vec::with_capacity(n_handlers);
        for _ in 0..n_handlers {
            handlers.push(Handler {
                start: r.u32()?,
                end: r.u32()?,
                target: r.u32()?,
                class: r.opt_u16("Handler.class")?.map(ClassId),
            });
        }
        let vslot = r.opt_u16("Method.vslot")?;
        let code_base = r.varint()?;
        methods.push(Method {
            name,
            owner,
            params,
            ret,
            is_static,
            max_locals,
            code,
            handlers,
            vslot,
            code_base,
        });
    }

    let n_fields = r.bounded_count(5)?;
    let mut fields = Vec::with_capacity(n_fields);
    for _ in 0..n_fields {
        fields.push(Field {
            name: r.string()?,
            owner: ClassId(r.u16()?),
            ty: ty_from(r.byte()?)?,
            is_static: r.bool("Field.is_static")?,
            slot: r.varint()? as u32,
        });
    }

    let n_strings = r.bounded_count(1)?;
    let mut strings = Vec::with_capacity(n_strings);
    for _ in 0..n_strings {
        strings.push(r.string()?);
    }

    let n_natives = r.bounded_count(3)?;
    let mut natives = Vec::with_capacity(n_natives);
    for _ in 0..n_natives {
        natives.push(NativeDecl {
            name: r.string()?,
            args: r.byte()?,
            ret: r.bool("NativeDecl.ret")?,
        });
    }

    let static_slots = r.varint()? as u32;
    let entry = MethodId(r.u16()?);
    if r.pos != bytes.len() {
        return Err(ContainerError::TrailingBytes);
    }
    Ok(Program {
        classes,
        methods,
        fields,
        strings,
        natives,
        static_slots,
        entry,
    })
}

// ---------------------------------------------------------------------------
// Seal / open
// ---------------------------------------------------------------------------

/// The [`ReferenceId`] of `program`: the SHA-256 digest of its canonical
/// byte encoding ([`canonical_program_bytes`]).
pub fn reference_id(program: &Program) -> ReferenceId {
    ReferenceId(sha256(&canonical_program_bytes(program)))
}

/// Seal `program` into a TDRP container (length prefix included).
///
/// The returned bytes are deterministic — equal programs seal
/// byte-identically — and [`open`] accepts exactly them.
pub fn seal(program: &Program) -> Vec<u8> {
    let body = canonical_program_bytes(program);
    let digest = sha256(&body);

    let mut payload = Vec::with_capacity(48 + body.len() + 10);
    payload.extend_from_slice(&MAGIC);
    payload.extend_from_slice(&VERSION.to_le_bytes());
    payload.extend_from_slice(&0u16.to_le_bytes()); // flags
    payload.extend_from_slice(&digest);
    put_varint(&mut payload, body.len() as u64);
    payload.extend_from_slice(&body);
    let crc = crc32(&payload[4..]);
    payload.extend_from_slice(&crc.to_le_bytes());

    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Open a TDRP container: validate the envelope (length, magic,
/// checksum, version, flags), recompute and check the digest, decode the
/// program, and verify the bytes were canonical.
///
/// The returned [`ReferenceId`] is recomputed from the program bytes —
/// never trusted from the header — so a successful `open` certifies that
/// the id names exactly the returned program. Structural verification
/// (`crate::verify`) is the *caller's* next step: `open` checks the
/// encoding, not the bytecode's type discipline.
pub fn open(bytes: &[u8]) -> Result<(ReferenceId, Program), ContainerError> {
    if bytes.len() < 4 {
        return Err(ContainerError::Truncated);
    }
    let declared = u32::from_le_bytes(bytes[..4].try_into().expect("4")) as u64;
    if declared > MAX_CONTAINER_LEN {
        return Err(ContainerError::FrameTooLarge {
            len: declared,
            max: MAX_CONTAINER_LEN,
        });
    }
    let rest = &bytes[4..];
    if (rest.len() as u64) < declared {
        return Err(ContainerError::Truncated);
    }
    if rest.len() as u64 > declared {
        return Err(ContainerError::TrailingBytes);
    }
    let payload = rest;
    // magic(4) + version(2) + flags(2) + digest(32) + varint(≥1) + crc(4)
    if payload.len() < 45 {
        return Err(ContainerError::Truncated);
    }
    if payload[..4] != MAGIC {
        return Err(ContainerError::BadMagic);
    }
    let crc_at = payload.len() - 4;
    let stored_crc = u32::from_le_bytes(payload[crc_at..].try_into().expect("4"));
    let computed_crc = crc32(&payload[4..crc_at]);
    if stored_crc != computed_crc {
        return Err(ContainerError::BadChecksum {
            stored: stored_crc,
            computed: computed_crc,
        });
    }
    let version = u16::from_le_bytes(payload[4..6].try_into().expect("2"));
    if version != VERSION {
        return Err(ContainerError::UnsupportedVersion(version));
    }
    let flags = u16::from_le_bytes(payload[6..8].try_into().expect("2"));
    if flags != 0 {
        return Err(ContainerError::UnsupportedFlags(flags));
    }
    let stored_digest: [u8; 32] = payload[8..40].try_into().expect("32");

    let body_region = &payload[40..crc_at];
    let mut pos = 0usize;
    let body_len = read_varint(body_region, &mut pos)?;
    let available = (body_region.len() - pos) as u64;
    if body_len > available {
        return Err(ContainerError::LengthOverflow {
            declared: body_len,
            available,
        });
    }
    if body_len < available {
        return Err(ContainerError::TrailingBytes);
    }
    let body = &body_region[pos..];

    let computed_digest = sha256(body);
    if stored_digest != computed_digest {
        return Err(ContainerError::DigestMismatch {
            stored: ReferenceId(stored_digest),
            computed: ReferenceId(computed_digest),
        });
    }

    let program = decode_program(body)?;
    // One accepted encoding per program value: the id function must be
    // injective over accepted containers.
    if canonical_program_bytes(&program) != body {
        return Err(ContainerError::NotCanonical);
    }
    Ok((ReferenceId(computed_digest), program))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::verify;

    fn tiny_program() -> Program {
        let mut b = ProgramBuilder::new();
        let main = {
            let mut m = b.static_method("M", "main", &[], None);
            m.op(Op::Return);
            m.finish()
        };
        b.set_entry(main);
        b.link().expect("link")
    }

    /// A program exercising every immediate shape the codec handles.
    fn busy_program() -> Program {
        let mut b = ProgramBuilder::new();
        let main = {
            let mut m = b.static_method("M", "main", &[], None);
            m.op(Op::IConst(-7));
            m.op(Op::LConst(1 << 40));
            m.op(Op::DConst(-0.0));
            m.op(Op::IStore(0));
            m.op(Op::LStore(1));
            m.op(Op::DStore(2));
            m.op(Op::IInc(0, -3));
            m.op(Op::ILoad(0));
            m.op(Op::TableSwitch {
                low: -1,
                targets: vec![10, 10],
                default: 10,
            });
            m.op(Op::Return);
            m.op(Op::Return);
            m.finish()
        };
        b.set_entry(main);
        b.link().expect("link")
    }

    /// Pins the FORMATS.md §7.2 worked example byte-for-byte: sealing
    /// the smallest compilable module produces exactly the documented 90
    /// bytes. Any canonical-encoding or envelope change must show up
    /// here (and bump the TDRP version / update the spec), never land
    /// silently.
    #[test]
    fn formats_md_tdrp_bytes_are_pinned() {
        use crate::hll::{dsl::*, Module};
        let mut m = Module::new("A");
        m.func(fn_void("main", vec![], vec![ret_void()]));
        let program = m.compile().expect("compile");
        let expected: Vec<u8> = vec![
            0x56, 0x00, 0x00, 0x00, // length prefix = 86
            0x54, 0x44, 0x52, 0x50, // magic "TDRP"
            0x01, 0x00, // version = 1
            0x00, 0x00, // flags = 0
            // SHA-256 digest of the 41 program bytes = the reference id
            0x2f, 0x92, 0xb8, 0x12, 0xfd, 0xbf, 0xb3, 0x6a, //
            0x0a, 0x33, 0x4d, 0x7d, 0x58, 0x5e, 0xb7, 0x09, //
            0xd0, 0xbc, 0xd0, 0x8f, 0x03, 0xbe, 0x99, 0x4f, //
            0x4b, 0x62, 0x60, 0x75, 0x67, 0x7b, 0xe5, 0x7c, //
            0x29, // program_len = 41
            // canonical program bytes: class "A", method "main" (empty
            // body), string pool ["main"], entry = method 0
            0x01, 0x01, 0x41, 0x00, 0x00, 0x00, 0x01, 0x04, //
            0x6d, 0x61, 0x69, 0x6e, 0x00, 0x00, 0x01, 0x04, //
            0x6d, 0x61, 0x69, 0x6e, 0x00, 0x00, 0x00, 0x00, //
            0x01, 0x00, 0x00, 0x02, 0x69, 0x69, 0x00, 0x00, //
            0x80, 0x80, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, //
            0x00, //
            0x42, 0x44, 0xb2, 0xef, // CRC-32 of container bytes [8, 86)
        ];
        let sealed = seal(&program);
        assert_eq!(sealed, expected, "§7.2 worked example drifted");
        assert_eq!(
            ReferenceId(sha256(&canonical_program_bytes(&program))).to_hex(),
            "2f92b812fdbfb36a0a334d7d585eb709d0bcd08f03be994f4b626075677be57c"
        );
        let (id, opened) = open(&sealed).expect("the worked example opens");
        assert_eq!(id, reference_id(&program));
        assert_eq!(seal(&opened), sealed);
    }

    #[test]
    fn sha256_matches_published_vectors() {
        let empty = sha256(b"");
        assert_eq!(
            ReferenceId(empty).to_hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        let abc = sha256(b"abc");
        assert_eq!(
            ReferenceId(abc).to_hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        // One block boundary case: 56 bytes forces a second padding block.
        let long = sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
        assert_eq!(
            ReferenceId(long).to_hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn crc32_matches_the_formats_md_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn varint_roundtrips_and_overflow_is_rejected() {
        for v in [0u64, 1, 127, 128, 500, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
        // An 11-byte varint (or a tenth byte > 1) must be rejected.
        let over = [0x80u8, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02];
        let mut pos = 0;
        assert_eq!(read_varint(&over, &mut pos), Err(VarintError::Overflow));
    }

    #[test]
    fn seal_open_roundtrips_and_verifies() {
        for program in [tiny_program(), busy_program()] {
            let sealed = seal(&program);
            let (id, back) = open(&sealed).expect("opens");
            assert_eq!(back, program);
            assert_eq!(id, reference_id(&program));
            verify(&back).expect("reopened program verifies");
        }
    }

    #[test]
    fn ids_are_content_addressed() {
        // Equal programs → equal ids, byte-identical containers.
        assert_eq!(seal(&tiny_program()), seal(&tiny_program()));
        assert_eq!(reference_id(&tiny_program()), reference_id(&tiny_program()));
        // Different programs → different ids.
        assert_ne!(reference_id(&tiny_program()), reference_id(&busy_program()));
    }

    #[test]
    fn bit_flips_are_rejected_with_typed_errors() {
        let sealed = seal(&busy_program());
        // Flip one bit at every byte offset: each must produce a typed
        // error (never a panic, never an accepted different program).
        for at in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad[at] ^= 0x10;
            match open(&bad) {
                Err(_typed) => {}
                Ok((id, program)) => {
                    // A flip in the length prefix's high bytes can only
                    // make the container unreadable; an accepted decode
                    // must mean the flip was semantically invisible —
                    // impossible here since every byte is load-bearing.
                    panic!("flip at {at} accepted: id {id}, program {program:?}");
                }
            }
        }
    }

    #[test]
    fn tampered_program_bytes_fail_the_digest_even_with_a_resealed_crc() {
        let program = busy_program();
        let mut sealed = seal(&program);
        // Tamper inside the program body, then re-seal the CRC so the
        // envelope is consistent: only the digest can catch it.
        let body_start = 4 + 40 + 1; // prefix + header/digest + 1-byte varint
        sealed[body_start + 4] ^= 0xff;
        let n = sealed.len();
        let crc = crc32(&sealed[8..n - 4]);
        sealed[n - 4..].copy_from_slice(&crc.to_le_bytes());
        match open(&sealed) {
            Err(ContainerError::DigestMismatch { .. }) => {}
            other => panic!("expected DigestMismatch, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_rejected_at_every_cut() {
        let sealed = seal(&tiny_program());
        for cut in 0..sealed.len() {
            let err = open(&sealed[..cut]).expect_err("truncated container rejected");
            assert!(
                matches!(
                    err,
                    ContainerError::Truncated | ContainerError::BadChecksum { .. }
                ),
                "cut at {cut}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn trailing_bytes_version_flags_and_magic_are_rejected() {
        let sealed = seal(&tiny_program());

        let mut trailing = sealed.clone();
        trailing.push(0);
        assert_eq!(open(&trailing), Err(ContainerError::TrailingBytes));

        // Patch version, re-seal the CRC.
        let mut versioned = sealed.clone();
        versioned[8] = 9;
        let n = versioned.len();
        let crc = crc32(&versioned[8..n - 4]);
        versioned[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(open(&versioned), Err(ContainerError::UnsupportedVersion(9)));

        let mut flagged = sealed.clone();
        flagged[10] = 1;
        let n = flagged.len();
        let crc = crc32(&flagged[8..n - 4]);
        flagged[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(open(&flagged), Err(ContainerError::UnsupportedFlags(1)));

        let mut magicless = sealed.clone();
        magicless[4] = b'X';
        assert_eq!(open(&magicless), Err(ContainerError::BadMagic));

        let mut huge = sealed;
        huge[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            open(&huge),
            Err(ContainerError::FrameTooLarge {
                len: u32::MAX as u64,
                max: MAX_CONTAINER_LEN
            })
        );
    }

    #[test]
    fn non_canonical_bytes_are_rejected() {
        // Re-sort a declared map the "wrong" way by hand: encode the
        // program, then swap two entries in the natives table... simpler:
        // append a non-minimal change that still decodes. The cheapest
        // non-canonical stream: a program whose `slot` varint is padded.
        let program = tiny_program();
        let body = canonical_program_bytes(&program);
        // Rebuild a container around a padded body: append a 0x80 0x00
        // continuation onto the final entry varint... instead, pad the
        // leading class-count varint (0x01 → 0x81 0x00).
        assert_eq!(body[0], 0x01, "tiny program has one class");
        let mut padded = Vec::with_capacity(body.len() + 1);
        padded.push(0x81);
        padded.push(0x00);
        padded.extend_from_slice(&body[1..]);
        assert!(decode_program(&padded).is_ok(), "padded body still decodes");

        let digest = sha256(&padded);
        let mut payload = Vec::new();
        payload.extend_from_slice(&MAGIC);
        payload.extend_from_slice(&VERSION.to_le_bytes());
        payload.extend_from_slice(&0u16.to_le_bytes());
        payload.extend_from_slice(&digest);
        put_varint(&mut payload, padded.len() as u64);
        payload.extend_from_slice(&padded);
        let crc = crc32(&payload[4..]);
        payload.extend_from_slice(&crc.to_le_bytes());
        let mut container = Vec::new();
        container.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        container.extend_from_slice(&payload);

        assert_eq!(open(&container), Err(ContainerError::NotCanonical));
    }

    #[test]
    fn forged_counts_are_bounded() {
        // A container whose program body declares 2^40 classes must be
        // rejected as length overflow without allocating toward it.
        let mut body = Vec::new();
        put_varint(&mut body, 1u64 << 40);
        let digest = sha256(&body);
        let mut payload = Vec::new();
        payload.extend_from_slice(&MAGIC);
        payload.extend_from_slice(&VERSION.to_le_bytes());
        payload.extend_from_slice(&0u16.to_le_bytes());
        payload.extend_from_slice(&digest);
        put_varint(&mut payload, body.len() as u64);
        payload.extend_from_slice(&body);
        let crc = crc32(&payload[4..]);
        payload.extend_from_slice(&crc.to_le_bytes());
        let mut container = Vec::new();
        container.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        container.extend_from_slice(&payload);

        assert!(matches!(
            open(&container),
            Err(ContainerError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn hex_roundtrip() {
        let id = reference_id(&tiny_program());
        assert_eq!(ReferenceId::from_hex(&id.to_hex()), Some(id));
        assert_eq!(ReferenceId::from_hex("zz"), None);
    }
}
