//! Checkpoint serialization substrate: a tiny, deterministic binary
//! format plus the [`SaveState`] trait every stateful simulator
//! component implements.
//!
//! The simulator checkpoints by walking its component tree and asking
//! each piece to [`save`](SaveState::save) its *dynamic* state into a
//! [`StateWriter`]; configuration-derived structure (topologies,
//! geometries, pre-sized buffers) is never serialized — restore
//! rebuilds it from the [`GpuConfig`](crate::GpuConfig) and then
//! overwrites the dynamic state in place via
//! [`restore`](SaveState::restore). The format is deliberately dumb:
//! little-endian fixed-width integers, `f64` as IEEE-754 bits,
//! length-prefixed sequences, no self-description and no external
//! serialization dependency. Determinism rules:
//!
//! - hash maps are serialized **sorted by key** ([`save_map`]) so two
//!   checkpoints of identical machines are byte-identical;
//! - ordered collections (`Vec`, `VecDeque`) keep their exact element
//!   order — several queues (DRAM in-flight, TLB walk FIFOs) are
//!   order-sensitive;
//! - floating-point state round-trips via `to_bits`/`from_bits`, never
//!   through text.
//!
//! Checkpoint containers version their header with
//! [`STATE_FORMAT_VERSION`]; bumping the on-wire layout of any
//! component must bump it.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::hash::{BuildHasher, Hash};

/// Version of the checkpoint wire format. Bump on any layout change so
/// stale checkpoints are rejected instead of misread.
///
/// History: v1 was the original container; v2 appended a trailing
/// end-to-end [`fnv1a`] checksum to the checkpoint container so any
/// single flipped or missing byte is rejected with a typed error
/// instead of silently decoding wrong state.
pub const STATE_FORMAT_VERSION: u32 = 3;

/// Why a checkpoint could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateError {
    /// The reader ran out of bytes mid-field.
    UnexpectedEof {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes that were left.
        remaining: usize,
    },
    /// An enum discriminant byte had no corresponding variant.
    BadTag {
        /// The type being decoded.
        what: &'static str,
        /// The offending discriminant.
        tag: u8,
    },
    /// A fixed-size collection in the checkpoint does not match the
    /// structure rebuilt from the configuration.
    LengthMismatch {
        /// The collection being restored.
        what: &'static str,
        /// Length the live structure has.
        expected: usize,
        /// Length the checkpoint recorded.
        found: usize,
    },
    /// The checkpoint was written by an incompatible format version.
    VersionMismatch {
        /// Version found in the header.
        found: u32,
        /// Version this binary understands.
        expected: u32,
    },
    /// The checkpoint does not belong to this configuration/workload.
    HashMismatch {
        /// Which identity failed (`"config"` or `"workload"`).
        what: &'static str,
    },
    /// The buffer's end-to-end content checksum does not match its
    /// bytes: a torn write, a flipped bit, or truncation/extension that
    /// happened to keep the framing decodable. Distinct from
    /// [`HashMismatch`](StateError::HashMismatch) (an *identity*
    /// failure) so persistent stores can tell "wrong entry" from
    /// "damaged entry".
    ChecksumMismatch {
        /// Checksum recorded in the buffer.
        expected: u64,
        /// Checksum computed over the bytes actually present.
        found: u64,
    },
    /// Any other structural inconsistency.
    Corrupt(&'static str),
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateError::UnexpectedEof { needed, remaining } => {
                write!(
                    f,
                    "checkpoint truncated: needed {needed} bytes, {remaining} left"
                )
            }
            StateError::BadTag { what, tag } => {
                write!(f, "bad discriminant {tag} while decoding {what}")
            }
            StateError::LengthMismatch {
                what,
                expected,
                found,
            } => write!(
                f,
                "{what}: checkpoint has {found} elements but the configuration builds {expected}"
            ),
            StateError::VersionMismatch { found, expected } => write!(
                f,
                "checkpoint format version {found} incompatible with supported version {expected}"
            ),
            StateError::HashMismatch { what } => {
                write!(f, "checkpoint {what} hash does not match this run")
            }
            StateError::ChecksumMismatch { expected, found } => write!(
                f,
                "content checksum mismatch: recorded {expected:#018x}, bytes hash to {found:#018x}"
            ),
            StateError::Corrupt(what) => write!(f, "corrupt checkpoint: {what}"),
        }
    }
}

impl std::error::Error for StateError {}

/// Append-only little-endian byte sink checkpoints are written into.
#[derive(Debug, Default)]
pub struct StateWriter {
    buf: Vec<u8>,
}

impl StateWriter {
    /// An empty writer.
    #[must_use]
    pub fn new() -> StateWriter {
        StateWriter { buf: Vec::new() }
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the writer and take the serialized bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Borrow the serialized bytes (e.g. for hashing).
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Write one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write raw bytes verbatim (callers record the length themselves).
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }
}

/// Cursor over a checkpoint byte slice.
#[derive(Debug)]
pub struct StateReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> StateReader<'a> {
    /// Start reading at the beginning of `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> StateReader<'a> {
        StateReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed (restore should end here).
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.remaining() == 0
    }

    /// Take `n` raw bytes.
    ///
    /// # Errors
    /// [`StateError::UnexpectedEof`] if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], StateError> {
        if self.remaining() < n {
            return Err(StateError::UnexpectedEof {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    ///
    /// # Errors
    /// [`StateError::UnexpectedEof`] at end of input.
    pub fn get_u8(&mut self) -> Result<u8, StateError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    ///
    /// # Errors
    /// [`StateError::UnexpectedEof`] if fewer than 4 bytes remain.
    pub fn get_u32(&mut self) -> Result<u32, StateError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    ///
    /// # Errors
    /// [`StateError::UnexpectedEof`] if fewer than 8 bytes remain.
    pub fn get_u64(&mut self) -> Result<u64, StateError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
}

/// A plain value that can be written to and re-read from a checkpoint.
///
/// Implemented for primitives, the workspace's id/address newtypes,
/// packets, and containers of such values. Value types get an in-place
/// [`SaveState`] implementation for free via a blanket impl.
pub trait StateValue: Sized {
    /// Serialize `self`.
    fn put(&self, w: &mut StateWriter);
    /// Deserialize one value.
    ///
    /// # Errors
    /// Any [`StateError`] from the underlying reads.
    fn get(r: &mut StateReader<'_>) -> Result<Self, StateError>;
}

/// A stateful component that can checkpoint its dynamic state and later
/// overwrite it in place from a checkpoint.
///
/// `restore` is called on a structurally identical component freshly
/// rebuilt from the same configuration; it must leave `self`
/// behaviourally indistinguishable from the component that was saved
/// (continued simulation is byte-identical).
pub trait SaveState {
    /// Serialize the dynamic state.
    fn save(&self, w: &mut StateWriter);
    /// Overwrite the dynamic state from a checkpoint.
    ///
    /// # Errors
    /// Any [`StateError`] from decoding, including
    /// [`StateError::LengthMismatch`] when the checkpoint's structure
    /// does not match the live component.
    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError>;
}

impl<T: StateValue> SaveState for T {
    fn save(&self, w: &mut StateWriter) {
        self.put(w);
    }

    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        *self = T::get(r)?;
        Ok(())
    }
}

impl StateValue for u8 {
    fn put(&self, w: &mut StateWriter) {
        w.put_u8(*self);
    }
    fn get(r: &mut StateReader<'_>) -> Result<Self, StateError> {
        r.get_u8()
    }
}

impl StateValue for u32 {
    fn put(&self, w: &mut StateWriter) {
        w.put_u32(*self);
    }
    fn get(r: &mut StateReader<'_>) -> Result<Self, StateError> {
        r.get_u32()
    }
}

impl StateValue for u64 {
    fn put(&self, w: &mut StateWriter) {
        w.put_u64(*self);
    }
    fn get(r: &mut StateReader<'_>) -> Result<Self, StateError> {
        r.get_u64()
    }
}

impl StateValue for usize {
    fn put(&self, w: &mut StateWriter) {
        w.put_u64(*self as u64);
    }
    fn get(r: &mut StateReader<'_>) -> Result<Self, StateError> {
        usize::try_from(r.get_u64()?).map_err(|_| StateError::Corrupt("usize overflow"))
    }
}

impl StateValue for i64 {
    fn put(&self, w: &mut StateWriter) {
        w.put_u64(*self as u64);
    }
    fn get(r: &mut StateReader<'_>) -> Result<Self, StateError> {
        Ok(r.get_u64()? as i64)
    }
}

impl StateValue for bool {
    fn put(&self, w: &mut StateWriter) {
        w.put_u8(u8::from(*self));
    }
    fn get(r: &mut StateReader<'_>) -> Result<Self, StateError> {
        match r.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(StateError::BadTag { what: "bool", tag }),
        }
    }
}

impl StateValue for f64 {
    fn put(&self, w: &mut StateWriter) {
        w.put_u64(self.to_bits());
    }
    fn get(r: &mut StateReader<'_>) -> Result<Self, StateError> {
        Ok(f64::from_bits(r.get_u64()?))
    }
}

impl<T: StateValue> StateValue for Option<T> {
    fn put(&self, w: &mut StateWriter) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.put(w);
            }
        }
    }
    fn get(r: &mut StateReader<'_>) -> Result<Self, StateError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::get(r)?)),
            tag => Err(StateError::BadTag {
                what: "Option",
                tag,
            }),
        }
    }
}

impl<T: StateValue> StateValue for Vec<T> {
    fn put(&self, w: &mut StateWriter) {
        w.put_u64(self.len() as u64);
        for v in self {
            v.put(w);
        }
    }
    fn get(r: &mut StateReader<'_>) -> Result<Self, StateError> {
        let n = usize::get(r)?;
        let mut out = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            out.push(T::get(r)?);
        }
        Ok(out)
    }
}

impl<T: StateValue> StateValue for VecDeque<T> {
    fn put(&self, w: &mut StateWriter) {
        w.put_u64(self.len() as u64);
        for v in self {
            v.put(w);
        }
    }
    fn get(r: &mut StateReader<'_>) -> Result<Self, StateError> {
        let n = usize::get(r)?;
        let mut out = VecDeque::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            out.push_back(T::get(r)?);
        }
        Ok(out)
    }
}

impl<A: StateValue, B: StateValue> StateValue for (A, B) {
    fn put(&self, w: &mut StateWriter) {
        self.0.put(w);
        self.1.put(w);
    }
    fn get(r: &mut StateReader<'_>) -> Result<Self, StateError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

impl<A: StateValue, B: StateValue, C: StateValue> StateValue for (A, B, C) {
    fn put(&self, w: &mut StateWriter) {
        self.0.put(w);
        self.1.put(w);
        self.2.put(w);
    }
    fn get(r: &mut StateReader<'_>) -> Result<Self, StateError> {
        Ok((A::get(r)?, B::get(r)?, C::get(r)?))
    }
}

impl StateValue for String {
    fn put(&self, w: &mut StateWriter) {
        w.put_u64(self.len() as u64);
        w.put_bytes(self.as_bytes());
    }
    fn get(r: &mut StateReader<'_>) -> Result<Self, StateError> {
        let n = usize::get(r)?;
        let bytes = r.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| StateError::Corrupt("non-utf8 string"))
    }
}

macro_rules! usize_newtype_state {
    ($($ty:ty),+) => {$(
        impl StateValue for $ty {
            fn put(&self, w: &mut StateWriter) {
                w.put_u64(self.0 as u64);
            }
            fn get(r: &mut StateReader<'_>) -> Result<Self, StateError> {
                Ok(Self(usize::get(r)?))
            }
        }
    )+};
}

usize_newtype_state!(
    crate::ids::SmId,
    crate::ids::SliceId,
    crate::ids::ChannelId,
    crate::ids::PartitionId,
    crate::ids::ModuleId,
    crate::ids::WarpId
);

macro_rules! u64_newtype_state {
    ($($ty:ty),+) => {$(
        impl StateValue for $ty {
            fn put(&self, w: &mut StateWriter) {
                w.put_u64(self.0);
            }
            fn get(r: &mut StateReader<'_>) -> Result<Self, StateError> {
                Ok(Self(r.get_u64()?))
            }
        }
    )+};
}

u64_newtype_state!(
    crate::addr::VirtAddr,
    crate::addr::PhysAddr,
    crate::addr::LineAddr,
    crate::addr::PageNum,
    crate::packet::ReqId
);

impl StateValue for crate::packet::AccessKind {
    fn put(&self, w: &mut StateWriter) {
        use crate::packet::AccessKind as K;
        w.put_u8(match self {
            K::Load => 0,
            K::LoadReadOnly => 1,
            K::Store => 2,
            K::Atomic => 3,
        });
    }
    fn get(r: &mut StateReader<'_>) -> Result<Self, StateError> {
        use crate::packet::AccessKind as K;
        Ok(match r.get_u8()? {
            0 => K::Load,
            1 => K::LoadReadOnly,
            2 => K::Store,
            3 => K::Atomic,
            tag => {
                return Err(StateError::BadTag {
                    what: "AccessKind",
                    tag,
                })
            }
        })
    }
}

impl StateValue for crate::packet::MemRequest {
    fn put(&self, w: &mut StateWriter) {
        self.id.put(w);
        self.sm.put(w);
        self.warp.put(w);
        self.vaddr.put(w);
        self.paddr.put(w);
        self.kind.put(w);
        self.issue_cycle.put(w);
        self.wants_replica.put(w);
        self.bypass_l1.put(w);
    }
    fn get(r: &mut StateReader<'_>) -> Result<Self, StateError> {
        Ok(crate::packet::MemRequest {
            id: StateValue::get(r)?,
            sm: StateValue::get(r)?,
            warp: StateValue::get(r)?,
            vaddr: StateValue::get(r)?,
            paddr: StateValue::get(r)?,
            kind: StateValue::get(r)?,
            issue_cycle: StateValue::get(r)?,
            wants_replica: StateValue::get(r)?,
            bypass_l1: StateValue::get(r)?,
        })
    }
}

impl StateValue for crate::packet::MemReply {
    fn put(&self, w: &mut StateWriter) {
        self.id.put(w);
        self.sm.put(w);
        self.warp.put(w);
        self.line.put(w);
        self.kind.put(w);
        self.serviced_by.put(w);
        self.llc_hit.put(w);
        self.issue_cycle.put(w);
        self.replica_fill.put(w);
        self.bypass_l1.put(w);
    }
    fn get(r: &mut StateReader<'_>) -> Result<Self, StateError> {
        Ok(crate::packet::MemReply {
            id: StateValue::get(r)?,
            sm: StateValue::get(r)?,
            warp: StateValue::get(r)?,
            line: StateValue::get(r)?,
            kind: StateValue::get(r)?,
            serviced_by: StateValue::get(r)?,
            llc_hit: StateValue::get(r)?,
            issue_cycle: StateValue::get(r)?,
            replica_fill: StateValue::get(r)?,
            bypass_l1: StateValue::get(r)?,
        })
    }
}

/// Serialize a fixed-structure slice of components element-wise, with a
/// length prefix so restore can reject structural drift.
pub fn save_items<T: SaveState>(w: &mut StateWriter, items: &[T]) {
    w.put_u64(items.len() as u64);
    for it in items {
        it.save(w);
    }
}

/// Restore a fixed-structure slice saved by [`save_items`], in place.
///
/// # Errors
/// [`StateError::LengthMismatch`] when the checkpoint's element count
/// differs from the live structure, or any decode error from elements.
pub fn restore_items<T: SaveState>(
    r: &mut StateReader<'_>,
    what: &'static str,
    items: &mut [T],
) -> Result<(), StateError> {
    let n = usize::get(r)?;
    if n != items.len() {
        return Err(StateError::LengthMismatch {
            what,
            expected: items.len(),
            found: n,
        });
    }
    for it in items.iter_mut() {
        it.restore(r)?;
    }
    Ok(())
}

/// Serialize an optional component behind a presence byte (1 present,
/// 0 absent); `save` writes the component itself.
pub fn save_optional<T: ?Sized>(
    w: &mut StateWriter,
    item: Option<&T>,
    save: impl FnOnce(&mut StateWriter, &T),
) {
    match item {
        Some(t) => {
            w.put_u8(1);
            save(w, t);
        }
        None => w.put_u8(0),
    }
}

/// Restore an optional component saved by [`save_optional`], in place:
/// the checkpoint's presence byte must match the rebuilt machine.
///
/// # Errors
/// [`StateError::Corrupt`] carrying `mismatch` when presence differs,
/// or any error from `restore`.
pub fn restore_optional<T: ?Sized>(
    r: &mut StateReader<'_>,
    mismatch: &'static str,
    item: Option<&mut T>,
    restore: impl FnOnce(&mut StateReader<'_>, &mut T) -> Result<(), StateError>,
) -> Result<(), StateError> {
    match (item, r.get_u8()?) {
        (Some(t), 1) => restore(r, t),
        (None, 0) => Ok(()),
        _ => Err(StateError::Corrupt(mismatch)),
    }
}

/// Serialize a hash map **sorted by key** so identical machines produce
/// byte-identical checkpoints regardless of hash-map iteration order.
pub fn save_map<K, V, S>(w: &mut StateWriter, map: &HashMap<K, V, S>)
where
    K: StateValue + Ord,
    V: StateValue,
{
    let mut entries: Vec<(&K, &V)> = map.iter().collect();
    entries.sort_by(|a, b| a.0.cmp(b.0));
    w.put_u64(entries.len() as u64);
    for (k, v) in entries {
        k.put(w);
        v.put(w);
    }
}

/// Restore a map saved by [`save_map`] into `map` (cleared first, so a
/// pre-sized map keeps its capacity).
///
/// # Errors
/// Any decode error from keys or values; [`StateError::Corrupt`] when
/// the keys are not strictly ascending, as [`save_map`] always writes
/// them — a repeated key would otherwise overwrite its predecessor and
/// hand back a smaller map than the section claims.
pub fn restore_map<K, V, S>(
    r: &mut StateReader<'_>,
    map: &mut HashMap<K, V, S>,
) -> Result<(), StateError>
where
    K: StateValue + Ord + Hash + Copy,
    V: StateValue,
    S: BuildHasher,
{
    let n = usize::get(r)?;
    map.clear();
    let mut prev: Option<K> = None;
    for _ in 0..n {
        let k = K::get(r)?;
        if prev.is_some_and(|p| k <= p) {
            return Err(StateError::Corrupt("map keys not strictly ascending"));
        }
        prev = Some(k);
        map.insert(k, V::get(r)?);
    }
    Ok(())
}

/// Restore a `VecDeque` serialized with its [`StateValue`] impl *in
/// place*: the deque is cleared and refilled element by element, so a
/// ring buffer pre-sized at construction keeps its capacity.
///
/// # Errors
/// Any decode error from elements.
pub fn restore_deque<T: StateValue>(
    r: &mut StateReader<'_>,
    q: &mut VecDeque<T>,
) -> Result<(), StateError> {
    let n = usize::get(r)?;
    q.clear();
    for _ in 0..n {
        q.push_back(T::get(r)?);
    }
    Ok(())
}

/// Restore a fixed-length slice of deques saved as one `Vec` of them,
/// each deque in place (see [`restore_deque`]).
///
/// # Errors
/// [`StateError::LengthMismatch`] when the checkpoint's deque count
/// differs from the live structure, or any decode error from elements.
pub fn restore_deques<T: StateValue>(
    r: &mut StateReader<'_>,
    what: &'static str,
    queues: &mut [VecDeque<T>],
) -> Result<(), StateError> {
    let n = usize::get(r)?;
    if n != queues.len() {
        return Err(StateError::LengthMismatch {
            what,
            expected: queues.len(),
            found: n,
        });
    }
    for q in queues {
        restore_deque(r, q)?;
    }
    Ok(())
}

/// Restore a `Vec` serialized with its [`StateValue`] impl *in place*
/// (cleared and refilled, preserving a pre-sized capacity).
///
/// # Errors
/// Any decode error from elements.
pub fn restore_vec<T: StateValue>(
    r: &mut StateReader<'_>,
    v: &mut Vec<T>,
) -> Result<(), StateError> {
    let n = usize::get(r)?;
    v.clear();
    for _ in 0..n {
        v.push(T::get(r)?);
    }
    Ok(())
}

/// FNV-1a 64-bit hash — the workspace's canonical identity hash for
/// configurations and workload parameters (stable across runs and
/// platforms, unlike `std`'s randomized hasher).
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::IntMap;
    use crate::packet::{AccessKind, MemRequest, ReqId};
    use crate::{PhysAddr, SmId, VirtAddr, WarpId};

    #[test]
    fn primitives_roundtrip() {
        let mut w = StateWriter::new();
        0xdeadbeefu64.put(&mut w);
        (-7i64).put(&mut w);
        true.put(&mut w);
        (1.5f64).put(&mut w);
        Some(3u32).put(&mut w);
        Option::<u32>::None.put(&mut w);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        assert_eq!(u64::get(&mut r).unwrap(), 0xdeadbeef);
        assert_eq!(i64::get(&mut r).unwrap(), -7);
        assert!(bool::get(&mut r).unwrap());
        assert_eq!(f64::get(&mut r).unwrap().to_bits(), 1.5f64.to_bits());
        assert_eq!(Option::<u32>::get(&mut r).unwrap(), Some(3));
        assert_eq!(Option::<u32>::get(&mut r).unwrap(), None);
        assert!(r.is_done());
    }

    #[test]
    fn containers_preserve_order() {
        let v: Vec<u64> = vec![5, 1, 9];
        let mut d: VecDeque<u32> = VecDeque::new();
        d.push_back(2);
        d.push_front(1);
        let mut w = StateWriter::new();
        v.put(&mut w);
        d.put(&mut w);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        assert_eq!(<Vec<u64> as StateValue>::get(&mut r).unwrap(), v);
        assert_eq!(<VecDeque<u32> as StateValue>::get(&mut r).unwrap(), d);
    }

    /// The cycle-path maps are [`IntMap`]s: whatever order (and so
    /// whatever bucket layout) a map was filled in, it serializes to the
    /// same bytes and restores equal.
    #[test]
    fn maps_serialize_sorted() {
        let keys: Vec<u64> = (0..500u64).map(|i| (i * 0x9e37) % 4093 * 128).collect();
        let mut a: IntMap<u64, u64> = IntMap::default();
        let mut b: IntMap<u64, u64> = IntMap::with_capacity_and_hasher(4096, Default::default());
        for &k in &keys {
            a.insert(k, k * 10);
        }
        for &k in keys.iter().rev() {
            b.insert(k, k * 10);
        }
        let (mut wa, mut wb) = (StateWriter::new(), StateWriter::new());
        save_map(&mut wa, &a);
        save_map(&mut wb, &b);
        assert_eq!(wa.bytes(), wb.bytes(), "insertion order must not leak");
        let bytes = wa.into_bytes();
        let mut r = StateReader::new(&bytes);
        let mut back: IntMap<u64, u64> = IntMap::default();
        restore_map(&mut r, &mut back).unwrap();
        assert_eq!(back, a);
        assert_eq!(back, b);
    }

    #[test]
    fn restore_map_rejects_repeated_and_unsorted_keys() {
        let section = |pairs: &[(u64, u64)]| {
            let mut w = StateWriter::new();
            w.put_u64(pairs.len() as u64);
            for (k, v) in pairs {
                k.put(&mut w);
                v.put(&mut w);
            }
            w.into_bytes()
        };
        let mut got: IntMap<u64, u64> = IntMap::default();
        let ok = section(&[(1, 10), (2, 20), (3, 30)]);
        restore_map(&mut StateReader::new(&ok), &mut got).unwrap();
        assert_eq!(got.len(), 3);
        for bad in [
            section(&[(1, 10), (2, 20), (2, 99)]),
            section(&[(1, 10), (3, 30), (2, 20)]),
        ] {
            assert_eq!(
                restore_map(&mut StateReader::new(&bad), &mut got),
                Err(StateError::Corrupt("map keys not strictly ascending"))
            );
        }
    }

    #[test]
    fn packets_roundtrip() {
        let req = MemRequest {
            id: ReqId(42),
            sm: SmId(3),
            warp: WarpId(7),
            vaddr: VirtAddr(0x1234),
            paddr: PhysAddr(0x5678),
            kind: AccessKind::LoadReadOnly,
            issue_cycle: 99,
            wants_replica: true,
            bypass_l1: false,
        };
        let mut w = StateWriter::new();
        req.put(&mut w);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        assert_eq!(MemRequest::get(&mut r).unwrap(), req);
        assert!(r.is_done());
    }

    #[test]
    fn truncation_is_detected() {
        let mut w = StateWriter::new();
        7u64.put(&mut w);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes[..4]);
        assert!(matches!(
            u64::get(&mut r),
            Err(StateError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn length_mismatch_is_rejected() {
        let mut w = StateWriter::new();
        save_items(&mut w, &[1u64, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        let mut two = [0u64; 2];
        assert!(matches!(
            restore_items(&mut r, "test", &mut two),
            Err(StateError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn optional_presence_and_deque_count_must_match_the_machine() {
        let mut w = StateWriter::new();
        save_optional(&mut w, Some(&5u64), |w, v| v.put(w));
        save_optional::<u64>(&mut w, None, |w, v| v.put(w));
        vec![VecDeque::from([1u64, 2]), VecDeque::new()].put(&mut w);
        let bytes = w.into_bytes();
        let get = |r: &mut StateReader<'_>, v: &mut u64| {
            *v = u64::get(r)?;
            Ok(())
        };

        let mut r = StateReader::new(&bytes);
        let mut v = 0u64;
        restore_optional(&mut r, "present", Some(&mut v), get).expect("present");
        restore_optional::<u64>(&mut r, "absent", None, get).expect("absent");
        let mut queues = [VecDeque::new(), VecDeque::from([9u64])];
        restore_deques(&mut r, "queues", &mut queues).expect("two queues");
        assert!(r.is_done());
        assert_eq!(v, 5);
        assert_eq!(queues, [VecDeque::from([1, 2]), VecDeque::new()]);

        // Presence byte 1 (at 0) against an absent component, presence
        // byte 0 (at 9) against a present one, and two saved deques
        // against three live ones are all rejected.
        let mut r = StateReader::new(&bytes);
        let err = restore_optional::<u64>(&mut r, "mismatch", None, get);
        assert_eq!(err, Err(StateError::Corrupt("mismatch")));
        let mut r = StateReader::new(&bytes[9..]);
        let err = restore_optional(&mut r, "mismatch", Some(&mut v), get);
        assert_eq!(err, Err(StateError::Corrupt("mismatch")));
        let mut r = StateReader::new(&bytes[10..]);
        let mut three: [VecDeque<u64>; 3] = Default::default();
        assert!(matches!(
            restore_deques(&mut r, "queues", &mut three),
            Err(StateError::LengthMismatch {
                expected: 3,
                found: 2,
                ..
            })
        ));
    }

    #[test]
    fn fnv1a_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), fnv1a(b"a"));
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }
}
