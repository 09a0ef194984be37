//! Memory-trace capture and replay.
//!
//! A [`Trace`] is a per-warp sequence of [`WarpOp`]s with just enough
//! metadata to rebuild a [`Workload`](crate::Workload). Uses:
//!
//! - **capture** a synthetic workload once and replay it byte-identically
//!   across architecture comparisons or simulator versions;
//! - **import** traces produced by other tools (one record per warp
//!   operation) and drive the simulator with real applications.
//!
//! The on-disk format is a small, versioned little-endian binary:
//!
//! ```text
//! magic "NUBATRC1" | u32 num_sms | u32 warps_per_sm | u64 page_bytes
//!   | u64 total_pages | per stream: u32 count, records...
//! record: 0x01 u64 vaddr u8 kind u8 bypass   (memory op)
//!         0x02 u32 cycles                    (compute block)
//! kind: 0 load, 1 read-only load, 2 store, 3 atomic
//! ```

use std::io::{self, Read, Write};
use std::sync::Arc;

use nuba_types::{AccessKind, SmId, VirtAddr, WarpId};

use crate::stream::{Access, WarpOp};

const MAGIC: &[u8; 8] = b"NUBATRC1";

/// A captured workload: per-(SM, warp) operation sequences plus layout
/// metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// SM count the trace was captured for.
    pub num_sms: usize,
    /// Warp streams per SM.
    pub warps_per_sm: usize,
    /// Page size the virtual addresses assume.
    pub page_bytes: u64,
    /// Virtual pages spanned (for driver/warm-up sizing).
    pub total_pages: u64,
    streams: Vec<Arc<Vec<WarpOp>>>,
}

impl Trace {
    /// Capture `ops_per_warp` operations from every (SM, warp) stream of
    /// a workload.
    pub fn capture(workload: &crate::Workload, warps_per_sm: usize, ops_per_warp: usize) -> Trace {
        let num_sms = workload.num_sms();
        let mut streams = Vec::with_capacity(num_sms * warps_per_sm);
        for sm in 0..num_sms {
            for w in 0..warps_per_sm {
                let mut s = workload.stream(SmId(sm), WarpId(w));
                let ops: Vec<WarpOp> = (0..ops_per_warp).map(|_| s.next_op()).collect();
                streams.push(Arc::new(ops));
            }
        }
        Trace {
            num_sms,
            warps_per_sm,
            page_bytes: workload.layout().page_bytes,
            total_pages: workload.layout().total_pages,
            streams,
        }
    }

    /// Build a trace directly from per-stream op vectors (imports).
    ///
    /// # Panics
    /// Panics if `streams.len() != num_sms * warps_per_sm` or any
    /// dimension is zero.
    pub fn from_streams(
        num_sms: usize,
        warps_per_sm: usize,
        page_bytes: u64,
        streams: Vec<Vec<WarpOp>>,
    ) -> Trace {
        assert!(num_sms > 0 && warps_per_sm > 0);
        assert_eq!(streams.len(), num_sms * warps_per_sm);
        let total_pages = streams
            .iter()
            .flatten()
            .filter_map(|op| match op {
                WarpOp::Mem(a) => Some(a.vaddr.0 / page_bytes + 1),
                WarpOp::Compute(_) => None,
            })
            .max()
            .unwrap_or(1);
        Trace {
            num_sms,
            warps_per_sm,
            page_bytes,
            total_pages,
            streams: streams.into_iter().map(Arc::new).collect(),
        }
    }

    /// The op sequence of one stream.
    ///
    /// # Panics
    /// Panics if the ids are out of range.
    pub fn ops(&self, sm: SmId, warp: WarpId) -> &Arc<Vec<WarpOp>> {
        &self.streams[sm.0 * self.warps_per_sm + warp.0]
    }

    /// Total recorded operations.
    pub fn len(&self) -> usize {
        self.streams.iter().map(|s| s.len()).sum()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serialize to a writer.
    ///
    /// # Errors
    /// Propagates I/O errors from `w`.
    pub fn write_to<W: Write>(&self, mut w: W) -> io::Result<()> {
        w.write_all(MAGIC)?;
        w.write_all(&(self.num_sms as u32).to_le_bytes())?;
        w.write_all(&(self.warps_per_sm as u32).to_le_bytes())?;
        w.write_all(&self.page_bytes.to_le_bytes())?;
        w.write_all(&self.total_pages.to_le_bytes())?;
        for stream in &self.streams {
            w.write_all(&(stream.len() as u32).to_le_bytes())?;
            for op in stream.iter() {
                match op {
                    WarpOp::Mem(a) => {
                        w.write_all(&[0x01])?;
                        w.write_all(&a.vaddr.0.to_le_bytes())?;
                        let kind = match a.kind {
                            AccessKind::Load => 0u8,
                            AccessKind::LoadReadOnly => 1,
                            AccessKind::Store => 2,
                            AccessKind::Atomic => 3,
                        };
                        w.write_all(&[kind, u8::from(a.bypass_l1)])?;
                    }
                    WarpOp::Compute(c) => {
                        w.write_all(&[0x02])?;
                        w.write_all(&c.to_le_bytes())?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Deserialize from a reader.
    ///
    /// # Errors
    /// Returns `InvalidData` for a bad magic/tag or an access outside
    /// the header's `total_pages`, or propagates I/O errors.
    pub fn read_from<R: Read>(mut r: R) -> io::Result<Trace> {
        fn bad(msg: &str) -> io::Error {
            io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
        }
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(bad("not a NUBA trace (bad magic)"));
        }
        let mut b4 = [0u8; 4];
        let mut b8 = [0u8; 8];
        r.read_exact(&mut b4)?;
        let num_sms = u32::from_le_bytes(b4) as usize;
        r.read_exact(&mut b4)?;
        let warps_per_sm = u32::from_le_bytes(b4) as usize;
        r.read_exact(&mut b8)?;
        let page_bytes = u64::from_le_bytes(b8);
        r.read_exact(&mut b8)?;
        let total_pages = u64::from_le_bytes(b8);
        if num_sms == 0 || warps_per_sm == 0 || !page_bytes.is_power_of_two() {
            return Err(bad("corrupt trace header"));
        }
        let mut streams = Vec::with_capacity(num_sms * warps_per_sm);
        for _ in 0..num_sms * warps_per_sm {
            r.read_exact(&mut b4)?;
            let count = u32::from_le_bytes(b4) as usize;
            let mut ops = Vec::with_capacity(count.min(1 << 20));
            for _ in 0..count {
                let mut tag = [0u8; 1];
                r.read_exact(&mut tag)?;
                match tag[0] {
                    0x01 => {
                        r.read_exact(&mut b8)?;
                        let vaddr = u64::from_le_bytes(b8);
                        // Warm-up keeps one slot per page of the span.
                        if vaddr / page_bytes >= total_pages {
                            return Err(bad("access beyond the trace's page span"));
                        }
                        let mut kb = [0u8; 2];
                        r.read_exact(&mut kb)?;
                        let kind = match kb[0] {
                            0 => AccessKind::Load,
                            1 => AccessKind::LoadReadOnly,
                            2 => AccessKind::Store,
                            3 => AccessKind::Atomic,
                            _ => return Err(bad("bad access kind")),
                        };
                        ops.push(WarpOp::Mem(Access {
                            vaddr: VirtAddr(vaddr),
                            kind,
                            bypass_l1: kb[1] != 0,
                        }));
                    }
                    0x02 => {
                        r.read_exact(&mut b4)?;
                        ops.push(WarpOp::Compute(u32::from_le_bytes(b4)));
                    }
                    _ => return Err(bad("bad record tag")),
                }
            }
            streams.push(Arc::new(ops));
        }
        Ok(Trace {
            num_sms,
            warps_per_sm,
            page_bytes,
            total_pages,
            streams,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BenchmarkId, ScaleProfile, Workload};

    fn sample_trace() -> Trace {
        let wl = Workload::build(BenchmarkId::Sgemm, ScaleProfile::fast(), 4, 9);
        Trace::capture(&wl, 2, 50)
    }

    #[test]
    fn capture_shapes() {
        let t = sample_trace();
        assert_eq!(t.num_sms, 4);
        assert_eq!(t.warps_per_sm, 2);
        assert_eq!(t.len(), 4 * 2 * 50);
        assert_eq!(t.ops(SmId(3), WarpId(1)).len(), 50);
    }

    #[test]
    fn roundtrip_through_bytes() {
        let t = sample_trace();
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        let back = Trace::read_from(buf.as_slice()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn bad_magic_rejected() {
        let err = Trace::read_from(&b"GARBAGE!rest"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_stream_is_an_error() {
        let t = sample_trace();
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(Trace::read_from(buf.as_slice()).is_err());
    }

    #[test]
    fn access_beyond_the_page_span_is_an_error() {
        let t = sample_trace();
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        // Header: magic, two u32 counts, page_bytes, then total_pages.
        let at = 8 + 4 + 4 + 8;
        buf[at..at + 8].copy_from_slice(&1u64.to_le_bytes());
        let err = Trace::read_from(buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn from_streams_computes_page_span() {
        let ops = vec![
            vec![WarpOp::Mem(Access {
                vaddr: VirtAddr(5 * 4096),
                kind: AccessKind::Load,
                bypass_l1: false,
            })],
            vec![WarpOp::Compute(3)],
        ];
        let t = Trace::from_streams(2, 1, 4096, ops);
        assert_eq!(t.total_pages, 6);
    }

    #[test]
    fn capture_is_deterministic() {
        let a = sample_trace();
        let b = sample_trace();
        assert_eq!(a, b);
    }
}
