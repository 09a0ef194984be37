//! Adversarial checkpoint decoding: `Checkpoint::from_bytes` over
//! random truncations, single-byte corruptions, and trailing garbage
//! of a *valid* checkpoint must always yield a typed [`StateError`] —
//! never a panic, and never a silent wrong-data accept. The trailing
//! end-to-end checksum (state format v2) is what makes the
//! single-byte-corruption guarantee absolute.
//!
//! The checksum vouches for bytes, not meaning: a section that decodes
//! cleanly must still describe state the simulator could have reached,
//! or restore rejects it too.

use std::sync::OnceLock;

use proptest::prelude::*;

use nuba_core::{Checkpoint, GpuSimulator, Sm, SmParams};
use nuba_types::state::{SaveState, StateError, StateReader, StateWriter};
use nuba_types::{ArchKind, GpuConfig, LineAddr, SmId, WarpId};
use nuba_workloads::{BenchmarkId, ScaleProfile, Workload};

/// One small but real checkpoint (geometry-reduced NUBA machine,
/// warmed and briefly run so every payload section is non-trivial),
/// serialized once and shared by every property.
fn valid_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let cfg = GpuConfig::paper_baseline(ArchKind::Nuba)
            .with_geometry(8, 8, 4, 8)
            .with_page_fault_latency(200);
        let wl = Workload::build(BenchmarkId::Kmeans, ScaleProfile::fast(), 8, cfg.seed);
        let mut gpu = GpuSimulator::try_new(cfg, &wl).expect("valid config");
        gpu.warm(&wl, 64);
        gpu.run(200).expect("forward progress");
        gpu.checkpoint(&wl).to_bytes()
    })
}

proptest! {
    #[test]
    fn truncation_at_any_point_is_a_typed_error(cut in 0usize..1_000_000) {
        let bytes = valid_bytes();
        // Any strict prefix — including the empty one — must be
        // rejected; the checksum no longer matches (or the header is
        // not even present).
        let cut = cut % bytes.len();
        match Checkpoint::from_bytes(&bytes[..cut]) {
            Ok(_) => prop_assert!(false, "accepted a truncated checkpoint at {cut}"),
            Err(
                StateError::UnexpectedEof { .. }
                | StateError::ChecksumMismatch { .. }
                | StateError::VersionMismatch { .. }
                | StateError::Corrupt(_),
            ) => {}
            Err(e) => prop_assert!(false, "untyped rejection at {cut}: {e}"),
        }
    }

    #[test]
    fn single_byte_corruption_never_accepted(
        at in 0usize..1_000_000,
        xor in 1u8..=255,
    ) {
        let mut bytes = valid_bytes().to_vec();
        let at = at % bytes.len();
        bytes[at] ^= xor;
        // A flipped byte anywhere — header, lengths, payload, or the
        // checksum itself — must surface as a typed error. It must
        // never decode to a different-but-accepted checkpoint.
        prop_assert!(
            Checkpoint::from_bytes(&bytes).is_err(),
            "accepted checkpoint with byte {at} xor {xor:#04x}"
        );
    }

    #[test]
    fn trailing_garbage_is_rejected(
        tail in collection::vec(any::<u8>(), 1..64),
    ) {
        let mut bytes = valid_bytes().to_vec();
        bytes.extend_from_slice(&tail);
        // Appended bytes shift the checksum tail, so the end-to-end
        // hash check fires before any length field is trusted.
        match Checkpoint::from_bytes(&bytes) {
            Ok(_) => prop_assert!(false, "accepted checkpoint with trailing garbage"),
            Err(StateError::ChecksumMismatch { .. } | StateError::Corrupt(_)) => {}
            Err(e) => prop_assert!(false, "unexpected rejection: {e}"),
        }
    }

    #[test]
    fn valid_bytes_always_roundtrip(_nonce in 0u8..8) {
        // Control arm: the unmodified bytes must keep decoding, and
        // re-serializing must be byte-identical.
        let ckpt = Checkpoint::from_bytes(valid_bytes()).expect("valid checkpoint decodes");
        let reserialized = ckpt.to_bytes();
        prop_assert_eq!(reserialized.as_slice(), valid_bytes());
    }
}

/// An SM's L1 MSHR section can decode cleanly and still hold an entry
/// `allocate` never makes: one with no waiters, whose fill would wake
/// nobody, or one with more than the 16 a line merges, which one fill
/// would hand back at once. Restoring either is a typed error.
#[test]
fn mshr_entries_allocate_cannot_produce_are_rejected() {
    let wl = Workload::build(BenchmarkId::Kmeans, ScaleProfile::fast(), 8, 1);
    let sm = || {
        let streams = (0..4).map(|w| wl.stream(SmId(0), WarpId(w))).collect();
        let params = SmParams {
            warps: 4,
            ..SmParams::paper()
        };
        Sm::new(SmId(0), params, streams)
    };
    let mut live = sm();
    let line = LineAddr(0x5eed_0000 * 128);
    assert!(live.commit_load_miss(WarpId(2), line), "primary miss");
    let mut w = StateWriter::new();
    live.save(&mut w);
    let bytes = w.into_bytes();
    sm().restore(&mut StateReader::new(&bytes))
        .expect("the real section restores");

    // The MSHR section: one entry, `line`, one waiter (warp 2). Its
    // waiter count is the third field.
    let entry: Vec<u8> = [1u64, line.0, 1, 2]
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();
    let at = bytes
        .windows(entry.len())
        .position(|win| win == entry)
        .expect("the L1 MSHR section is in the SM's bytes")
        + 16;
    let forged = [
        (0u64, StateError::Corrupt("MSHR entry with no waiters")),
        (
            17,
            StateError::LengthMismatch {
                what: "MSHR waiters exceed merge limit",
                expected: 16,
                found: 17,
            },
        ),
    ];
    for (waiters, want) in forged {
        let mut bad = bytes.clone();
        bad[at..at + 8].copy_from_slice(&waiters.to_le_bytes());
        assert_eq!(sm().restore(&mut StateReader::new(&bad)), Err(want));
    }
}
