//! Persistent content-addressed store with crash-safe writes,
//! corruption quarantine, LRU size capping, and deterministic
//! disk-fault injection.
//!
//! The store turns the runner's in-process warm-state cache into
//! something that survives the process: each entry is one file holding
//! a payload wrapped in a store envelope (magic, format version, key
//! echo, payload, trailing [`fnv1a`] checksum over everything before
//! it). The [`StoreKind`] fixes what the payload is: a `warm/` entry
//! holds a workload's first-touch trace ([`encode_trace`]), a `run/`
//! entry a whole-machine [`Checkpoint`]. Entries are keyed by
//! [`StoreKey`] — `(kind, benchmark, identity hash, depth)` — so two
//! processes that warm the same workload to the same depth share one
//! entry, and a salvaged mid-run checkpoint can never be mistaken for a
//! warm-up trace.
//!
//! Durability contract (DESIGN.md §15):
//!
//! - **Atomicity** — entries are written to a same-directory temp file
//!   and published with [`std::fs::rename`]; a reader can never observe
//!   a half-written entry, and a crash mid-write leaves only a
//!   `*.tmp` orphan that [`CheckpointStore::open`] sweeps into the
//!   quarantine sidecar on the next start.
//! - **End-to-end verification** — every read re-checks the envelope
//!   magic, version, key echo, and checksum, then decodes the payload
//!   with the caller's decoder. Any failure quarantines the entry — it
//!   is *never* `panic!`ed on and *never* silently reused — and reports
//!   a cache miss so the caller re-derives the state from scratch,
//!   byte-identically.
//! - **Quarantine** — damaged entries move (never delete in place) to
//!   the `quarantine/` sidecar directory for post-mortem inspection by
//!   [`nuba_fsck`](../../nuba_fsck/index.html).
//! - **Bounded size** — after each insert the store evicts
//!   least-recently-used entries (mtime order, bumped on hit) until
//!   total size fits `NUBA_STORE_MAX_BYTES`.
//!
//! Fault injection mirrors the PR 3 `FaultPlan` design: a
//! [`StoreFaultPlan`] is plain data — faults scheduled against the
//! store's monotonic write/read operation counters — compiled from the
//! `NUBA_STORE_FAULT` spec and drained deterministically as operations
//! happen. Faults degrade the store, never the simulation: a torn or
//! unreadable entry is detected and quarantined on read, an injected
//! `ENOSPC` skips persistence with a warning, and matrix results stay
//! byte-identical throughout.

use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::SystemTime;

use nuba_core::Checkpoint;
use nuba_types::addr::PageNum;
use nuba_types::state::{
    fnv1a, StateError, StateReader, StateValue, StateWriter, STATE_FORMAT_VERSION,
};
use nuba_types::SmId;
use nuba_workloads::BenchmarkId;

use crate::HarnessOptions;

/// Magic number prefixing store entry envelopes (`"NUST"`).
const STORE_MAGIC: u32 = 0x4E55_5354;

/// File extension of committed entries.
const ENTRY_EXT: &str = "ckpt";

/// File extension of in-flight temp files (orphans are quarantined on
/// open).
const TMP_EXT: &str = "tmp";

/// What an entry holds, part of the key so the two namespaces can
/// never collide: a warm-up trace at depth `accesses-per-warp` and a
/// mid-run salvage at depth `cycle` would otherwise be
/// indistinguishable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoreKind {
    /// First-touch trace (the runner's warm-state cache, see
    /// [`encode_trace`]); `depth` is the per-warp warm access count.
    Warm,
    /// Mid-run machine state, [`Checkpoint::to_bytes`]
    /// (deadline/cancellation salvage, `nuba_sim --checkpoint`);
    /// `depth` is the simulated cycle.
    Run,
}

impl StoreKind {
    fn tag(self) -> &'static str {
        match self {
            StoreKind::Warm => "warm",
            StoreKind::Run => "run",
        }
    }

    fn from_tag(tag: &str) -> Option<StoreKind> {
        match tag {
            "warm" => Some(StoreKind::Warm),
            "run" => Some(StoreKind::Run),
            _ => None,
        }
    }
}

/// Content address of one stored entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StoreKey {
    /// Warm-up trace or mid-run salvage.
    pub kind: StoreKind,
    /// The benchmark the entry was taken on.
    pub bench: BenchmarkId,
    /// Identity of everything else the payload depends on. `Run`: the
    /// [`GpuConfig::state_hash`](nuba_types::GpuConfig::state_hash)
    /// (covers seed, page size, telemetry knobs — everything that
    /// shapes the machine state). `Warm`: the hash of the workload and
    /// the machine shape a first-touch trace reads, which no
    /// architecture or policy knob enters.
    pub hash: u64,
    /// Warm depth (accesses per warp) or salvage cycle, per `kind`.
    pub depth: u64,
}

impl StoreKey {
    /// A warm-trace key (the runner's warm-state cache namespace).
    pub fn warm(bench: BenchmarkId, hash: u64, depth: u64) -> StoreKey {
        StoreKey {
            kind: StoreKind::Warm,
            bench,
            hash,
            depth,
        }
    }

    /// A mid-run salvage key.
    pub fn run(bench: BenchmarkId, hash: u64, cycle: u64) -> StoreKey {
        StoreKey {
            kind: StoreKind::Run,
            bench,
            hash,
            depth: cycle,
        }
    }

    /// The entry's file name: `<kind>-<bench>-<hash>-<depth>.ckpt`
    /// with the benchmark abbreviation sanitized to `[A-Za-z0-9_]`.
    pub fn file_name(&self) -> String {
        let bench: String = self
            .bench
            .to_string()
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        format!(
            "{}-{}-{:016x}-{}.{ENTRY_EXT}",
            self.tag_str(),
            bench,
            self.hash,
            self.depth
        )
    }

    fn tag_str(&self) -> &'static str {
        self.kind.tag()
    }
}

impl fmt::Display for StoreKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{}/{:016x}/{}",
            self.tag_str(),
            self.bench,
            self.hash,
            self.depth
        )
    }
}

/// One injectable disk fault, mirroring the simulator's
/// [`Fault`](nuba_engine::Fault) taxonomy for storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreFault {
    /// Simulate a non-atomic torn write: only the first `keep_bytes`
    /// bytes of the entry land **directly at the final path** (no temp
    /// file, no rename) — the pre-atomic failure mode the store's
    /// verification must catch on the next read.
    TornWrite {
        /// Bytes of the entry that survive the tear.
        keep_bytes: usize,
    },
    /// Flip one bit of the entry as it is written (media corruption
    /// that atomic rename cannot prevent).
    BitFlip {
        /// Byte offset whose lowest bit is flipped (wrapped into the
        /// entry length).
        offset: usize,
    },
    /// The write fails like a full disk; persistence is skipped with a
    /// warning and the run carries on from memory.
    Enospc,
    /// The next read of an entry fails like an I/O error; the entry is
    /// quarantined as unreadable.
    Unreadable,
}

/// A deterministic schedule of [`StoreFault`]s keyed on the store's
/// monotonic operation counters (writes for `torn`/`flip`/`enospc`,
/// reads for `unreadable`) — plain data, drained as operations happen,
/// exactly like the simulator's `FaultPlan` drains cycle edges.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreFaultPlan {
    /// `(write-op index, fault)` for write-side faults.
    writes: Vec<(u64, StoreFault)>,
    /// Read-op indices that fail as unreadable.
    reads: Vec<u64>,
}

impl StoreFaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> StoreFaultPlan {
        StoreFaultPlan::default()
    }

    /// Schedule a fault: write-side faults (`TornWrite`, `BitFlip`,
    /// `Enospc`) fire on the `op`-th write, `Unreadable` on the
    /// `op`-th read.
    #[must_use]
    pub fn with(mut self, op: u64, fault: StoreFault) -> StoreFaultPlan {
        match fault {
            StoreFault::Unreadable => self.reads.push(op),
            f => self.writes.push((op, f)),
        }
        self
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.writes.is_empty() && self.reads.is_empty()
    }

    /// Parse the `NUBA_STORE_FAULT` spec: comma-separated
    /// `torn@<op>[:<keep_bytes>]`, `flip@<op>[:<offset>]`,
    /// `enospc@<op>`, `unreadable@<op>`.
    ///
    /// # Errors
    /// A description of the first malformed element.
    pub fn parse(spec: &str) -> Result<StoreFaultPlan, String> {
        let mut plan = StoreFaultPlan::new();
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let part = part.trim();
            let (kind, rest) = part
                .split_once('@')
                .ok_or_else(|| format!("store fault `{part}`: expected <kind>@<op>"))?;
            let (op, param) = match rest.split_once(':') {
                Some((op, param)) => (op, Some(param)),
                None => (rest, None),
            };
            let op: u64 = op
                .parse()
                .map_err(|e| format!("store fault `{part}`: bad op index: {e}"))?;
            let param_usize = |default: usize| -> Result<usize, String> {
                match param {
                    Some(p) => p
                        .parse()
                        .map_err(|e| format!("store fault `{part}`: bad parameter: {e}")),
                    None => Ok(default),
                }
            };
            let fault = match kind {
                "torn" => StoreFault::TornWrite {
                    keep_bytes: param_usize(64)?,
                },
                "flip" => StoreFault::BitFlip {
                    offset: param_usize(97)?,
                },
                "enospc" => StoreFault::Enospc,
                "unreadable" => StoreFault::Unreadable,
                other => return Err(format!("store fault `{part}`: unknown kind `{other}`")),
            };
            plan = plan.with(op, fault);
        }
        Ok(plan)
    }
}

/// Why a store operation failed (reported, never panicked on).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The underlying filesystem operation failed (includes injected
    /// `ENOSPC`).
    Io(String),
    /// The entry's bytes failed verification.
    Corrupt(StateError),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Corrupt(e) => write!(f, "store entry corrupt: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        StoreError::Io(e.to_string())
    }
}

/// Store construction parameters. `dir: None` means "disabled" — the
/// runner then falls back byte-identically to its in-memory cache.
#[derive(Debug, Clone, Default)]
pub struct StoreConfig {
    /// Root directory; `None` disables the store.
    pub dir: Option<PathBuf>,
    /// Total committed-entry budget in bytes (`0` = unlimited).
    pub max_bytes: u64,
    /// Deterministic fault schedule (chaos drills only).
    pub faults: StoreFaultPlan,
    /// Stall injected mid-write, in milliseconds (crash-recovery tests
    /// park here so a parent process can `kill -9` the writer).
    pub write_stall_ms: u64,
}

impl StoreConfig {
    /// Read `NUBA_STORE_DIR`, `NUBA_STORE_MAX_BYTES`,
    /// `NUBA_STORE_FAULT`, and `NUBA_STORE_WRITE_STALL_MS` from the
    /// process-wide [`HarnessOptions`] snapshot.
    pub fn from_env() -> StoreConfig {
        let opts = HarnessOptions::get();
        let faults = match &opts.store_fault {
            Some(spec) => StoreFaultPlan::parse(spec).unwrap_or_else(|e| {
                eprintln!("store: ignoring NUBA_STORE_FAULT: {e}");
                StoreFaultPlan::new()
            }),
            None => StoreFaultPlan::new(),
        };
        StoreConfig {
            dir: opts.store_dir.as_ref().map(PathBuf::from),
            max_bytes: opts.store_max_bytes,
            faults,
            write_stall_ms: opts.store_write_stall_ms,
        }
    }
}

/// Counters of everything the store has done (diagnostics/tests; the
/// simulation results never depend on them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Reads that returned a verified, decoded entry.
    pub hits: u64,
    /// Reads that found no entry.
    pub misses: u64,
    /// Entries committed.
    pub inserts: u64,
    /// Writes skipped or lost to I/O errors (includes injected
    /// `ENOSPC`).
    pub write_errors: u64,
    /// Entries moved to the quarantine sidecar (corrupt, truncated,
    /// stale-version, unreadable, or orphaned temp files).
    pub quarantined: u64,
    /// Entries evicted by the LRU size cap.
    pub evictions: u64,
}

struct StoreInner {
    faults: StoreFaultPlan,
    write_ops: u64,
    read_ops: u64,
    stats: StoreStats,
}

impl StoreInner {
    /// Take the fault (if any) scheduled for the current write op.
    fn next_write_fault(&mut self) -> Option<StoreFault> {
        let op = self.write_ops;
        self.write_ops += 1;
        self.faults
            .writes
            .iter()
            .find(|(at, _)| *at == op)
            .map(|&(_, f)| f)
    }

    /// Whether the current read op is scheduled to fail.
    fn next_read_unreadable(&mut self) -> bool {
        let op = self.read_ops;
        self.read_ops += 1;
        self.faults.reads.contains(&op)
    }
}

/// The persistent checkpoint store. All methods take `&self`; internal
/// counters live behind a mutex so one store can back a parallel
/// matrix.
pub struct CheckpointStore {
    root: PathBuf,
    quarantine_dir: PathBuf,
    max_bytes: u64,
    write_stall_ms: u64,
    inner: Mutex<StoreInner>,
}

/// What [`CheckpointStore::open`] found and cleaned up.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Orphaned temp files (crash mid-write) moved to quarantine.
    pub orphaned_tmp: Vec<String>,
}

/// One entry's verdict from [`CheckpointStore::verify_all`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntryVerdict {
    /// Entry file name.
    pub file: String,
    /// Entry size in bytes.
    pub bytes: u64,
    /// `Ok(key)` when the entry verified, `Err(reason)` otherwise.
    pub status: Result<StoreKey, String>,
}

impl CheckpointStore {
    /// Open (creating directories as needed) and run crash recovery:
    /// orphaned temp files from a previous crashed writer are swept
    /// into quarantine before any entry can be read.
    ///
    /// # Errors
    /// [`StoreError::Io`] if the directories cannot be created.
    pub fn open(cfg: StoreConfig) -> Result<CheckpointStore, StoreError> {
        let root = cfg
            .dir
            .ok_or_else(|| StoreError::Io("store disabled: no directory configured".into()))?;
        let quarantine_dir = root.join("quarantine");
        fs::create_dir_all(&root)?;
        fs::create_dir_all(&quarantine_dir)?;
        let store = CheckpointStore {
            root,
            quarantine_dir,
            max_bytes: cfg.max_bytes,
            write_stall_ms: cfg.write_stall_ms,
            inner: Mutex::new(StoreInner {
                faults: cfg.faults,
                write_ops: 0,
                read_ops: 0,
                stats: StoreStats::default(),
            }),
        };
        let recovery = store.recover();
        if !recovery.orphaned_tmp.is_empty() {
            eprintln!(
                "store: recovered from interrupted write(s): quarantined {} torn temp file(s)",
                recovery.orphaned_tmp.len()
            );
        }
        Ok(store)
    }

    /// Convenience: open the environment-configured store, or `None`
    /// when `NUBA_STORE_DIR` is unset or opening fails (with a
    /// warning) — the caller falls back to in-memory behaviour.
    pub fn from_env() -> Option<CheckpointStore> {
        let cfg = StoreConfig::from_env();
        cfg.dir.as_ref()?;
        match CheckpointStore::open(cfg) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("store: cannot open NUBA_STORE_DIR ({e}); falling back to memory");
                None
            }
        }
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The quarantine sidecar directory.
    pub fn quarantine_dir(&self) -> &Path {
        &self.quarantine_dir
    }

    /// Snapshot of the operation counters.
    pub fn stats(&self) -> StoreStats {
        self.inner.lock().expect("store lock poisoned").stats
    }

    /// Sweep orphaned temp files (crash mid-write) into quarantine.
    /// Idempotent; called by [`open`](CheckpointStore::open).
    pub fn recover(&self) -> RecoveryReport {
        let mut report = RecoveryReport::default();
        for path in self.list_files(TMP_EXT) {
            let name = file_name_of(&path);
            if self.quarantine_file(&path, "torn write (orphaned temp file)") {
                report.orphaned_tmp.push(name);
            }
        }
        report
    }

    /// Look up an entry and decode its payload with `decode`. Returns
    /// `None` on a miss *or* when the entry fails verification — the
    /// envelope's or `decode`'s — in which case the damaged file is
    /// quarantined first, so the caller transparently re-derives the
    /// state and the store heals.
    pub fn get<T>(
        &self,
        key: &StoreKey,
        decode: impl FnOnce(&[u8]) -> Result<T, StateError>,
    ) -> Option<T> {
        let path = self.root.join(key.file_name());
        if !path.is_file() {
            self.with_inner(|i| i.stats.misses += 1);
            return None;
        }
        let unreadable = self.with_inner(StoreInner::next_read_unreadable);
        let bytes = if unreadable {
            Err(StoreError::Io("injected unreadable entry".into()))
        } else {
            fs::read(&path).map_err(StoreError::from)
        };
        let verdict = bytes.and_then(|b| {
            verify_entry(&b, key)
                .and_then(decode)
                .map_err(StoreError::Corrupt)
        });
        match verdict {
            Ok(value) => {
                // LRU bookkeeping: a hit makes the entry young again.
                touch(&path);
                self.with_inner(|i| i.stats.hits += 1);
                Some(value)
            }
            Err(e) => {
                eprintln!("store: entry {key} failed verification ({e}); quarantining");
                self.quarantine_file(&path, &e.to_string());
                self.with_inner(|i| i.stats.misses += 1);
                None
            }
        }
    }

    /// Commit `payload` under `key`: envelope, temp-file write, atomic
    /// rename, LRU eviction. Injected faults apply here.
    ///
    /// # Errors
    /// [`StoreError::Io`] when the write fails (real or injected
    /// `ENOSPC`); the store directory is left without a (visible)
    /// partial entry unless a *torn-write fault* deliberately
    /// simulates the non-atomic failure mode.
    pub fn put(&self, key: &StoreKey, payload: &[u8]) -> Result<(), StoreError> {
        let bytes = encode_entry(key, payload);
        let fault = self.with_inner(StoreInner::next_write_fault);
        let final_path = self.root.join(key.file_name());
        match fault {
            Some(StoreFault::Enospc) => {
                self.with_inner(|i| i.stats.write_errors += 1);
                return Err(StoreError::Io(
                    "No space left on device (injected ENOSPC)".into(),
                ));
            }
            Some(StoreFault::TornWrite { keep_bytes }) => {
                // Deliberately bypass the temp-file + rename protocol:
                // this is the torn write the verification layer exists
                // to catch.
                let keep = keep_bytes.min(bytes.len().saturating_sub(1)).max(1);
                fs::write(&final_path, &bytes[..keep])?;
                self.with_inner(|i| i.stats.inserts += 1);
                return Ok(());
            }
            Some(StoreFault::BitFlip { offset }) => {
                let mut bytes = bytes;
                let at = offset % bytes.len();
                bytes[at] ^= 1;
                self.write_atomic(&final_path, &bytes)?;
                self.with_inner(|i| i.stats.inserts += 1);
                self.evict_to_cap();
                return Ok(());
            }
            Some(StoreFault::Unreadable) | None => {}
        }
        self.write_atomic(&final_path, &bytes)?;
        self.with_inner(|i| i.stats.inserts += 1);
        self.evict_to_cap();
        Ok(())
    }

    /// Verify every committed entry (envelope + full payload decode:
    /// `warm/` entries as first-touch traces, `run/` entries as
    /// checkpoints), sorted by file name. Does not modify the store.
    pub fn verify_all(&self) -> Vec<EntryVerdict> {
        let mut out: Vec<EntryVerdict> = self
            .list_files(ENTRY_EXT)
            .into_iter()
            .map(|path| {
                let bytes = fs::read(&path);
                let len = bytes.as_ref().map(|b| b.len() as u64).unwrap_or(0);
                let status = match bytes {
                    Ok(b) => decode_entry_key(&b).map_err(|e| e.to_string()),
                    Err(e) => Err(format!("unreadable: {e}")),
                };
                EntryVerdict {
                    file: file_name_of(&path),
                    bytes: len,
                    status,
                }
            })
            .collect();
        out.sort_by(|a, b| a.file.cmp(&b.file));
        out
    }

    /// Quarantine every entry that fails verification. Returns the
    /// quarantined file names.
    pub fn quarantine_corrupt(&self) -> Vec<String> {
        let mut moved = Vec::new();
        for v in self.verify_all() {
            if let Err(reason) = &v.status {
                let path = self.root.join(&v.file);
                if self.quarantine_file(&path, reason) {
                    moved.push(v.file);
                }
            }
        }
        moved
    }

    /// Garbage collection: sweep orphaned temp files and enforce the
    /// size cap. Returns `(quarantined tmp files, evicted entries)`.
    pub fn gc(&self) -> (usize, usize) {
        let tmp = self.recover().orphaned_tmp.len();
        let before = self.stats().evictions;
        self.evict_to_cap();
        let evicted = (self.stats().evictions - before) as usize;
        (tmp, evicted)
    }

    /// Number of committed entries.
    pub fn len(&self) -> usize {
        self.list_files(ENTRY_EXT).len()
    }

    /// Whether the store holds no committed entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bytes across committed entries.
    pub fn total_bytes(&self) -> u64 {
        self.list_files(ENTRY_EXT)
            .iter()
            .filter_map(|p| fs::metadata(p).ok())
            .map(|m| m.len())
            .sum()
    }

    /// Files currently in quarantine.
    pub fn quarantined_files(&self) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(&self.quarantine_dir)
            .into_iter()
            .flatten()
            .flatten()
            .filter(|e| e.path().is_file())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    fn with_inner<T>(&self, f: impl FnOnce(&mut StoreInner) -> T) -> T {
        f(&mut self.inner.lock().expect("store lock poisoned"))
    }

    fn list_files(&self, ext: &str) -> Vec<PathBuf> {
        let mut files: Vec<PathBuf> = fs::read_dir(&self.root)
            .into_iter()
            .flatten()
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.is_file() && p.extension().is_some_and(|e| e == ext))
            .collect();
        files.sort();
        files
    }

    /// Write `bytes` to a same-directory temp file, fsync, and rename
    /// into place. The optional mid-write stall gives crash tests a
    /// window to `kill -9` this process with the temp file half
    /// written — which must never corrupt the visible store.
    fn write_atomic(&self, final_path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
        let tmp_name = format!(
            ".{}.{}.{TMP_EXT}",
            file_name_of(final_path),
            std::process::id()
        );
        let tmp_path = self.root.join(tmp_name);
        let result = (|| -> Result<(), StoreError> {
            let mut f = fs::File::create(&tmp_path)?;
            if self.write_stall_ms > 0 {
                let half = bytes.len() / 2;
                f.write_all(&bytes[..half])?;
                f.sync_all()?;
                std::thread::sleep(std::time::Duration::from_millis(self.write_stall_ms));
                f.write_all(&bytes[half..])?;
            } else {
                f.write_all(bytes)?;
            }
            f.sync_all()?;
            drop(f);
            fs::rename(&tmp_path, final_path)?;
            Ok(())
        })();
        if result.is_err() {
            // Never leave a temp file behind on a failed write.
            let _ = fs::remove_file(&tmp_path);
            self.with_inner(|i| i.stats.write_errors += 1);
        }
        result
    }

    /// Move a damaged file into the quarantine sidecar (suffixing on
    /// name collisions). Returns whether the move happened.
    fn quarantine_file(&self, path: &Path, reason: &str) -> bool {
        let name = file_name_of(path);
        let mut dest = self.quarantine_dir.join(&name);
        let mut n = 0;
        while dest.exists() {
            n += 1;
            dest = self.quarantine_dir.join(format!("{name}.{n}"));
        }
        match fs::rename(path, &dest) {
            Ok(()) => {
                self.with_inner(|i| i.stats.quarantined += 1);
                let _ = fs::write(
                    dest.with_extension("reason"),
                    format!("{reason}\n").as_bytes(),
                );
                true
            }
            Err(e) => {
                eprintln!("store: cannot quarantine {name}: {e}");
                false
            }
        }
    }

    /// Evict least-recently-used entries until the total committed
    /// size fits the cap. Eviction order uses file mtimes (bumped on
    /// hit); simulation results never depend on what is evicted — a
    /// miss just re-derives the state.
    fn evict_to_cap(&self) {
        if self.max_bytes == 0 {
            return;
        }
        let mut entries: Vec<(PathBuf, u64, SystemTime)> = self
            .list_files(ENTRY_EXT)
            .into_iter()
            .filter_map(|p| {
                let m = fs::metadata(&p).ok()?;
                let mtime = m.modified().ok()?;
                Some((p, m.len(), mtime))
            })
            .collect();
        let mut total: u64 = entries.iter().map(|(_, len, _)| len).sum();
        if total <= self.max_bytes {
            return;
        }
        entries.sort_by_key(|&(_, _, mtime)| mtime);
        for (path, len, _) in entries {
            if total <= self.max_bytes {
                break;
            }
            if fs::remove_file(&path).is_ok() {
                total = total.saturating_sub(len);
                self.with_inner(|i| i.stats.evictions += 1);
            }
        }
    }
}

fn file_name_of(path: &Path) -> String {
    path.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default()
}

/// Best-effort mtime bump for LRU bookkeeping.
fn touch(path: &Path) {
    if let Ok(f) = fs::OpenOptions::new().write(true).open(path) {
        let _ = f.set_modified(SystemTime::now());
    }
}

/// A `warm/` entry's payload: the first-touch trace
/// ([`nuba_core::first_touches`]) as a length-prefixed list of
/// `(page, SM)` pairs, in replay order.
pub fn encode_trace(touches: &[(PageNum, SmId)]) -> Vec<u8> {
    let mut w = StateWriter::new();
    touches.len().put(&mut w);
    for touch in touches {
        touch.put(&mut w);
    }
    w.into_bytes()
}

/// Decode an [`encode_trace`] payload. Checks structure only (length,
/// truncation, trailing bytes); whether each SM exists is the
/// replaying machine's question.
///
/// # Errors
/// [`StateError::UnexpectedEof`] on truncation,
/// [`StateError::Corrupt`] on trailing bytes.
pub fn decode_trace(bytes: &[u8]) -> Result<Vec<(PageNum, SmId)>, StateError> {
    let mut r = StateReader::new(bytes);
    let len = usize::get(&mut r)?;
    // A touch is two u64s; a length the bytes cannot hold is truncation,
    // caught before allocating for it.
    if len > r.remaining() / 16 {
        return Err(StateError::UnexpectedEof {
            needed: len.saturating_mul(16),
            remaining: r.remaining(),
        });
    }
    let mut touches = Vec::with_capacity(len);
    for _ in 0..len {
        touches.push(<(PageNum, SmId)>::get(&mut r)?);
    }
    if !r.is_done() {
        return Err(StateError::Corrupt(
            "trailing bytes after first-touch trace",
        ));
    }
    Ok(touches)
}

/// Serialize one store entry: envelope header, key echo, payload,
/// trailing checksum over everything before it.
fn encode_entry(key: &StoreKey, payload: &[u8]) -> Vec<u8> {
    let mut w = StateWriter::new();
    w.put_u32(STORE_MAGIC);
    w.put_u32(STATE_FORMAT_VERSION);
    let tag = key.tag_str();
    w.put_u64(tag.len() as u64);
    w.put_bytes(tag.as_bytes());
    let bench = key.bench.to_string();
    w.put_u64(bench.len() as u64);
    w.put_bytes(bench.as_bytes());
    w.put_u64(key.hash);
    w.put_u64(key.depth);
    w.put_u64(payload.len() as u64);
    w.put_bytes(payload);
    let checksum = fnv1a(w.bytes());
    w.put_u64(checksum);
    w.into_bytes()
}

/// Verify an entry's envelope and return its payload, cross-checking
/// the key echo against `expect` (a renamed/misfiled entry is
/// corruption too).
fn verify_entry<'a>(bytes: &'a [u8], expect: &StoreKey) -> Result<&'a [u8], StateError> {
    let (key, payload) = decode_envelope(bytes)?;
    if key != *expect {
        return Err(StateError::Corrupt(
            "entry key echo does not match its address",
        ));
    }
    Ok(payload)
}

/// Full verification for fsck: framing, version, and the end-to-end
/// checksum, then a full decode of the payload its kind names.
fn decode_entry_key(bytes: &[u8]) -> Result<StoreKey, StoreError> {
    let (key, payload) = decode_envelope(bytes).map_err(StoreError::Corrupt)?;
    match key.kind {
        StoreKind::Warm => decode_trace(payload).map(drop),
        StoreKind::Run => Checkpoint::from_bytes(payload).map(drop),
    }
    .map_err(StoreError::Corrupt)?;
    Ok(key)
}

/// Decode the envelope, returning the key echo and the payload slice. Every exit is a typed [`StateError`].
fn decode_envelope(bytes: &[u8]) -> Result<(StoreKey, &[u8]), StateError> {
    let mut r = StateReader::new(bytes);
    if r.get_u32()? != STORE_MAGIC {
        return Err(StateError::Corrupt("not a NUBA store entry"));
    }
    let version = r.get_u32()?;
    if version != STATE_FORMAT_VERSION {
        return Err(StateError::VersionMismatch {
            found: version,
            expected: STATE_FORMAT_VERSION,
        });
    }
    // End-to-end checksum before trusting any length field.
    if bytes.len() < 16 {
        return Err(StateError::UnexpectedEof {
            needed: 16,
            remaining: bytes.len(),
        });
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let expected = u64::from_le_bytes(tail.try_into().expect("8-byte checksum tail"));
    let found = fnv1a(body);
    if expected != found {
        return Err(StateError::ChecksumMismatch { expected, found });
    }
    let mut r = StateReader::new(body);
    let _magic = r.get_u32()?;
    let _version = r.get_u32()?;
    let take_str = |r: &mut StateReader<'_>| -> Result<String, StateError> {
        let n = r.get_u64()? as usize;
        let b = r.take(n)?;
        String::from_utf8(b.to_vec()).map_err(|_| StateError::Corrupt("non-utf8 key echo"))
    };
    let tag = take_str(&mut r)?;
    let kind =
        StoreKind::from_tag(&tag).ok_or(StateError::Corrupt("unknown entry kind in key echo"))?;
    let bench_str = take_str(&mut r)?;
    let bench = BenchmarkId::from_abbr(&bench_str)
        .ok_or(StateError::Corrupt("unknown benchmark in key echo"))?;
    let hash = r.get_u64()?;
    let depth = r.get_u64()?;
    let payload_len = r.get_u64()? as usize;
    let payload = r.take(payload_len)?;
    if !r.is_done() {
        return Err(StateError::Corrupt("trailing bytes in store entry"));
    }
    Ok((
        StoreKey {
            kind,
            bench,
            hash,
            depth,
        },
        payload,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_matrix_ctx_with, Job, RunnerCtx};
    use crate::Harness;
    use nuba_types::{ArchKind, GpuConfig};
    use nuba_workloads::{ScaleProfile, Workload};

    fn tmp_store(tag: &str, cfg_tweak: impl FnOnce(StoreConfig) -> StoreConfig) -> CheckpointStore {
        let dir =
            std::env::temp_dir().join(format!("nuba_store_unit_{}_{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cfg = cfg_tweak(StoreConfig {
            dir: Some(dir),
            ..StoreConfig::default()
        });
        CheckpointStore::open(cfg).expect("store opens")
    }

    fn tiny_machine() -> (GpuConfig, Workload) {
        let cfg = GpuConfig::paper_baseline(ArchKind::Nuba)
            .with_geometry(8, 8, 4, 8)
            .with_page_fault_latency(200);
        let wl = Workload::build(BenchmarkId::Kmeans, ScaleProfile::fast(), 8, cfg.seed);
        (cfg, wl)
    }

    /// A warm key and its first-touch trace payload.
    fn tiny_trace() -> (StoreKey, Vec<u8>) {
        let (cfg, wl) = tiny_machine();
        let touches = nuba_core::first_touches(&cfg, &wl, 64);
        let key = StoreKey::warm(BenchmarkId::Kmeans, wl.state_hash(), 64);
        (key, encode_trace(&touches))
    }

    /// A run key and its checkpoint payload.
    fn tiny_checkpoint() -> (StoreKey, Vec<u8>) {
        let (cfg, wl) = tiny_machine();
        let mut gpu = nuba_core::GpuSimulator::try_new(cfg.clone(), &wl).expect("valid");
        gpu.warm(&wl, 64);
        let key = StoreKey::run(BenchmarkId::Kmeans, cfg.state_hash(), 777);
        (key, gpu.checkpoint(&wl).to_bytes())
    }

    /// `get` through the trace decoder, re-encoded for byte comparison.
    fn read(store: &CheckpointStore, key: &StoreKey) -> Option<Vec<u8>> {
        store.get(key, decode_trace).map(|t| encode_trace(&t))
    }

    #[test]
    fn roundtrip_hit_and_miss() {
        let store = tmp_store("roundtrip", |c| c);
        let (key, trace) = tiny_trace();
        assert!(read(&store, &key).is_none(), "empty store misses");
        store.put(&key, &trace).expect("put succeeds");
        assert_eq!(
            read(&store, &key).expect("hit after put"),
            trace,
            "byte-identical roundtrip"
        );
        let other = StoreKey::warm(key.bench, key.hash, key.depth + 1);
        assert!(read(&store, &other).is_none(), "depth is part of the key");
        let runk = StoreKey::run(key.bench, key.hash, key.depth);
        assert!(
            read(&store, &runk).is_none(),
            "kind namespaces never collide"
        );
        let s = store.stats();
        assert_eq!((s.hits, s.inserts), (1, 1));
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn corrupt_entries_quarantine_not_panic() {
        let store = tmp_store("corrupt", |c| c);
        let (key, trace) = tiny_trace();
        store.put(&key, &trace).expect("put succeeds");
        let path = store.root().join(key.file_name());

        // Bit flip in the middle.
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert!(
            read(&store, &key).is_none(),
            "flipped entry must not be reused"
        );
        assert!(!path.exists(), "damaged entry removed from the hot path");
        assert_eq!(store.quarantined_files().len(), 2, "entry + reason sidecar");

        // Truncation.
        store.put(&key, &trace).expect("re-put succeeds");
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
        assert!(
            read(&store, &key).is_none(),
            "torn entry must not be reused"
        );

        // Stale version (bytes 4..8 of the envelope).
        store.put(&key, &trace).expect("re-put succeeds");
        let mut bytes = fs::read(&path).unwrap();
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        assert!(
            read(&store, &key).is_none(),
            "stale version must not be reused"
        );

        // A sound envelope around a payload the caller cannot decode.
        store.put(&key, &trace[..trace.len() - 1]).expect("re-put");
        assert!(
            read(&store, &key).is_none(),
            "undecodable payload must not be reused"
        );

        assert_eq!(store.stats().quarantined, 4);
        // The store heals: a fresh put works and verifies again.
        store.put(&key, &trace).expect("put after quarantine");
        assert_eq!(read(&store, &key).expect("healed"), trace);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn injected_faults_are_survivable() {
        let plan = StoreFaultPlan::new()
            .with(0, StoreFault::TornWrite { keep_bytes: 100 })
            .with(1, StoreFault::Enospc)
            .with(2, StoreFault::BitFlip { offset: 120 })
            .with(0, StoreFault::Unreadable);
        let store = tmp_store("faults", |c| StoreConfig { faults: plan, ..c });
        let (key, trace) = tiny_trace();

        // Write op 0: torn — a visible truncated entry appears.
        store.put(&key, &trace).expect("torn write 'succeeds'");
        // Read op 0 is injected unreadable; either way it must not be
        // reused and must be quarantined.
        assert!(read(&store, &key).is_none(), "torn entry never reused");
        // Write op 1: ENOSPC — surfaces as Err, no partial entry.
        let e = store.put(&key, &trace).expect_err("injected ENOSPC");
        assert!(matches!(e, StoreError::Io(_)));
        assert!(!store.root().join(key.file_name()).exists());
        // Write op 2: bit flip — atomic but corrupt; read quarantines.
        store.put(&key, &trace).expect("flipped write succeeds");
        assert!(read(&store, &key).is_none(), "flipped entry never reused");
        // Plan exhausted: the store works normally again.
        store.put(&key, &trace).expect("clean write");
        assert_eq!(read(&store, &key).expect("clean read"), trace);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn lru_cap_evicts_oldest() {
        let (key, trace) = tiny_trace();
        let entry_len = encode_entry(&key, &trace).len() as u64;
        // Budget for two entries, not three.
        let store = tmp_store("lru", |c| StoreConfig {
            max_bytes: entry_len * 2 + entry_len / 2,
            ..c
        });
        let k1 = StoreKey::warm(key.bench, key.hash, 1);
        let k2 = StoreKey::warm(key.bench, key.hash, 2);
        let k3 = StoreKey::warm(key.bench, key.hash, 3);
        store.put(&k1, &trace).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        store.put(&k2, &trace).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        // Touch k1 so k2 becomes the LRU victim.
        assert!(read(&store, &k1).is_some());
        std::thread::sleep(std::time::Duration::from_millis(20));
        store.put(&k3, &trace).unwrap();
        assert!(store.total_bytes() <= entry_len * 2 + entry_len / 2);
        assert!(read(&store, &k2).is_none(), "LRU entry evicted");
        assert!(read(&store, &k1).is_some(), "recently-used entry kept");
        assert!(read(&store, &k3).is_some(), "new entry kept");
        assert_eq!(store.stats().evictions, 1);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn recover_quarantines_orphaned_tmp() {
        let store = tmp_store("recover", |c| c);
        let orphan = store.root().join(format!(".torn.{TMP_EXT}"));
        fs::write(&orphan, b"half a checkpoint").unwrap();
        let report = store.recover();
        assert_eq!(report.orphaned_tmp.len(), 1);
        assert!(!orphan.exists());
        assert!(
            store.quarantined_files().iter().any(|f| f.contains("torn")),
            "{:?}",
            store.quarantined_files()
        );
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn fault_plan_parses_and_rejects() {
        let plan = StoreFaultPlan::parse("torn@0:128, enospc@2,flip@1:7,unreadable@3").unwrap();
        assert_eq!(
            plan,
            StoreFaultPlan::new()
                .with(0, StoreFault::TornWrite { keep_bytes: 128 })
                .with(2, StoreFault::Enospc)
                .with(1, StoreFault::BitFlip { offset: 7 })
                .with(3, StoreFault::Unreadable)
        );
        assert!(StoreFaultPlan::parse("bogus@1").is_err());
        assert!(StoreFaultPlan::parse("torn").is_err());
        assert!(StoreFaultPlan::parse("torn@x").is_err());
        assert!(StoreFaultPlan::parse("").unwrap().is_empty());
    }

    /// fsck decodes each entry as what its kind says it holds: a trace
    /// under `warm/`, a checkpoint under `run/`.
    #[test]
    fn verify_all_reports_sorted_verdicts() {
        let store = tmp_store("verify", |c| c);
        let (wkey, trace) = tiny_trace();
        let (rkey, ckpt) = tiny_checkpoint();
        store.put(&wkey, &trace).unwrap();
        store.put(&rkey, &ckpt).unwrap();
        // A checkpoint filed as a warm trace, and a corrupted run entry.
        let misfiled = StoreKey::warm(wkey.bench, wkey.hash, wkey.depth + 1);
        store.put(&misfiled, &ckpt).unwrap();
        let flipped = StoreKey::run(rkey.bench, rkey.hash, rkey.depth + 1);
        store.put(&flipped, &ckpt).unwrap();
        let p = store.root().join(flipped.file_name());
        let mut b = fs::read(&p).unwrap();
        let mid = b.len() / 2;
        b[mid] ^= 1;
        fs::write(&p, &b).unwrap();

        let verdicts = store.verify_all();
        let ok: Vec<StoreKey> = verdicts
            .iter()
            .filter_map(|v| v.status.clone().ok())
            .collect();
        assert_eq!(
            ok,
            vec![rkey, wkey],
            "sorted by file name, run- before warm-"
        );
        assert_eq!(verdicts.len(), 4);
        let mut moved = store.quarantine_corrupt();
        moved.sort();
        let mut expect = vec![misfiled.file_name(), flipped.file_name()];
        expect.sort();
        assert_eq!(moved, expect);
        assert_eq!(store.len(), 2);
        let _ = fs::remove_dir_all(store.root());
    }

    /// A `warm/` entry with a sound envelope — checksum and key echo
    /// intact — whose trace names an SM the machine lacks or is cut
    /// short is quarantined and missed like any corrupt entry: jobs
    /// re-record the trace and report exactly what they report with no
    /// store at all.
    #[test]
    fn forged_warm_traces_quarantine_and_miss() {
        let h = Harness {
            cycles: 600,
            scale: ScaleProfile::fast(),
            seed: 7,
        };
        let cfg = GpuConfig::paper_baseline(ArchKind::Nuba);
        let jobs = [BenchmarkId::Kmeans, BenchmarkId::Sgemm]
            .map(|b| Job::new(b.to_string(), b, cfg.clone()))
            .to_vec();
        let off = run_matrix_ctx_with(&RunnerCtx::new(), &h, &jobs, 1);

        let cold = RunnerCtx::with_store(tmp_store("forged", |c| c));
        run_matrix_ctx_with(&cold, &h, &jobs, 1);
        let store = cold.store().expect("store-backed context");
        let entries = store.list_files(ENTRY_EXT);
        assert_eq!(entries.len(), 2, "one warm trace per benchmark");
        for (i, path) in entries.iter().enumerate() {
            let bytes = fs::read(path).unwrap();
            let (key, payload) = decode_envelope(&bytes).expect("cold entry verifies");
            assert_eq!(key.kind, StoreKind::Warm);
            let forged = if i == 0 {
                let mut touches = decode_trace(payload).unwrap();
                touches[0].1 = SmId(cfg.num_sms);
                encode_trace(&touches)
            } else {
                payload[..payload.len() - 5].to_vec()
            };
            fs::write(path, encode_entry(&key, &forged)).unwrap();
        }

        let root = store.root().to_path_buf();
        let hot = RunnerCtx::with_store(
            CheckpointStore::open(StoreConfig {
                dir: Some(root.clone()),
                ..StoreConfig::default()
            })
            .expect("store reopens"),
        );
        let results = run_matrix_ctx_with(&hot, &h, &jobs, 1);
        let s = hot.store().expect("store-backed context").stats();
        assert_eq!((s.hits, s.quarantined, s.inserts), (0, 2, 2));
        for (o, r) in off.iter().zip(&results) {
            assert!(!r.failed(), "`{}` quarantined: {:?}", r.label, r.error);
            assert_eq!(
                o.report, r.report,
                "`{}`: forged store vs no store",
                r.label
            );
        }
        assert!(hot.quarantined_jobs().is_empty());
        let _ = fs::remove_dir_all(root);
    }
}
