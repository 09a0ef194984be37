//! The warm-trace cache: the runner's first-touch traces, persisted
//! under `NUBA_STORE_DIR` so a later process warms every job by
//! replaying a trace instead of recording it (DESIGN.md §15).
//!
//! Each entry is one file named after its [`StoreKey`], holding a magic
//! number, the state format version, the file name echoed, the trace,
//! and a trailing [`fnv1a`] checksum over everything before it. Writes
//! go to a same-directory temp file that is then renamed into place, so
//! a reader sees a whole entry or none. There is no `fsync`: a file torn
//! by a crash fails its checksum on the next read, and a temp file a
//! killed writer left behind is removed by the next [`TraceStore::open`].
//!
//! A bad entry is a miss: [`TraceStore::get`] returns `None` for a
//! missing file, a bad checksum, a foreign key echo, an undecodable
//! trace, or an SM the machine lacks, and the caller's next
//! [`put`](TraceStore::put) overwrites it. Nothing here panics.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::{fs, io};

use nuba_types::addr::PageNum;
use nuba_types::state::{fnv1a, StateReader, StateValue, StateWriter, STATE_FORMAT_VERSION};
use nuba_types::SmId;
use nuba_workloads::BenchmarkId;

use crate::HarnessOptions;

/// Magic number prefixing every entry (`"NUTR"`).
const MAGIC: u32 = 0x4E55_5452;

/// Address of one workload's first-touch trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StoreKey {
    /// The benchmark the trace was recorded on.
    pub bench: BenchmarkId,
    /// Hash of the workload and the machine shape the trace reads; no
    /// architecture or policy knob enters it.
    pub hash: u64,
    /// Warm depth in accesses per warp.
    pub depth: u64,
}

impl StoreKey {
    /// The entry's file name, `<bench>-<hash>-<depth>.trace`, with the
    /// benchmark abbreviation sanitized to `[A-Za-z0-9_]`.
    pub fn file_name(&self) -> String {
        let bench = self
            .bench
            .to_string()
            .replace(|c: char| !c.is_ascii_alphanumeric(), "_");
        format!("{bench}-{:016x}-{}.trace", self.hash, self.depth)
    }
}

/// A directory of first-touch traces, one file per [`StoreKey`]. All
/// methods take `&self`, so one store backs a parallel matrix, and any
/// number of stores may share a directory.
pub struct TraceStore {
    root: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl TraceStore {
    /// Open `dir`, creating it if needed, and remove temp files a killed
    /// writer left (a live writer's rename then fails, and it warns).
    ///
    /// # Errors
    /// The I/O error if the directory cannot be created or listed.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<TraceStore> {
        let root = dir.into();
        fs::create_dir_all(&root)?;
        for path in fs::read_dir(&root)?.flatten().map(|e| e.path()) {
            if path.extension().is_some_and(|x| x == "tmp") {
                let _ = fs::remove_file(path);
            }
        }
        Ok(TraceStore {
            root,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        })
    }

    /// The store at `NUBA_STORE_DIR`, or `None` when it is unset or
    /// cannot be created (with a warning): the runner then keeps its
    /// traces in memory only, with the same results.
    pub fn from_env() -> Option<TraceStore> {
        let dir = HarnessOptions::get().store_dir.as_ref()?;
        TraceStore::open(dir)
            .inspect_err(|e| {
                eprintln!("store: cannot open NUBA_STORE_DIR ({e}); traces stay in memory")
            })
            .ok()
    }

    /// The store's directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Reads that returned a trace.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Reads that found no entry or a bad one.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// The trace under `key` if its entry verifies and every SM it names
    /// is below `num_sms`; `None` otherwise.
    pub fn get(&self, key: &StoreKey, num_sms: usize) -> Option<Vec<(PageNum, SmId)>> {
        let touches = fs::read(self.root.join(key.file_name()))
            .ok()
            .and_then(|bytes| read_entry(&bytes, key))
            .filter(|touches| touches.iter().all(|&(_, sm)| sm.0 < num_sms));
        [&self.misses, &self.hits][usize::from(touches.is_some())].fetch_add(1, Ordering::Relaxed);
        touches
    }

    /// Write `touches` under `key`, replacing any entry there.
    ///
    /// # Errors
    /// The I/O error of the write or the rename; no temp file is left.
    pub fn put(&self, key: &StoreKey, touches: &[(PageNum, SmId)]) -> io::Result<()> {
        // Unique within the process, so two writers of one key never
        // share a temp file.
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let (name, seq) = (key.file_name(), SEQ.fetch_add(1, Ordering::Relaxed));
        let tmp = self
            .root
            .join(format!(".{name}.{}-{seq}.tmp", std::process::id()));
        let written = fs::write(&tmp, encode_entry(key, touches))
            .and_then(|()| fs::rename(&tmp, self.root.join(name)));
        if written.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        written
    }
}

/// One entry: magic, version, key echo, trace, checksum of all that.
fn encode_entry(key: &StoreKey, touches: &[(PageNum, SmId)]) -> Vec<u8> {
    let mut w = StateWriter::new();
    w.put_u32(MAGIC);
    w.put_u32(STATE_FORMAT_VERSION);
    let echo = key.file_name();
    w.put_u64(echo.len() as u64);
    w.put_bytes(echo.as_bytes());
    touches.len().put(&mut w);
    for touch in touches {
        touch.put(&mut w);
    }
    let checksum = fnv1a(w.bytes());
    w.put_u64(checksum);
    w.into_bytes()
}

/// The trace in `bytes` if the checksum, header and key echo all match
/// `key` and the trace decodes to the last byte.
fn read_entry(bytes: &[u8], key: &StoreKey) -> Option<Vec<(PageNum, SmId)>> {
    let (body, tail) = bytes.split_at(bytes.len().checked_sub(8)?);
    if fnv1a(body).to_le_bytes() != tail {
        return None;
    }
    let mut r = StateReader::new(body);
    if r.get_u32().ok()? != MAGIC || r.get_u32().ok()? != STATE_FORMAT_VERSION {
        return None;
    }
    let echo_len = usize::try_from(r.get_u64().ok()?).ok()?;
    if r.take(echo_len).ok()? != key.file_name().as_bytes() {
        return None;
    }
    let len = usize::get(&mut r).ok()?;
    // A touch is two u64s: the rest must hold exactly `len` of them.
    if len.checked_mul(16) != Some(r.remaining()) {
        return None;
    }
    (0..len)
        .map(|_| <(PageNum, SmId)>::get(&mut r).ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: StoreKey = StoreKey {
        bench: BenchmarkId::Kmeans,
        hash: 0xfeed,
        depth: 64,
    };

    fn tmp_store(tag: &str) -> TraceStore {
        let dir =
            std::env::temp_dir().join(format!("nuba_store_unit_{}_{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        TraceStore::open(dir).expect("store opens")
    }

    fn trace() -> Vec<(PageNum, SmId)> {
        (0..40)
            .map(|i| (PageNum(i * 3), SmId(i as usize % 8)))
            .collect()
    }

    /// A missing or damaged entry misses, and the next `put` heals it; `short`
    /// and `long` pass the checksum but hold a touch too few, or a byte more.
    #[test]
    fn damaged_entries_miss_and_heal() {
        let store = tmp_store("damaged");
        assert_eq!(store.get(&KEY, 8), None, "empty store misses");
        let entry = encode_entry(&KEY, &trace());
        let mut flipped = entry.clone();
        flipped[entry.len() / 2] ^= 0x40;
        let misfiled = encode_entry(&StoreKey { depth: 65, ..KEY }, &trace());
        let body = &entry[..entry.len() - 8];
        let reseal = |body: &[u8]| [body, &fnv1a(body).to_le_bytes()].concat();
        let short = reseal(&body[..body.len() - 16]);
        let long = reseal(&[body, &[0]].concat());
        let cut = entry[..entry.len() / 3].to_vec();
        for bytes in [flipped, cut, misfiled, short, long] {
            fs::write(store.root().join(KEY.file_name()), bytes).unwrap();
            assert_eq!(store.get(&KEY, 8), None);
            store.put(&KEY, &trace()).expect("put overwrites");
            assert_eq!(store.get(&KEY, 8), Some(trace()), "healed");
        }
        assert_eq!((store.hits(), store.misses()), (5, 6));
        let stray = store.root().join(".orphan.tmp");
        fs::write(&stray, b"torn").unwrap();
        TraceStore::open(store.root()).unwrap();
        assert!(!stray.exists(), "open removes a killed writer's temp file");
        let _ = fs::remove_dir_all(store.root());
    }

    /// A checksum-valid trace naming an SM the machine lacks misses there;
    /// `warm_reuse.rs` shows jobs then report what they report storeless.
    #[test]
    fn forged_warm_traces_miss() {
        let store = tmp_store("forged");
        store.put(&KEY, &trace()).unwrap();
        assert_eq!(store.get(&KEY, 7), None, "trace names SM 7");
        assert_eq!(store.get(&KEY, 8), Some(trace()));
        let _ = fs::remove_dir_all(store.root());
    }
}
