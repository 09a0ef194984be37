//! `nuba-fsck`: scan, verify, and garbage-collect a persistent
//! checkpoint store (see `nuba_bench::store`).
//!
//! ```text
//! nuba_fsck --store /var/tmp/nuba-store            # listing + summary
//! nuba_fsck --store /var/tmp/nuba-store --verify   # exit 1 on corruption
//! nuba_fsck --store /var/tmp/nuba-store --gc --max-bytes 104857600
//! ```

use std::path::PathBuf;

use nuba_bench::store::{CheckpointStore, StoreConfig};

const HELP: &str = "\
nuba-fsck — scan, verify, and GC a persistent checkpoint store

USAGE:
    nuba_fsck [OPTIONS]

OPTIONS:
    --store <DIR>       store root (default: $NUBA_STORE_DIR)
    --verify            fully decode every entry (warm/ as first-touch traces,
                        run/ as checkpoints); exit 1 if any fails
    --quarantine        move entries that fail verification to quarantine/
    --gc                sweep orphaned temp files and enforce the size cap
    --max-bytes <N>     size cap for --gc (default: $NUBA_STORE_MAX_BYTES)
    --purge-quarantine  delete everything in quarantine/
    -h, --help          this text

With no action flags, prints the entry listing and a summary.
Opening the store always runs crash recovery (orphaned temp files from
an interrupted writer are quarantined before anything is read).
";

struct Args {
    store: Option<String>,
    verify: bool,
    quarantine: bool,
    gc: bool,
    max_bytes: Option<u64>,
    purge_quarantine: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        store: None,
        verify: false,
        quarantine: false,
        gc: false,
        max_bytes: None,
        purge_quarantine: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("missing value after {}", argv[*i - 1]))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "-h" | "--help" => {
                print!("{HELP}");
                std::process::exit(0);
            }
            "--store" => a.store = Some(value(&mut i)?),
            "--verify" => a.verify = true,
            "--quarantine" => a.quarantine = true,
            "--gc" => a.gc = true,
            "--max-bytes" => {
                a.max_bytes = Some(
                    value(&mut i)?
                        .parse()
                        .map_err(|e| format!("max-bytes: {e}"))?,
                )
            }
            "--purge-quarantine" => a.purge_quarantine = true,
            other => return Err(format!("unknown option `{other}` (try --help)")),
        }
        i += 1;
    }
    Ok(a)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{HELP}");
            std::process::exit(2);
        }
    };
    let env_cfg = StoreConfig::from_env();
    let dir = args
        .store
        .clone()
        .map(PathBuf::from)
        .or(env_cfg.dir)
        .unwrap_or_else(|| {
            eprintln!("error: no store: pass --store <DIR> or set NUBA_STORE_DIR\n\n{HELP}");
            std::process::exit(2);
        });
    let cfg = StoreConfig {
        dir: Some(dir),
        max_bytes: args.max_bytes.unwrap_or(env_cfg.max_bytes),
        // fsck never injects faults, whatever the environment says.
        ..StoreConfig::default()
    };
    let store = match CheckpointStore::open(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot open store: {e}");
            std::process::exit(2);
        }
    };

    println!("store: {}", store.root().display());
    let verdicts = store.verify_all();
    let mut bad = 0usize;
    for v in &verdicts {
        match &v.status {
            Ok(key) => println!("  OK      {:<56} {:>10} B  {key}", v.file, v.bytes),
            Err(reason) => {
                bad += 1;
                println!("  CORRUPT {:<56} {:>10} B  {reason}", v.file, v.bytes);
            }
        }
    }
    println!(
        "summary: {} entr{} ({} B), {} corrupt, {} quarantined file(s)",
        verdicts.len(),
        if verdicts.len() == 1 { "y" } else { "ies" },
        store.total_bytes(),
        bad,
        store.quarantined_files().len()
    );

    if args.quarantine && bad > 0 {
        let moved = store.quarantine_corrupt();
        println!(
            "quarantined {} corrupt entr{}",
            moved.len(),
            if moved.len() == 1 { "y" } else { "ies" }
        );
        for f in &moved {
            println!("  -> quarantine/{f}");
        }
    }
    if args.gc {
        let (tmp, evicted) = store.gc();
        println!("gc: {tmp} orphaned temp file(s) quarantined, {evicted} entr(ies) evicted");
    }
    if args.purge_quarantine {
        let files = store.quarantined_files();
        for f in &files {
            let _ = std::fs::remove_file(store.quarantine_dir().join(f));
        }
        println!("purged {} quarantined file(s)", files.len());
    }

    if args.verify && bad > 0 {
        eprintln!("nuba_fsck: verification FAILED ({bad} corrupt entries)");
        std::process::exit(1);
    }
}
