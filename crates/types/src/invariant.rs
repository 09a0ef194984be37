//! Named, counted simulation invariants.
//!
//! The workspace used to scatter bare `debug_assert!`s through the hot
//! paths; they vanished entirely in release builds, so a long simulation
//! could silently violate a conservation law (requests in ≠ replies
//! out, flits injected ≠ ejected) without anyone noticing. The
//! [`invariant!`](crate::invariant!) and
//! [`check_conserved!`](crate::check_conserved!) macros keep the
//! debug-build panic semantics **and** count every evaluation and
//! violation in release builds, against a named per-call-site record in
//! a global registry. The `simcheck` gate (`cargo run -p nuba-bench
//! --bin simcheck`) runs every architecture configuration and fails on
//! any nonzero violation count.
//!
//! A passing check costs a load (is the site registered?) and a plain
//! load-add-store of its tally: no locked read-modify-write. That is
//! deliberate. The first version used `fetch_add`, and on the dense
//! 64-SM machine a quarter of all host time went into it (≈1 840 locked
//! operations per simulated cycle, most from checks that re-proved a
//! configuration constant on every warp poll). So: the `checks` tally
//! is exact wherever one thread simulates — every test and gate that
//! compares it — and may undercount when matrix workers share a site;
//! `violations`, which gates read, stay a locked increment and are never
//! lost. And a property fixed when a value is *made* (a page size, a
//! topology) is checked there, once, not where the value is used: keep
//! per-event sites for per-event facts. Call sites self-register into
//! the global list on first evaluation, so the registry only locks a
//! mutex on that first hit and when reporting.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// One invariant call site (`static`, created by the macros).
#[derive(Debug)]
pub struct Site {
    /// Invariant name, e.g. `"slice_replica_fill_flagged"`.
    pub name: &'static str,
    /// Source file of the call site.
    pub file: &'static str,
    /// Source line of the call site.
    pub line: u32,
    /// Times the condition was evaluated.
    pub checks: AtomicU64,
    /// Times the condition was false.
    pub violations: AtomicU64,
    registered: AtomicBool,
}

impl Site {
    /// A fresh, unregistered site record (used by the macros; public so
    /// their expansion can name it from other crates).
    #[must_use]
    pub const fn new(name: &'static str, file: &'static str, line: u32) -> Site {
        Site {
            name,
            file,
            line,
            checks: AtomicU64::new(0),
            violations: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// Record one evaluation of the invariant; returns `ok` so the
    /// macros can chain onto the panic path. Registers the site into
    /// the global registry on first use.
    #[inline]
    pub fn record(&'static self, ok: bool) -> bool {
        if !self.registered.load(Ordering::Relaxed) {
            self.register();
        }
        // Not a `fetch_add`: see the module docs for what that cost.
        let n = self.checks.load(Ordering::Relaxed);
        self.checks.store(n.wrapping_add(1), Ordering::Relaxed);
        if !ok {
            self.violations.fetch_add(1, Ordering::Relaxed);
        }
        ok
    }

    /// First evaluation: list the site and pick up any parked seed. The
    /// swap elects one registrant when threads race here.
    #[cold]
    fn register(&'static self) {
        if !self.registered.swap(true, Ordering::Relaxed) {
            registry()
                .lock()
                .expect("invariant registry poisoned")
                .push(self);
            apply_pending(self);
        }
    }
}

fn registry() -> &'static Mutex<Vec<&'static Site>> {
    static REGISTRY: Mutex<Vec<&'static Site>> = Mutex::new(Vec::new());
    &REGISTRY
}

/// A snapshot of one site's counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteReport {
    /// Invariant name.
    pub name: &'static str,
    /// Source location (`file:line`).
    pub file: &'static str,
    /// Source line.
    pub line: u32,
    /// Evaluations so far.
    pub checks: u64,
    /// Violations so far.
    pub violations: u64,
}

/// Snapshot every registered invariant site, sorted by name then
/// location. Sites are only listed once their code path has executed at
/// least one check.
pub fn report() -> Vec<SiteReport> {
    let mut out: Vec<SiteReport> = registry()
        .lock()
        .expect("invariant registry poisoned")
        .iter()
        .map(|s| SiteReport {
            name: s.name,
            file: s.file,
            line: s.line,
            checks: s.checks.load(Ordering::Relaxed),
            violations: s.violations.load(Ordering::Relaxed),
        })
        .collect();
    out.sort_by(|a, b| (a.name, a.file, a.line).cmp(&(b.name, b.file, b.line)));
    out
}

/// Total violations across every registered site.
pub fn total_violations() -> u64 {
    registry()
        .lock()
        .expect("invariant registry poisoned")
        .iter()
        .map(|s| s.violations.load(Ordering::Relaxed))
        .sum()
}

/// Reset all counters (sites stay registered). Intended for gates that
/// run several configurations in one process and attribute violations
/// per configuration.
pub fn reset() {
    for s in registry()
        .lock()
        .expect("invariant registry poisoned")
        .iter()
    {
        s.checks.store(0, Ordering::Relaxed);
        s.violations.store(0, Ordering::Relaxed);
    }
    pending().lock().expect("pending seeds poisoned").clear();
}

/// A counter seed captured in a checkpoint, keyed by site identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteSeed {
    /// Invariant name.
    pub name: String,
    /// Source file of the call site when the snapshot was taken.
    pub file: String,
    /// Source line of the call site.
    pub line: u32,
    /// Evaluations at snapshot time.
    pub checks: u64,
    /// Violations at snapshot time.
    pub violations: u64,
}

fn pending() -> &'static Mutex<Vec<SiteSeed>> {
    static PENDING: Mutex<Vec<SiteSeed>> = Mutex::new(Vec::new());
    &PENDING
}

/// Reset the registry and seed it with counters captured by a previous
/// [`report`] (e.g. from a simulation checkpoint), so that a restored
/// run's final snapshot matches the uninterrupted run's byte for byte.
///
/// Seeds whose call sites have not yet executed in this process are
/// parked and applied when the site self-registers on its first check.
/// Like [`reset`], this is for single-simulation contexts (gates,
/// tests, resumed standalone runs) — concurrent matrix jobs share the
/// process-global registry and must not call it.
pub fn restore_counts(seeds: &[SiteSeed]) {
    reset();
    let reg = registry().lock().expect("invariant registry poisoned");
    let mut parked = pending().lock().expect("pending seeds poisoned");
    for seed in seeds {
        let site = reg
            .iter()
            .find(|s| s.name == seed.name && s.file == seed.file && s.line == seed.line);
        match site {
            Some(s) => {
                s.checks.store(seed.checks, Ordering::Relaxed);
                s.violations.store(seed.violations, Ordering::Relaxed);
            }
            None => parked.push(seed.clone()),
        }
    }
}

fn apply_pending(site: &'static Site) {
    let mut parked = pending().lock().expect("pending seeds poisoned");
    if let Some(i) = parked
        .iter()
        .position(|p| p.name == site.name && p.file == site.file && p.line == site.line)
    {
        let p = parked.swap_remove(i);
        site.checks.store(p.checks, Ordering::Relaxed);
        site.violations.store(p.violations, Ordering::Relaxed);
    }
}

/// Check a named simulation invariant.
///
/// `invariant!("name", cond)` and `invariant!("name", cond, "context
/// {x}", ...)` evaluate `cond` in **all** build profiles, count the
/// evaluation (and any violation) against a per-call-site registry
/// entry, and panic in debug builds exactly like `debug_assert!` did.
/// Release builds keep simulating and let the `simcheck` gate fail on
/// the counts.
#[macro_export]
macro_rules! invariant {
    ($name:literal, $cond:expr) => {{
        static SITE: $crate::invariant::Site =
            $crate::invariant::Site::new($name, file!(), line!());
        if !SITE.record($cond) {
            #[cfg(debug_assertions)]
            panic!(
                concat!("invariant violated: ", $name, " at {}:{}"),
                SITE.file, SITE.line
            );
        }
    }};
    ($name:literal, $cond:expr, $($ctx:tt)+) => {{
        static SITE: $crate::invariant::Site =
            $crate::invariant::Site::new($name, file!(), line!());
        if !SITE.record($cond) {
            #[cfg(debug_assertions)]
            panic!(
                concat!("invariant violated: ", $name, " at {}:{}: {}"),
                SITE.file,
                SITE.line,
                format_args!($($ctx)+)
            );
        }
    }};
}

/// Check a named conservation law: two `u64` quantities that must be
/// equal (e.g. requests in vs replies out, flits injected vs ejected).
/// Counts like [`invariant!`](crate::invariant!) and panics with both
/// values in debug builds.
#[macro_export]
macro_rules! check_conserved {
    ($name:literal, $lhs:expr, $rhs:expr) => {{
        let (lhs, rhs): (u64, u64) = ($lhs, $rhs);
        $crate::invariant!(
            $name,
            lhs == rhs,
            "{} != {} (conserved quantity leaked)",
            lhs,
            rhs
        );
    }};
}

impl crate::state::StateValue for SiteSeed {
    fn put(&self, w: &mut crate::state::StateWriter) {
        self.name.put(w);
        self.file.put(w);
        (self.line as u64).put(w);
        self.checks.put(w);
        self.violations.put(w);
    }

    fn get(r: &mut crate::state::StateReader<'_>) -> Result<Self, crate::state::StateError> {
        let name = String::get(r)?;
        let file = String::get(r)?;
        let line = u64::get(r)?;
        let line = u32::try_from(line)
            .map_err(|_| crate::state::StateError::Corrupt("invariant site line overflow"))?;
        Ok(SiteSeed {
            name,
            file,
            line,
            checks: u64::get(r)?,
            violations: u64::get(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Barrier, MutexGuard};

    /// The registry is process-global and `reset`/`restore_counts` touch
    /// every site, so tests that read counts take turns.
    fn serial() -> MutexGuard<'static, ()> {
        static SERIAL: Mutex<()> = Mutex::new(());
        // A `should_panic` test poisons the lock; the `()` inside cannot
        // be left inconsistent.
        SERIAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn site(name: &str) -> SiteReport {
        report()
            .into_iter()
            .find(|s| s.name == name)
            .expect("site registered")
    }

    #[test]
    fn tally_is_exact_on_one_thread_and_registers_once() {
        let _turn = serial();
        for i in 0..10_000 {
            invariant!("test_counts_checks", i < 10_000);
        }
        assert_eq!(site("test_counts_checks").checks, 10_000);
        assert_eq!(site("test_counts_checks").violations, 0);
        assert_eq!(
            report()
                .iter()
                .filter(|s| s.name == "test_counts_checks")
                .count(),
            1,
            "one site, registered once"
        );
    }

    /// Violations are what gates read: two threads failing the same
    /// site at once (the barrier puts them there together) lose none,
    /// even though the passing tally may.
    #[test]
    fn concurrent_violations_are_all_counted() {
        const PER_THREAD: u64 = 50_000;
        static SITE: Site = Site::new("test_concurrent_violations", file!(), line!());
        let _turn = serial();
        let start = Barrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    start.wait();
                    for i in 0..2 * PER_THREAD {
                        // `record`, not `invariant!`: the macro panics
                        // on a violation in debug builds.
                        SITE.record(i % 2 == 0);
                    }
                });
            }
        });
        let seen = site("test_concurrent_violations");
        assert_eq!(seen.violations, 2 * PER_THREAD);
        assert!(seen.checks <= 4 * PER_THREAD);
        assert!(total_violations() >= 2 * PER_THREAD);
    }

    /// A checkpoint's seeds land on sites that already ran and are
    /// parked for ones that have not, so the resumed tally continues
    /// where the snapshot stopped.
    #[test]
    fn restore_counts_round_trips_through_report() {
        static EARLY: Site = Site::new("test_restore_early", file!(), 1);
        static LATE: Site = Site::new("test_restore_late", file!(), 2);
        let seed = |site: &Site, checks| SiteSeed {
            name: site.name.to_string(),
            file: site.file.to_string(),
            line: site.line,
            checks,
            violations: 0,
        };
        let _turn = serial();
        EARLY.record(true);
        restore_counts(&[seed(&EARLY, 41), seed(&LATE, 7)]);
        assert_eq!(site("test_restore_early").checks, 41);
        EARLY.record(true);
        assert_eq!(site("test_restore_early").checks, 42);
        // First evaluation after the restore: the parked seed applies,
        // then this check counts on top of it.
        LATE.record(true);
        assert_eq!(site("test_restore_late").checks, 8);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "invariant violated"))]
    fn violation_panics_in_debug() {
        let _turn = serial();
        invariant!("test_violation_panics", 1 + 1 == 3, "math broke: {}", 42);
        // Release builds fall through and count instead.
        #[cfg(not(debug_assertions))]
        {
            assert_eq!(site("test_violation_panics").violations, 1);
        }
    }

    #[test]
    fn conserved_quantities_compare_u64() {
        let _turn = serial();
        let inj: u64 = 7;
        let ej: u64 = 7;
        for _ in 0..3 {
            check_conserved!("test_conserved_ok", inj, ej);
        }
        let seen = site("test_conserved_ok");
        assert_eq!((seen.checks, seen.violations), (3, 0));
    }
}
