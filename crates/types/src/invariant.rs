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
//! Counting uses two relaxed atomic increments per check — cheap enough
//! for per-cycle paths — and call sites self-register into the global
//! list on first evaluation, so the registry only ever locks a mutex on
//! that first hit and when reporting.

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
    pub fn record(&'static self, ok: bool) -> bool {
        // A plain load first: once registered, the flag never changes,
        // so the hot path skips the read-modify-write entirely.
        if !self.registered.load(Ordering::Relaxed)
            && !self.registered.swap(true, Ordering::Relaxed)
        {
            registry()
                .lock()
                .expect("invariant registry poisoned")
                .push(self);
            apply_pending(self);
        }
        self.checks.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.violations.fetch_add(1, Ordering::Relaxed);
        }
        ok
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

    #[test]
    fn counts_checks_and_registers_once() {
        for i in 0..10 {
            invariant!("test_counts_checks", i < 10);
        }
        let rep = report();
        let site = rep.iter().find(|s| s.name == "test_counts_checks").unwrap();
        assert_eq!(site.checks, 10);
        assert_eq!(site.violations, 0);
        assert_eq!(
            rep.iter()
                .filter(|s| s.name == "test_counts_checks")
                .count(),
            1,
            "one site, registered once"
        );
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "invariant violated"))]
    fn violation_panics_in_debug() {
        invariant!("test_violation_panics", 1 + 1 == 3, "math broke: {}", 42);
        // Release builds fall through and count instead.
        #[cfg(not(debug_assertions))]
        {
            let rep = report();
            let site = rep
                .iter()
                .find(|s| s.name == "test_violation_panics")
                .unwrap();
            assert_eq!(site.violations, 1);
        }
    }

    #[test]
    fn conserved_quantities_compare_u64() {
        let inj: u64 = 7;
        let ej: u64 = 7;
        check_conserved!("test_conserved_ok", inj, ej);
        let rep = report();
        let site = rep.iter().find(|s| s.name == "test_conserved_ok").unwrap();
        assert_eq!((site.checks, site.violations), (1, 0));
    }

    #[test]
    fn total_violations_sums_sites() {
        // Uses its own names; other tests may run in parallel, so only
        // assert on this test's own sites via report().
        invariant!("test_total_a", true);
        assert!(report().iter().any(|s| s.name == "test_total_a"));
        let _ = total_violations(); // must not deadlock or panic
    }
}
