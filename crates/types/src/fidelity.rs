//! The fidelity ladder: how much cycle-level detail a run spends.
//!
//! The harness executes every job at one of two rungs:
//!
//! - [`Fidelity::Analytical`] — tier 0: no simulation at all; the
//!   analytical screen (MDR bandwidth equations plus a roofline bound)
//!   predicts the bottleneck and an IPC band, an [`ErrorBound`].
//! - [`Fidelity::Full`] — tier 2: full cycle-accurate simulation,
//!   byte-identical to a run without the ladder.
//!
//! (The numbering keeps a gap: tier 1 was a sampled rung, removed once
//! measured — DESIGN.md §17.)
//!
//! `Fidelity` deliberately lives *outside* [`GpuConfig`](crate::GpuConfig):
//! it describes how a run is executed, not what machine is simulated, so
//! it must never perturb `state_hash` or the checkpoint format.

use std::fmt;
use std::str::FromStr;

/// Execution fidelity for one simulation job. See the module docs for
/// the ladder contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Fidelity {
    /// Tier 0: analytical screen only, no cycle-level simulation.
    Analytical,
    /// Tier 2: full cycle-accurate simulation (the default).
    #[default]
    Full,
}

impl Fidelity {
    /// Whether this fidelity runs the cycle-level simulator at all.
    #[must_use]
    pub fn simulates(self) -> bool {
        !matches!(self, Fidelity::Analytical)
    }
}

impl fmt::Display for Fidelity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Fidelity::Analytical => write!(f, "analytical"),
            Fidelity::Full => write!(f, "full"),
        }
    }
}

/// Error parsing a [`Fidelity`] from a string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFidelityError(String);

impl fmt::Display for ParseFidelityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid fidelity {:?} (expected analytical | full)",
            self.0
        )
    }
}

impl std::error::Error for ParseFidelityError {}

impl FromStr for Fidelity {
    type Err = ParseFidelityError;

    /// Parses `analytical` or `full`.
    fn from_str(s: &str) -> Result<Fidelity, ParseFidelityError> {
        match s.trim() {
            "analytical" => Ok(Fidelity::Analytical),
            "full" => Ok(Fidelity::Full),
            _ => Err(ParseFidelityError(s.to_string())),
        }
    }
}

/// A symmetric interval around a predicted statistic.
///
/// The tier-0 screen attaches one to its roofline IPC; `fig_fidelity`
/// scores whether the tier-2 truth falls inside `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ErrorBound {
    /// Point estimate (the midpoint).
    pub mean: f64,
    /// Half-width of the interval (always non-negative).
    pub half_width: f64,
}

impl ErrorBound {
    /// A bound centred on `mean` with the given `half_width`.
    #[must_use]
    pub fn new(mean: f64, half_width: f64) -> ErrorBound {
        ErrorBound {
            mean,
            half_width: half_width.abs(),
        }
    }

    /// Lower edge of the interval.
    #[must_use]
    pub fn lo(&self) -> f64 {
        self.mean - self.half_width
    }

    /// Upper edge of the interval.
    #[must_use]
    pub fn hi(&self) -> f64 {
        self.mean + self.half_width
    }

    /// Whether `value` falls inside the interval.
    #[must_use]
    pub fn contains(&self, value: f64) -> bool {
        value >= self.lo() && value <= self.hi()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_spelling() {
        assert_eq!("analytical".parse(), Ok(Fidelity::Analytical));
        assert_eq!("full".parse(), Ok(Fidelity::Full));
        for gone in [
            "auto",
            "sampled",
            "sampled:16x512",
            "sampled:x",
            "0",
            "1",
            "2",
        ] {
            assert!(gone.parse::<Fidelity>().is_err(), "{gone}");
        }
    }

    #[test]
    fn display_round_trips() {
        for f in [Fidelity::Analytical, Fidelity::Full] {
            assert_eq!(f.to_string().parse::<Fidelity>(), Ok(f));
        }
    }

    #[test]
    fn only_full_simulates() {
        assert!(!Fidelity::Analytical.simulates());
        assert!(Fidelity::Full.simulates());
    }

    #[test]
    fn bound_arithmetic() {
        let b = ErrorBound::new(2.0, 0.5);
        assert!(b.contains(1.5) && b.contains(2.5));
        assert!(!b.contains(1.4999) && !b.contains(2.5001));
        assert_eq!(ErrorBound::new(1.0, -0.5).half_width, 0.5);
    }
}
