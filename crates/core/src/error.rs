//! Simulation error taxonomy: configuration rejection and the
//! forward-progress watchdog's deadlock report.
//!
//! The simulator distinguishes two failure classes. *Invalid
//! configurations* are rejected up front by
//! [`GpuConfig::validate`](nuba_types::GpuConfig::validate) before any
//! component is built. *No forward progress* is detected at runtime by
//! the watchdog inside [`GpuSimulator::run`](crate::GpuSimulator::run):
//! if no memory request retires for a configured number of consecutive
//! cycles while work is still outstanding, the run aborts with a
//! [`DeadlockReport`] snapshotting where every in-flight request is
//! stuck. Everything else — workload/config mismatches, internal
//! invariant violations — stays a panic, because it indicates a bug in
//! the simulator rather than a property of the simulated machine.

use core::fmt;

use nuba_types::state::StateError;
use nuba_types::ConfigError;

use crate::telemetry::TelemetryWindow;

/// Why a simulation run could not complete.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The watchdog saw no request retire for its whole cycle budget
    /// while requests (or page-table walks) were still outstanding.
    NoForwardProgress(Box<DeadlockReport>),
    /// The configuration failed [`nuba_types::GpuConfig::validate`].
    InvalidConfig(ConfigError),
    /// A checkpoint could not be decoded or did not match the
    /// simulator it was being restored into.
    Checkpoint(StateError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NoForwardProgress(r) => write!(f, "no forward progress: {r}"),
            SimError::InvalidConfig(e) => write!(f, "{e}"),
            SimError::Checkpoint(e) => write!(f, "checkpoint rejected: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> SimError {
        SimError::InvalidConfig(e)
    }
}

impl From<StateError> for SimError {
    fn from(e: StateError) -> SimError {
        SimError::Checkpoint(e)
    }
}

/// Snapshot of where the memory system was stuck when the watchdog
/// fired, built from the simulator's conservation counters and queue
/// occupancies. All counts are taken at the firing cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlockReport {
    /// Cycle at which the watchdog fired.
    pub cycle: u64,
    /// The budget that elapsed without a retire.
    pub budget: u64,
    /// Requests issued by SMs since the start of the run.
    pub issued: u64,
    /// Replies delivered back to SMs.
    pub replied: u64,
    /// Requests issued but not yet replied (stuck somewhere below).
    pub outstanding: u64,
    /// Page-table walks / translations still in flight in the MMU.
    pub translations_outstanding: u64,
    /// Work items queued across all LLC slices (queues, pipes, MSHRs).
    pub slice_pending: u64,
    /// Requests resident in LLC MSHR files (subset of `slice_pending`).
    pub mshr_residents: u64,
    /// Requests queued or in flight in the memory controllers.
    pub mc_pending: u64,
    /// Packets in flight in the request crossbar.
    pub noc_req_in_flight: u64,
    /// Packets in flight in the reply crossbar.
    pub noc_reply_in_flight: u64,
    /// Items queued on NUBA local links (both directions).
    pub local_link_pending: u64,
    /// Free-form occupancy line (`GpuSimulator::debug_state`) for the
    /// counters not individually broken out above.
    pub detail: String,
    /// Flight recorder: the last `ring_windows` telemetry windows
    /// leading up to the fire, oldest first. Empty when windowed
    /// telemetry is disabled; bounded by the ring capacity regardless
    /// of run length (`TelemetryWindow` is all-integral, preserving
    /// this report's `Eq`).
    pub windows: Vec<TelemetryWindow>,
}

impl fmt::Display for DeadlockReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "no retire for {} cycles at cycle {} \
             (issued={} replied={} outstanding={} walks={} \
             slice_pending={} mshr_residents={} mc_pending={} \
             noc_inflight={}/{} local_pending={} flight_windows={}; {})",
            self.budget,
            self.cycle,
            self.issued,
            self.replied,
            self.outstanding,
            self.translations_outstanding,
            self.slice_pending,
            self.mshr_residents,
            self.mc_pending,
            self.noc_req_in_flight,
            self.noc_reply_in_flight,
            self.local_link_pending,
            self.windows.len(),
            self.detail,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::WindowCounter;

    fn report() -> DeadlockReport {
        DeadlockReport {
            cycle: 30_000,
            budget: 20_000,
            issued: 100,
            replied: 90,
            outstanding: 10,
            translations_outstanding: 0,
            slice_pending: 4,
            mshr_residents: 3,
            mc_pending: 2,
            noc_req_in_flight: 1,
            noc_reply_in_flight: 0,
            local_link_pending: 6,
            detail: "outstanding=10".to_string(),
            windows: vec![{
                let mut w = TelemetryWindow {
                    start_cycle: 29_000,
                    end_cycle: 29_500,
                    ..TelemetryWindow::default()
                };
                w[WindowCounter::StallDownstream] = 7;
                w
            }],
        }
    }

    #[test]
    fn display_carries_the_key_counters() {
        let e = SimError::NoForwardProgress(Box::new(report()));
        let s = e.to_string();
        assert!(s.contains("no forward progress"));
        assert!(s.contains("no retire for 20000 cycles"));
        assert!(s.contains("outstanding=10"));
        assert!(s.contains("mshr_residents=3"));
        assert!(s.contains("flight_windows=1"));
    }

    #[test]
    fn config_errors_convert() {
        let e: SimError = nuba_types::ConfigError("bad".into()).into();
        assert!(e.to_string().contains("invalid gpu configuration: bad"));
    }
}
