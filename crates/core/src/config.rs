//! Profiler configuration.

use crate::firsttouch::FirstTouchGranularity;
use numa_sampling::MechanismConfig;

/// Environment variable overriding the address-centric bin count, as the
/// paper's tool allows ("one can change this number via an environment
/// variable", §5.2).
pub const BINS_ENV_VAR: &str = "HPCTOOLKIT_NUMA_BINS";

/// Configuration of the online profiler.
#[derive(Clone, Debug)]
pub struct ProfilerConfig {
    /// Which sampling mechanism to drive, with its period/overhead model.
    pub mechanism: MechanismConfig,
    /// Address-centric bins per large variable (§5.2 default: five).
    pub bins: u16,
    /// A variable is "large" (and binned) if it spans more than this many
    /// pages (§5.2 default: five).
    pub bin_threshold_pages: u64,
    /// Unprotect granularity on a first-touch fault.
    pub first_touch_granularity: FirstTouchGranularity,
    /// Monitor static variables (data-centric attribution reads them from
    /// the symbol table; first-touch protection for them is the paper's
    /// future work #5, implemented here).
    pub monitor_static: bool,
    /// Monitor stack variables (the paper's future work #1, implemented
    /// here; the paper's case studies converted `nodelist` to static by
    /// hand instead).
    pub monitor_stack: bool,
    /// Cycles charged per page when installing protection at allocation.
    pub protect_cost_per_page: u64,
    /// Record a per-thread time series of NUMA counters, one point per
    /// this many cycles (the paper's future-work trace-based measurement).
    /// `None` disables tracing.
    pub trace_interval: Option<u64>,
}

impl ProfilerConfig {
    pub fn new(mechanism: MechanismConfig) -> Self {
        ProfilerConfig {
            mechanism,
            bins: 5,
            bin_threshold_pages: 5,
            first_touch_granularity: FirstTouchGranularity::Variable,
            monitor_static: true,
            monitor_stack: true,
            protect_cost_per_page: 2,
            trace_interval: None,
        }
    }

    /// Apply the `HPCTOOLKIT_NUMA_BINS` environment override, if set and
    /// parseable.
    pub fn with_env_bins(mut self) -> Self {
        if let Ok(v) = std::env::var(BINS_ENV_VAR) {
            if let Ok(n) = v.trim().parse::<u16>() {
                if n >= 1 {
                    self.bins = n;
                }
            }
        }
        self
    }

    pub fn with_bins(mut self, bins: u16) -> Self {
        assert!(bins >= 1);
        self.bins = bins;
        self
    }

    pub fn with_first_touch_granularity(mut self, g: FirstTouchGranularity) -> Self {
        self.first_touch_granularity = g;
        self
    }

    /// Enable trace-based measurement with one point per `cycles`.
    pub fn with_trace(mut self, cycles: u64) -> Self {
        assert!(cycles > 0);
        self.trace_interval = Some(cycles);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_sampling::MechanismKind;

    fn base() -> ProfilerConfig {
        ProfilerConfig::new(MechanismConfig::for_tests(MechanismKind::Ibs, 100))
    }

    #[test]
    fn defaults_match_paper() {
        let c = base();
        assert_eq!(c.bins, 5);
        assert_eq!(c.bin_threshold_pages, 5);
        assert_eq!(c.first_touch_granularity, FirstTouchGranularity::Variable);
    }

    #[test]
    fn env_override_changes_bins() {
        // Serialize access to the env var across test threads.
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _g = LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        std::env::set_var(BINS_ENV_VAR, "12");
        let c = base().with_env_bins();
        assert_eq!(c.bins, 12);
        std::env::set_var(BINS_ENV_VAR, "not a number");
        let c = base().with_env_bins();
        assert_eq!(c.bins, 5);
        std::env::remove_var(BINS_ENV_VAR);
        let c = base().with_env_bins();
        assert_eq!(c.bins, 5);
    }
}
