//! The sample record delivered to the profiler.

use numa_machine::{AccessLevel, CpuId, DomainId};
use numa_sim::MemoryEvent;
use serde::Serialize;

/// One address sample, with optional fields gated by the capturing
/// mechanism's [`Capabilities`](crate::mechanism::Capabilities). Fields that
/// a mechanism's hardware cannot capture are `None`, and the profiler's
/// derived metrics degrade exactly as the paper describes (e.g. without
/// latency, `lpi_NUMA` is unavailable and the tool falls back to
/// `M_l`/`M_r` analysis as in the MRK case studies).
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct Sample {
    pub tid: usize,
    /// CPU that took the sample. PMU-based mechanisms report it directly;
    /// Soft-IBS relies on the static thread→core binding (§4.1).
    pub cpu: CpuId,
    pub thread_domain: DomainId,
    /// Effective address, present iff the sampled instruction was a memory
    /// operation (IBS/PEBS also sample non-memory instructions, recorded
    /// separately via [`ComputeOutcome`](crate::mechanism::ComputeOutcome)).
    pub addr: Option<u64>,
    /// Access width in bytes (present with `addr`).
    pub size: Option<u32>,
    pub is_store: Option<bool>,
    /// Measured access latency — IBS and PEBS-LL only (§4.2).
    pub latency: Option<u32>,
    /// Data source (which level/domain satisfied the access) — mechanisms
    /// with NUMA-event support.
    pub level: Option<AccessLevel>,
    /// Source-line marker active at the sample.
    pub line: u32,
    /// False for PEBS, whose captured IP is off by one instruction; the
    /// profiler's code-centric attribution is still correct because the
    /// mechanism performs (costly) online binary analysis, but downstream
    /// consumers can see the flag.
    pub precise_ip: bool,
}

impl Sample {
    /// Build a sample from an engine event, masking fields the mechanism
    /// cannot capture.
    pub fn from_event(ev: &MemoryEvent, caps: crate::mechanism::Capabilities) -> Self {
        Sample {
            tid: ev.tid,
            cpu: ev.cpu,
            thread_domain: ev.thread_domain,
            addr: Some(ev.addr),
            size: Some(ev.size),
            is_store: Some(ev.is_store),
            latency: caps.latency.then_some(ev.latency),
            level: caps.data_source.then_some(ev.level),
            line: ev.line,
            precise_ip: caps.precise_ip,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::Capabilities;

    fn ev() -> MemoryEvent {
        MemoryEvent {
            tid: 3,
            cpu: CpuId(7),
            thread_domain: DomainId(1),
            addr: 0xabc0,
            size: 8,
            is_store: true,
            level: AccessLevel::MemRemote,
            home_domain: DomainId(0),
            latency: 310,
            line: 42,
            first_touch_page: false,
            clock: 0,
        }
    }

    #[test]
    fn capability_masking() {
        let full = Capabilities {
            samples_all_instructions: true,
            latency: true,
            data_source: true,
            precise_ip: true,
        };
        let s = Sample::from_event(&ev(), full);
        assert_eq!(s.addr, Some(0xabc0));
        assert_eq!(s.latency, Some(310));
        assert_eq!(s.level, Some(AccessLevel::MemRemote));

        let poor = Capabilities {
            samples_all_instructions: false,
            latency: false,
            data_source: false,
            precise_ip: false,
        };
        let s = Sample::from_event(&ev(), poor);
        assert_eq!(
            s.addr,
            Some(0xabc0),
            "address is what address sampling is for"
        );
        assert_eq!(s.latency, None);
        assert_eq!(s.level, None);
        assert!(!s.precise_ip);
    }
}
