//! First-touch pinpointing (§6).
//!
//! At allocation time the profiler revokes access to the pages of each
//! monitored variable (only pages fully inside the variable's extent, per
//! §6). The engine delivers a synchronous fault — the simulated SIGSEGV —
//! on the first access; the handler records both the code-centric context
//! (the faulting call path) and the data-centric identity (which variable,
//! which address) before execution resumes. Multiple threads initializing a
//! variable concurrently each record their own first touch; the analyzer
//! merges them per variable postmortem.

use crate::datacentric::VarId;
use numa_machine::{CpuId, DomainId};
use numa_sim::Frame;
use parking_lot::Mutex;
use serde::Serialize;

/// How much of a variable to unprotect when its first fault arrives.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize)]
pub enum FirstTouchGranularity {
    /// The paper's behaviour: the handler restores permissions for the
    /// variable's monitored pages, so each variable faults O(#concurrent
    /// initializers) times — cheap, and enough to locate the
    /// initialization code.
    Variable,
    /// Leave other pages protected: every page faults once, yielding a
    /// full per-page first-touch map (more detail, more overhead).
    Page,
}

/// One recorded first touch.
#[derive(Clone, Debug, Serialize)]
pub struct FirstTouchRecord {
    pub var: VarId,
    pub tid: usize,
    pub cpu: CpuId,
    /// Domain of the touching thread — under the first-touch policy, where
    /// the page went.
    pub domain: DomainId,
    /// Faulting address.
    pub addr: u64,
    pub is_store: bool,
    pub line: u32,
    /// Full calling context of the touch.
    pub path: Vec<Frame>,
}

/// Concurrent store of first-touch records.
#[derive(Default)]
pub struct FirstTouchStore {
    records: Mutex<Vec<FirstTouchRecord>>,
}

impl FirstTouchStore {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn record(&self, rec: FirstTouchRecord) {
        self.records.lock().push(rec);
    }

    pub fn len(&self) -> usize {
        self.records.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn snapshot(&self) -> Vec<FirstTouchRecord> {
        self.records.lock().clone()
    }

    pub fn into_records(self) -> Vec<FirstTouchRecord> {
        self.records.into_inner()
    }

    /// Records for one variable (the postmortem per-variable merge).
    pub fn for_var(&self, var: VarId) -> Vec<FirstTouchRecord> {
        self.records
            .lock()
            .iter()
            .filter(|r| r.var == var)
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(var: u32, tid: usize) -> FirstTouchRecord {
        FirstTouchRecord {
            var: VarId(var),
            tid,
            cpu: CpuId(tid as u16),
            domain: DomainId(0),
            addr: 0x1000,
            is_store: true,
            line: 0,
            path: Vec::new(),
        }
    }

    #[test]
    fn records_accumulate_per_var() {
        let s = FirstTouchStore::new();
        s.record(rec(0, 0));
        s.record(rec(1, 1));
        s.record(rec(0, 2));
        assert_eq!(s.len(), 3);
        assert_eq!(s.for_var(VarId(0)).len(), 2);
        assert_eq!(s.for_var(VarId(1)).len(), 1);
        assert_eq!(s.for_var(VarId(9)).len(), 0);
    }

    #[test]
    fn concurrent_recording() {
        use std::sync::Arc;
        let s = Arc::new(FirstTouchStore::new());
        let mut handles = Vec::new();
        for t in 0..8 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    s.record(rec(0, t));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.len(), 800);
    }
}
