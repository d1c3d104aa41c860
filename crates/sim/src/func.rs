//! Function name interning and call-stack frames.
//!
//! Workloads announce their call structure with `ctx.call("name", |ctx| …)`;
//! the engine maintains a per-thread stack of [`Frame`]s that monitors read
//! when attributing samples to calling contexts (the paper's code-centric
//! attribution unwinds the call stack per sample; here the stack is already
//! explicit).

use parking_lot::RwLock;
use serde::Serialize;
use std::collections::HashMap;
use std::sync::Arc;

/// Interned function (or region) name.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize)]
pub struct FuncId(pub u32);

/// What a stack frame represents. Parallel regions are flagged so the
/// analyzer can scope address-centric views to a single OpenMP-style region
/// (as Figures 5 and 7 do).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize)]
pub enum FrameKind {
    /// An ordinary function call.
    Function,
    /// An OpenMP-style parallel region body.
    ParallelRegion,
    /// A loop inside a function (finer-grain code-centric attribution).
    Loop,
}

/// One entry of a thread's call stack.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize)]
pub struct Frame {
    pub func: FuncId,
    pub kind: FrameKind,
}

/// Thread-safe interner mapping names to [`FuncId`]s.
///
/// Lookup of an existing name takes a read lock only; workloads can also
/// pre-intern with [`FuncRegistry::intern`] and use
/// `ThreadCtx::enter_id` to keep the hot path lock-free-ish.
#[derive(Default)]
pub struct FuncRegistry {
    inner: RwLock<RegistryInner>,
}

#[derive(Default)]
struct RegistryInner {
    names: Vec<Arc<str>>,
    by_name: HashMap<Arc<str>, FuncId>,
}

impl FuncRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `name`, returning its id (stable for the registry's lifetime).
    pub fn intern(&self, name: &str) -> FuncId {
        if let Some(&id) = self.inner.read().by_name.get(name) {
            return id;
        }
        let mut inner = self.inner.write();
        if let Some(&id) = inner.by_name.get(name) {
            return id;
        }
        let id = FuncId(inner.names.len() as u32);
        let arc: Arc<str> = Arc::from(name);
        inner.names.push(Arc::clone(&arc));
        inner.by_name.insert(arc, id);
        id
    }

    /// Name for an id.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this registry.
    pub fn name(&self, id: FuncId) -> Arc<str> {
        Arc::clone(&self.inner.read().names[id.0 as usize])
    }

    /// Id for a name, if already interned.
    pub fn lookup(&self, name: &str) -> Option<FuncId> {
        self.inner.read().by_name.get(name).copied()
    }

    pub fn len(&self) -> usize {
        self.inner.read().names.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Render a stack as `a > b > c` for reports and tests.
    pub fn render_stack(&self, stack: &[Frame]) -> String {
        stack
            .iter()
            .map(|f| self.name(f.func).to_string())
            .collect::<Vec<_>>()
            .join(" > ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let r = FuncRegistry::new();
        let a = r.intern("main");
        let b = r.intern("main");
        assert_eq!(a, b);
        assert_eq!(r.len(), 1);
        assert_eq!(&*r.name(a), "main");
    }

    #[test]
    fn distinct_names_get_distinct_ids() {
        let r = FuncRegistry::new();
        let a = r.intern("a");
        let b = r.intern("b");
        assert_ne!(a, b);
        assert_eq!(r.lookup("a"), Some(a));
        assert_eq!(r.lookup("missing"), None);
    }

    #[test]
    fn render_stack_joins_names() {
        let r = FuncRegistry::new();
        let main = r.intern("main");
        let f = r.intern("f");
        let stack = [
            Frame {
                func: main,
                kind: FrameKind::Function,
            },
            Frame {
                func: f,
                kind: FrameKind::ParallelRegion,
            },
        ];
        assert_eq!(r.render_stack(&stack), "main > f");
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        let r = Arc::new(FuncRegistry::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let r = Arc::clone(&r);
            handles.push(std::thread::spawn(move || {
                (0..100)
                    .map(|i| r.intern(&format!("f{}", i % 10)))
                    .collect::<Vec<_>>()
            }));
        }
        let results: Vec<Vec<FuncId>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for w in &results[1..] {
            assert_eq!(w, &results[0]);
        }
        assert_eq!(r.len(), 10);
    }
}
