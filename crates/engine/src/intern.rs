//! String interning: names → dense `u32` symbols.
//!
//! One table serves all three name spaces the profile carries (function
//! names, variable names, the machine name); callers keep their own
//! `Symbol → domain id` maps. Interning is write-once-read-many: the
//! fast path is a read-locked hash probe, the slow path upgrades to a
//! write lock and re-checks.

use std::collections::HashMap;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// A dense interned-string id. Valid only against the [`SymbolTable`]
/// that produced it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub u32);

#[derive(Default)]
struct Inner {
    map: HashMap<Arc<str>, u32>,
    names: Vec<Arc<str>>,
}

/// Thread-safe string interner.
#[derive(Default)]
pub struct SymbolTable {
    inner: RwLock<Inner>,
}

impl SymbolTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// A poisoned lock is taken as it is, like every lock in the
    /// workspace (DESIGN.md, "Concurrency model").
    fn read(&self) -> RwLockReadGuard<'_, Inner> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, Inner> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Intern `name`, returning its stable symbol. Idempotent.
    pub fn intern(&self, name: &str) -> Symbol {
        if let Some(&id) = self.read().map.get(name) {
            return Symbol(id);
        }
        let mut inner = self.write();
        if let Some(&id) = inner.map.get(name) {
            return Symbol(id);
        }
        let id = inner.names.len() as u32;
        let arc: Arc<str> = Arc::from(name);
        inner.names.push(Arc::clone(&arc));
        inner.map.insert(arc, id);
        Symbol(id)
    }

    /// Look up an already-interned name without inserting.
    pub fn lookup(&self, name: &str) -> Option<Symbol> {
        self.read().map.get(name).copied().map(Symbol)
    }

    /// The string behind a symbol (`None` for a foreign symbol).
    pub fn resolve(&self, sym: Symbol) -> Option<Arc<str>> {
        self.read().names.get(sym.0 as usize).cloned()
    }

    pub fn len(&self) -> usize {
        self.read().names.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_dense() {
        let t = SymbolTable::new();
        let a = t.intern("alpha");
        let b = t.intern("beta");
        assert_eq!(a, Symbol(0));
        assert_eq!(b, Symbol(1));
        assert_eq!(t.intern("alpha"), a);
        assert_eq!(t.len(), 2);
        assert_eq!(t.resolve(a).as_deref(), Some("alpha"));
        assert_eq!(t.lookup("beta"), Some(b));
        assert_eq!(t.lookup("gamma"), None);
        assert_eq!(t.resolve(Symbol(9)), None);
    }

    #[test]
    fn concurrent_interning_agrees() {
        let t = SymbolTable::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..64 {
                        t.intern(&format!("sym-{}", i % 8));
                    }
                });
            }
        });
        assert_eq!(t.len(), 8);
        // Every name resolves back to itself.
        for i in 0..8 {
            let name = format!("sym-{i}");
            let sym = t.lookup(&name).unwrap();
            assert_eq!(t.resolve(sym).as_deref(), Some(name.as_str()));
        }
    }
}
