//! Calling context trees (CCTs).
//!
//! HPCToolkit attributes every sample to the full calling context in which
//! it occurred (§5.1). Each thread builds its own CCT online; the offline
//! analyzer merges them. Nodes are identified by their parent plus a
//! [`NodeKey`]: a call-stack frame, or a source-line leaf for
//! statement-level attribution.

use crate::metrics::MetricSet;
use numa_sim::Frame;
use serde::Serialize;
use std::collections::HashMap;

/// Identifier of a CCT node within one tree.
pub type NodeId = u32;

/// The root's id.
pub const ROOT: NodeId = 0;

/// What distinguishes a node from its siblings.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize)]
pub enum NodeKey {
    Root,
    /// A call-stack frame (function, loop, or parallel region).
    Frame(Frame),
    /// A source-line leaf under the innermost frame (statement-level
    /// attribution, like HPCToolkit's line scopes).
    Line(u32),
}

/// One node: key, parent link, and exclusive metrics (samples attributed
/// exactly here; inclusive values are computed by the analyzer).
#[derive(Clone, Debug, Serialize)]
pub struct CctNode {
    pub key: NodeKey,
    pub parent: NodeId,
    pub metrics: MetricSet,
}

/// An append-only calling context tree.
#[derive(Clone, Debug, Serialize)]
pub struct Cct {
    nodes: Vec<CctNode>,
    domains: usize,
    #[serde(skip)]
    index: HashMap<(NodeId, NodeKey), NodeId>,
}

impl Cct {
    pub fn new(domains: usize) -> Self {
        Cct {
            nodes: vec![CctNode {
                key: NodeKey::Root,
                parent: ROOT,
                metrics: MetricSet::new(domains),
            }],
            domains,
            index: HashMap::new(),
        }
    }

    /// Rebuild a tree from its serialized parts: the node vector (root
    /// first, parents preceding children) plus the domain count — how
    /// the profile codec decodes a tree. The lookup index is rebuilt
    /// eagerly, so the tree is immediately resolvable.
    /// Returns `None` when the parts cannot form a valid tree: no root,
    /// a non-`Root` first node, or a parent reference at or past its
    /// node's own id (the append-only invariant every consumer relies
    /// on).
    pub fn from_parts(nodes: Vec<CctNode>, domains: usize) -> Option<Self> {
        match nodes.first() {
            Some(root) if root.key == NodeKey::Root && root.parent == ROOT => {}
            _ => return None,
        }
        for (i, n) in nodes.iter().enumerate().skip(1) {
            if n.parent as usize >= i {
                return None;
            }
        }
        let index = nodes
            .iter()
            .enumerate()
            .skip(1)
            .map(|(i, n)| ((n.parent, n.key), i as NodeId))
            .collect();
        Some(Cct {
            nodes,
            domains,
            index,
        })
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        false // a CCT always has its root
    }

    pub fn domains(&self) -> usize {
        self.domains
    }

    pub fn node(&self, id: NodeId) -> &CctNode {
        &self.nodes[id as usize]
    }

    pub fn node_mut(&mut self, id: NodeId) -> &mut CctNode {
        &mut self.nodes[id as usize]
    }

    pub fn nodes(&self) -> &[CctNode] {
        &self.nodes
    }

    /// Find or create the child of `parent` with `key`.
    pub fn child(&mut self, parent: NodeId, key: NodeKey) -> NodeId {
        if let Some(&id) = self.index.get(&(parent, key)) {
            return id;
        }
        let id = self.nodes.len() as NodeId;
        self.nodes.push(CctNode {
            key,
            parent,
            metrics: MetricSet::new(self.domains),
        });
        self.index.insert((parent, key), id);
        id
    }

    /// Resolve a call stack (outermost first) plus an optional line marker
    /// to a node, creating missing nodes. This is the per-sample hot path.
    pub fn resolve(&mut self, stack: &[Frame], line: u32) -> NodeId {
        let mut cur = ROOT;
        for &f in stack {
            cur = self.child(cur, NodeKey::Frame(f));
        }
        if line != 0 {
            cur = self.child(cur, NodeKey::Line(line));
        }
        cur
    }

    /// Path from the root to `id`, inclusive.
    pub fn path_to(&self, id: NodeId) -> Vec<NodeId> {
        let mut path = vec![id];
        let mut cur = id;
        while cur != ROOT {
            cur = self.nodes[cur as usize].parent;
            path.push(cur);
        }
        path.reverse();
        path
    }

    /// Children of `id` (linear scan; analysis-time only).
    pub fn children(&self, id: NodeId) -> Vec<NodeId> {
        (1..self.nodes.len() as NodeId)
            .filter(|&n| self.nodes[n as usize].parent == id && n != ROOT)
            .collect()
    }

    /// Inclusive metrics of `id`: its own plus all descendants'.
    pub fn inclusive(&self, id: NodeId) -> MetricSet {
        // Children have larger ids than parents (append-only creation), so
        // one reverse pass folds leaves upward.
        let n = self.nodes.len();
        let mut acc: Vec<MetricSet> = self.nodes.iter().map(|nd| nd.metrics.clone()).collect();
        for i in (1..n).rev() {
            let parent = self.nodes[i].parent as usize;
            let child = acc[i].clone();
            acc[parent].merge(&child);
        }
        // `acc[id]` now holds inclusive metrics only if id is an ancestor
        // chain root of the folded region — the fold above pushes every
        // node into its parent, so acc[id] is exactly inclusive(id).
        acc[id as usize].clone()
    }

    /// Approximate resident bytes (for the 40 MB footprint check).
    pub fn footprint_bytes(&self) -> usize {
        self.nodes.len() * (std::mem::size_of::<CctNode>() + self.domains * 8)
            + self.index.len() * 24
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_sim::{FrameKind, FuncId};

    fn f(id: u32) -> Frame {
        Frame {
            func: FuncId(id),
            kind: FrameKind::Function,
        }
    }

    #[test]
    fn resolve_creates_each_path_once() {
        let mut cct = Cct::new(2);
        let a = cct.resolve(&[f(1), f(2)], 0);
        let b = cct.resolve(&[f(1), f(2)], 0);
        assert_eq!(a, b);
        assert_eq!(cct.len(), 3); // root + 2 frames
        let c = cct.resolve(&[f(1), f(3)], 0);
        assert_ne!(a, c);
        assert_eq!(cct.len(), 4); // shares node for f(1)
    }

    #[test]
    fn line_leaves_are_distinct() {
        let mut cct = Cct::new(2);
        let a = cct.resolve(&[f(1)], 10);
        let b = cct.resolve(&[f(1)], 20);
        let c = cct.resolve(&[f(1)], 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(cct.node(a).parent, c);
    }

    #[test]
    fn path_to_walks_to_root() {
        let mut cct = Cct::new(2);
        let leaf = cct.resolve(&[f(1), f(2), f(3)], 7);
        let path = cct.path_to(leaf);
        assert_eq!(path[0], ROOT);
        assert_eq!(*path.last().unwrap(), leaf);
        assert_eq!(path.len(), 5); // root + 3 frames + line
    }

    #[test]
    fn inclusive_sums_subtree() {
        let mut cct = Cct::new(2);
        let parent = cct.resolve(&[f(1)], 0);
        let child1 = cct.resolve(&[f(1), f(2)], 0);
        let child2 = cct.resolve(&[f(1), f(3)], 0);
        cct.node_mut(parent).metrics.add_instruction_samples(1);
        cct.node_mut(child1).metrics.add_instruction_samples(10);
        cct.node_mut(child2).metrics.add_instruction_samples(100);
        assert_eq!(cct.inclusive(parent).samples_instr, 111);
        assert_eq!(cct.inclusive(child1).samples_instr, 10);
        assert_eq!(cct.inclusive(ROOT).samples_instr, 111);
    }

    #[test]
    fn children_enumerates_direct_descendants() {
        let mut cct = Cct::new(2);
        let p = cct.resolve(&[f(1)], 0);
        let a = cct.resolve(&[f(1), f(2)], 0);
        let b = cct.resolve(&[f(1), f(3)], 0);
        cct.resolve(&[f(1), f(3), f(4)], 0); // grandchild, not direct
        let mut kids = cct.children(p);
        kids.sort();
        assert_eq!(kids, vec![a, b]);
    }

    #[test]
    fn rebuild_index_restores_resolution() {
        let mut cct = Cct::new(2);
        let a = cct.resolve(&[f(1), f(2)], 5);
        let mut back = Cct::from_parts(cct.nodes().to_vec(), cct.domains()).unwrap();
        let b = back.resolve(&[f(1), f(2)], 5);
        assert_eq!(a, b);
        assert_eq!(back.len(), cct.len());
    }
}
