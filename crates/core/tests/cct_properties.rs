//! Property tests for the calling context tree.

use numa_profiler::{Cct, NodeKey, ROOT};
use numa_sim::{Frame, FrameKind, FuncId};
use proptest::prelude::*;

fn arb_stack() -> impl Strategy<Value = (Vec<Frame>, u32)> {
    (prop::collection::vec((0u32..12, 0u8..3), 0..6), 0u32..5).prop_map(|(frames, line)| {
        let stack = frames
            .into_iter()
            .map(|(f, k)| Frame {
                func: FuncId(f),
                kind: match k {
                    0 => FrameKind::Function,
                    1 => FrameKind::ParallelRegion,
                    _ => FrameKind::Loop,
                },
            })
            .collect();
        (stack, line)
    })
}

proptest! {
    /// Resolving the same (stack, line) twice yields the same node, and
    /// the node's root path reconstructs the stack.
    #[test]
    fn resolve_is_stable_and_path_roundtrips(
        stacks in prop::collection::vec(arb_stack(), 1..60)
    ) {
        let mut cct = Cct::new(4);
        for (stack, line) in &stacks {
            let a = cct.resolve(stack, *line);
            let b = cct.resolve(stack, *line);
            prop_assert_eq!(a, b);
            // Reconstruct: path keys (minus root, minus optional line leaf)
            // must equal the stack's frames.
            let path = cct.path_to(a);
            prop_assert_eq!(path[0], ROOT);
            let mut keys: Vec<NodeKey> =
                path[1..].iter().map(|&id| cct.node(id).key).collect();
            if *line != 0 {
                let leaf = keys.pop().unwrap();
                prop_assert_eq!(leaf, NodeKey::Line(*line));
            }
            let expect: Vec<NodeKey> = stack.iter().map(|&f| NodeKey::Frame(f)).collect();
            prop_assert_eq!(keys, expect);
        }
    }

    /// Inclusive metrics at the root equal the sum of all exclusive
    /// metrics, for arbitrary attribution patterns.
    #[test]
    fn root_inclusive_equals_total(
        stacks in prop::collection::vec((arb_stack(), 1u64..50), 1..40)
    ) {
        let mut cct = Cct::new(4);
        let mut total = 0u64;
        for ((stack, line), n) in &stacks {
            let id = cct.resolve(stack, *line);
            cct.node_mut(id).metrics.add_instruction_samples(*n);
            total += n;
        }
        prop_assert_eq!(cct.inclusive(ROOT).samples_instr, total);
        // Each node's inclusive count is at least its exclusive count and
        // at most the total.
        for id in 0..cct.len() as u32 {
            let inc = cct.inclusive(id).samples_instr;
            prop_assert!(inc >= cct.node(id).metrics.samples_instr);
            prop_assert!(inc <= total);
        }
    }

    /// A serialization round trip — the tree rebuilt from its parts,
    /// as the profile codec decodes it — preserves structure and
    /// resolution behaviour.
    #[test]
    fn from_parts_roundtrip_preserves_resolution(
        stacks in prop::collection::vec(arb_stack(), 1..30)
    ) {
        let mut cct = Cct::new(2);
        let ids: Vec<u32> = stacks.iter().map(|(s, l)| cct.resolve(s, *l)).collect();
        let mut back = Cct::from_parts(cct.nodes().to_vec(), cct.domains()).unwrap();
        prop_assert_eq!(back.len(), cct.len());
        for ((s, l), id) in stacks.iter().zip(ids) {
            prop_assert_eq!(back.resolve(s, *l), id);
        }
    }
}
