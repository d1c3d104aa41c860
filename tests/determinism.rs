//! Reproducibility guarantees of the engine.

use hpctoolkit_numa::machine::{Machine, MachinePreset, PlacementPolicy};
use hpctoolkit_numa::sim::{ExecMode, Program, ProgramStats};
use hpctoolkit_numa::workloads::{run_unmonitored, Lulesh, LuleshVariant};

fn machine() -> Machine {
    Machine::from_preset(MachinePreset::AmdMagnyCours)
}

fn run_once() -> ProgramStats {
    run_unmonitored(
        &Lulesh::new(12, 2, LuleshVariant::Baseline),
        machine(),
        8,
        ExecMode::Sequential,
    )
    .0
}

#[test]
fn sequential_unmonitored_runs_are_bit_identical() {
    let a = run_once();
    let b = run_once();
    assert_eq!(a, b);
}

#[test]
fn interleave_placement_ignores_which_thread_touches_first() {
    let m = machine();
    let mut p = Program::unmonitored(m.clone(), 8);
    let mut base = 0;
    p.serial("main", |ctx| {
        base = ctx.alloc("arr", 64 * 4096, PlacementPolicy::interleave_all(8));
    });
    p.parallel("touch", |tid, ctx| {
        let chunk = 64 * 4096 / 8u64;
        for page in 0..chunk / 4096 {
            ctx.store(base + tid as u64 * chunk + page * 4096, 8);
        }
    });
    // Interleaving binds page i to domain i%8 regardless of who touched
    // it or when.
    let hist = m.page_map().binding_histogram(base).unwrap();
    assert_eq!(hist, vec![8; 8]);
}
