//! First-touch pinpointing (§6), demonstrated.
//!
//! ```text
//! cargo run --release --example first_touch_demo
//! ```
//!
//! The profiler protects each monitored variable's pages at allocation;
//! the first access raises a (simulated) SIGSEGV whose handler records the
//! faulting call path and data address. Three variables with three
//! different initializers show up with three different first-touch
//! contexts — including a concurrent parallel initialization where many
//! threads each record their own touch.

use hpctoolkit_numa::analysis::Analyzer;
use hpctoolkit_numa::machine::{Machine, MachinePreset, PlacementPolicy};
use hpctoolkit_numa::profiler::{
    finish_profile, FirstTouchGranularity, NumaProfiler, ProfilerConfig,
};
use hpctoolkit_numa::sampling::{MechanismConfig, MechanismKind};
use hpctoolkit_numa::sim::Program;
use std::rc::Rc;

const SIZE: u64 = 4 << 20;
const THREADS: usize = 8;

fn main() {
    let machine = Machine::from_preset(MachinePreset::AmdMagnyCours);
    // Page granularity records a fault per page, so a parallel
    // initialization shows one first-touch context per participating
    // thread (§6's concurrent-handler case). The paper's default —
    // Variable granularity — records only the first initializer.
    let config = ProfilerConfig::new(MechanismConfig::scaled(MechanismKind::Ibs, 64))
        .with_first_touch_granularity(FirstTouchGranularity::Page);
    let profiler = Rc::new(NumaProfiler::new(machine.clone(), config, THREADS));
    let mut p = Program::new(machine.clone(), THREADS, profiler.clone());

    let mut a = 0;
    let mut b = 0;
    let mut c = 0;
    p.serial("main", |ctx| {
        a = ctx.alloc("master_inited", SIZE, PlacementPolicy::FirstTouch);
        b = ctx.alloc("worker_inited", SIZE, PlacementPolicy::FirstTouch);
        c = ctx.alloc("lazily_touched", SIZE, PlacementPolicy::FirstTouch);
        // Variable a: classic serial initialization by the master.
        ctx.call("read_input", |ctx| ctx.store_range(a, SIZE / 64, 64));
    });
    // Variable b: parallel initialization — every thread first-touches its
    // own block, so multiple threads enter the handler (§6 notes this
    // explicitly) and each records a first touch.
    p.parallel("init_b._omp", |tid, ctx| {
        let chunk = SIZE / THREADS as u64;
        ctx.call("fill_block", |ctx| {
            ctx.store_range(b + tid as u64 * chunk, chunk / 64, 64);
        });
    });
    // Variable c: first touched deep inside the compute phase — the fault
    // context pinpoints the surprise initializer.
    p.parallel("compute._omp", |tid, ctx| {
        if tid == 3 {
            ctx.call("lazy_cache_fill", |ctx| ctx.store_range(c, 64, 64));
        }
        ctx.compute(100);
    });

    let profile = finish_profile(p, profiler);
    let analyzer = Analyzer::new(profile);
    println!("first-touch records (page granularity):\n");
    for var_name in ["master_inited", "worker_inited", "lazily_touched"] {
        let id = analyzer.profile().var_by_name(var_name).unwrap().id;
        let sites = analyzer.first_touch_sites(id);
        println!("{var_name}: {} page faults", sites.len());
        // Merge per (thread, call path) — the postmortem merge of §6.
        let mut merged: Vec<(usize, String, String, usize)> = Vec::new();
        for (tid, domain, path) in sites {
            match merged
                .iter_mut()
                .find(|(t, _, p, _)| *t == tid && *p == path)
            {
                Some(entry) => entry.3 += 1,
                None => merged.push((tid, domain.to_string(), path, 1)),
            }
        }
        for (tid, domain, path, pages) in merged {
            println!("    thread {tid} ({domain}) at {path} [{pages} pages]");
        }
        // Where did the pages actually land? (`move_pages` ground truth.)
        if let Some(rec) = analyzer.profile().var(id) {
            println!(
                "    pages per domain: {:?}\n",
                machine.page_map().binding_histogram(rec.addr).unwrap()
            );
        }
    }
    println!(
        "Note: 'worker_inited' shows one record per initializing thread — the\n\
         concurrent-handler case of §6 — and its pages are spread across domains,\n\
         while the master-initialized variables sit entirely in domain 0."
    );
}
