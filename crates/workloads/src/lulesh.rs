//! LULESH mini-app (§8.1).
//!
//! Reproduces the memory-access structure of LLNL's shock-hydrodynamics
//! proxy that the paper's first case study profiles:
//!
//! * six nodal arrays `x, y, z, xd, yd, zd` allocated with `operator new[]`
//!   (the paper's Figure 3 shows allocation sites at lines 2159/2160/2164);
//! * an element-to-node connectivity array `nodelist`, which in LULESH is a
//!   large *stack* variable — the paper converted it to static to measure
//!   it; this port can allocate it static (default) or stack (exercising
//!   the profiler's stack-variable extension);
//! * a force pass that gathers nodal coordinates through `nodelist`
//!   (block-partitioned elements, so thread `i` touches the `i`-th slice of
//!   every nodal array — the blocked staircase of Figure 3), and a velocity
//!   pass sweeping nodes.
//!
//! In the baseline, the master thread initializes every array, so first
//! touch binds all pages to domain 0: workers then access remote data and
//! contend for domain 0's memory controller. The variants apply the
//! paper's fixes.

use crate::harness::{timed_phase, Workload, WorkloadOutput};
use numa_machine::PlacementPolicy;
use numa_sim::{Program, ThreadCtx, VarKind};
use serde::Serialize;

/// Data-placement variants of the LULESH case study.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize)]
pub enum LuleshVariant {
    /// Master-thread initialization; first touch maps everything to
    /// domain 0.
    Baseline,
    /// Page-interleaved allocation of all hot arrays (the prior-work
    /// strategy the paper compares against).
    Interleaved,
    /// The paper's tool-guided fix: block-wise distribution, implemented —
    /// exactly as in the paper — by parallelizing the first-touch
    /// initialization so each thread touches its own block.
    BlockWise,
}

/// LULESH mini-app parameters.
#[derive(Clone, Debug)]
pub struct Lulesh {
    /// Nodes per cube edge (node count = edge³).
    pub edge: usize,
    /// Timesteps of the force/velocity loop.
    pub iterations: usize,
    pub variant: LuleshVariant,
    /// Allocate `nodelist` as a stack variable instead of static.
    pub nodelist_on_stack: bool,
}

impl Lulesh {
    pub fn new(edge: usize, iterations: usize, variant: LuleshVariant) -> Self {
        assert!(edge >= 4);
        Lulesh {
            edge,
            iterations,
            variant,
            nodelist_on_stack: false,
        }
    }

    /// A size small enough for unit tests.
    pub fn tiny(variant: LuleshVariant) -> Self {
        Lulesh::new(12, 2, variant)
    }

    pub fn nodes(&self) -> u64 {
        (self.edge * self.edge * self.edge) as u64
    }

    pub fn elems(&self) -> u64 {
        let e = (self.edge - 1) as u64;
        e * e * e
    }
}

const ELEM_SIZE: u64 = 8;
/// `nodelist` holds 4-byte node indices (LULESH's `Index_t`).
const IDX_SIZE: u64 = 4;

struct Arrays {
    x: u64,
    y: u64,
    z: u64,
    xd: u64,
    yd: u64,
    zd: u64,
    nodelist: u64,
}

impl Lulesh {
    fn policy(&self, program: &Program) -> PlacementPolicy {
        match self.variant {
            LuleshVariant::Interleaved => {
                PlacementPolicy::interleave_all(program.machine().topology().domains())
            }
            _ => PlacementPolicy::FirstTouch,
        }
    }

    fn allocate(&self, program: &mut Program) -> Arrays {
        let nbytes = self.nodes() * ELEM_SIZE;
        let ebytes = self.elems() * 8 * IDX_SIZE;
        let policy = self.policy(program);
        let nodelist_kind = if self.nodelist_on_stack {
            VarKind::Stack
        } else {
            VarKind::Static
        };
        let mut arrays = None;
        program.serial("main", |ctx| {
            let a = ctx.call("Domain::AllocateNodalPersistent", |ctx| {
                let alloc_at = |ctx: &mut ThreadCtx<'_>, name: &str, line: u32| {
                    // The allocation call path ends in operator new[] with
                    // a distinct line per variable, as in Figure 3.
                    ctx.at_line(line);
                    let addr = ctx.call("operator new[]", |ctx| {
                        ctx.alloc(name, nbytes, policy.clone())
                    });
                    ctx.at_line(0);
                    addr
                };
                let x = alloc_at(ctx, "x", 2158);
                let y = alloc_at(ctx, "y", 2159);
                let z = alloc_at(ctx, "z", 2160);
                let xd = alloc_at(ctx, "xd", 2162);
                let yd = alloc_at(ctx, "yd", 2163);
                let zd = alloc_at(ctx, "zd", 2164);
                let nodelist = ctx.alloc_kind("nodelist", ebytes, policy.clone(), nodelist_kind);
                Arrays {
                    x,
                    y,
                    z,
                    xd,
                    yd,
                    zd,
                    nodelist,
                }
            });
            arrays = Some(a);
        });
        arrays.unwrap()
    }

    fn initialize(&self, program: &mut Program, arrays: &Arrays) {
        let nodes = self.nodes();
        let elems = self.elems();
        let init_thread =
            |ctx: &mut ThreadCtx<'_>, a: &Arrays, lo_n: u64, hi_n: u64, lo_e: u64, hi_e: u64| {
                ctx.call("InitMeshDecomp", |ctx| {
                    for arr in [a.x, a.y, a.z, a.xd, a.yd, a.zd] {
                        ctx.store_range(arr + lo_n * ELEM_SIZE, hi_n - lo_n, ELEM_SIZE as u32);
                    }
                    ctx.store_range(
                        a.nodelist + lo_e * 8 * IDX_SIZE,
                        (hi_e - lo_e) * 8,
                        IDX_SIZE as u32,
                    );
                });
            };
        match self.variant {
            LuleshVariant::BlockWise => {
                // The paper's fix: parallel first touch, one block per
                // thread — pages land in the toucher's domain.
                let n = program.num_threads() as u64;
                program.parallel("InitMeshDecomp._omp", |tid, ctx| {
                    let (lo_n, hi_n) = block(nodes, n, tid as u64);
                    let (lo_e, hi_e) = block(elems, n, tid as u64);
                    init_thread(ctx, arrays, lo_n, hi_n, lo_e, hi_e);
                });
            }
            _ => {
                program.serial("main", |ctx| {
                    init_thread(ctx, arrays, 0, nodes, 0, elems);
                });
            }
        }
    }

    /// One force pass: gather nodal coordinates through the connectivity.
    fn calc_force(&self, program: &mut Program, arrays: &Arrays) {
        let elems = self.elems();
        let nodes = self.nodes();
        let n = program.num_threads() as u64;
        program.parallel("CalcForceForNodes._omp", |tid, ctx| {
            let (lo, hi) = block(elems, n, tid as u64);
            ctx.loop_scope("elem_loop", |ctx| {
                for e in lo..hi {
                    // Read this element's 8 node indices (1 cache line).
                    ctx.at_line(1420);
                    ctx.load_range(arrays.nodelist + e * 8 * IDX_SIZE, 8, IDX_SIZE as u32);
                    // Gather coordinates of 4 of the nodes from x, y, and
                    // (heavier) z.
                    let n0 = e * nodes / elems;
                    ctx.at_line(1431);
                    for k in 0..4u64 {
                        let node = gather_node(n0, k, nodes, self.edge as u64);
                        ctx.load(arrays.x + node * ELEM_SIZE, 8);
                        ctx.load(arrays.y + node * ELEM_SIZE, 8);
                        ctx.load(arrays.z + node * ELEM_SIZE, 8);
                    }
                    // z is re-read in the hourglass term (making it the
                    // hottest variable, as in the paper).
                    ctx.at_line(1502);
                    for k in 0..4u64 {
                        let node = gather_node(n0, k + 4, nodes, self.edge as u64);
                        ctx.load(arrays.z + node * ELEM_SIZE, 8);
                    }
                    ctx.compute(420);
                    // Scatter force increments to the velocity arrays.
                    ctx.at_line(1540);
                    ctx.store(arrays.xd + n0 * ELEM_SIZE, 8);
                    ctx.store(arrays.yd + n0 * ELEM_SIZE, 8);
                    ctx.store(arrays.zd + n0 * ELEM_SIZE, 8);
                }
                ctx.at_line(0);
            });
        });
    }

    /// One velocity/position pass: streaming node sweep.
    fn calc_velocity(&self, program: &mut Program, arrays: &Arrays) {
        let nodes = self.nodes();
        let n = program.num_threads() as u64;
        program.parallel("CalcVelocityForNodes._omp", |tid, ctx| {
            let (lo, hi) = block(nodes, n, tid as u64);
            ctx.loop_scope("node_loop", |ctx| {
                ctx.at_line(2010);
                for i in lo..hi {
                    ctx.load(arrays.xd + i * ELEM_SIZE, 8);
                    ctx.load(arrays.yd + i * ELEM_SIZE, 8);
                    ctx.load(arrays.zd + i * ELEM_SIZE, 8);
                    ctx.store(arrays.x + i * ELEM_SIZE, 8);
                    ctx.store(arrays.y + i * ELEM_SIZE, 8);
                    ctx.store(arrays.z + i * ELEM_SIZE, 8);
                    ctx.compute(48);
                }
                ctx.at_line(0);
            });
        });
    }
}

/// Contiguous block `[lo, hi)` of `total` items for worker `t` of `n`.
pub(crate) fn block(total: u64, n: u64, t: u64) -> (u64, u64) {
    let per = total.div_ceil(n);
    let lo = (t * per).min(total);
    let hi = ((t + 1) * per).min(total);
    (lo, hi)
}

/// Node index gathered by an element whose base node is `n0`: a small
/// neighborhood (same cube corner offsets as a hexahedral element), kept in
/// bounds.
fn gather_node(n0: u64, k: u64, nodes: u64, edge: u64) -> u64 {
    let offset = match k {
        0 => 0,
        1 => 1,
        2 => edge,
        3 => edge + 1,
        4 => edge * edge,
        5 => edge * edge + 1,
        6 => edge * edge + edge,
        _ => edge * edge + edge + 1,
    };
    (n0 + offset).min(nodes - 1)
}

impl Workload for Lulesh {
    fn name(&self) -> &'static str {
        "LULESH"
    }

    fn execute(&self, program: &mut Program) -> WorkloadOutput {
        let mut out = WorkloadOutput::default();
        let arrays = self.allocate(program);
        timed_phase(program, &mut out, "init", |p| {
            self.initialize(p, &arrays);
        });
        timed_phase(program, &mut out, "solve", |p| {
            for _ in 0..self.iterations {
                self.calc_force(p, &arrays);
                self.calc_velocity(p, &arrays);
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{run_profiled, run_unmonitored};
    use numa_machine::{Machine, MachinePreset};
    use numa_profiler::ProfilerConfig;
    use numa_sampling::{MechanismConfig, MechanismKind};
    use numa_sim::ExecMode;

    fn machine() -> Machine {
        Machine::from_preset(MachinePreset::AmdMagnyCours)
    }

    #[test]
    fn block_partition_covers_everything() {
        for total in [0u64, 1, 7, 48, 1000] {
            for n in [1u64, 3, 8, 48] {
                let mut covered = 0;
                for t in 0..n {
                    let (lo, hi) = block(total, n, t);
                    assert!(lo <= hi);
                    covered += hi - lo;
                }
                assert_eq!(covered, total, "total={total} n={n}");
            }
        }
    }

    #[test]
    fn baseline_binds_everything_to_domain_zero() {
        let m = machine();
        let app = Lulesh::tiny(LuleshVariant::Baseline);
        let (_, _, profile) = run_profiled(
            &app,
            m.clone(),
            8,
            ExecMode::Sequential,
            ProfilerConfig::new(MechanismConfig::for_tests(MechanismKind::Ibs, 64)),
        );
        let z = profile.var_by_name("z").unwrap();
        let hist = m.page_map().binding_histogram(z.addr).unwrap();
        assert!(hist[0] > 0);
        assert_eq!(
            hist[1..].iter().sum::<u64>(),
            0,
            "all pages in domain 0: {hist:?}"
        );
    }

    #[test]
    fn blockwise_spreads_pages_across_domains() {
        let m = machine();
        // Arrays must span enough pages (edge 32 → 256 KiB nodal arrays)
        // for an 8-way block distribution to be visible.
        let app = Lulesh::new(32, 1, LuleshVariant::BlockWise);
        let (_, _, profile) = run_profiled(
            &app,
            m.clone(),
            8,
            ExecMode::Sequential,
            ProfilerConfig::new(MechanismConfig::for_tests(MechanismKind::Ibs, 64)),
        );
        let z = profile.var_by_name("z").unwrap();
        let hist = m.page_map().binding_histogram(z.addr).unwrap();
        let populated = hist.iter().filter(|&&c| c > 0).count();
        assert!(populated >= 6, "pages spread across domains: {hist:?}");
    }

    #[test]
    fn interleaved_round_robins_pages() {
        let m = machine();
        let app = Lulesh::tiny(LuleshVariant::Interleaved);
        let (_, _, profile) = run_profiled(
            &app,
            m.clone(),
            8,
            ExecMode::Sequential,
            ProfilerConfig::new(MechanismConfig::for_tests(MechanismKind::Ibs, 64)),
        );
        let z = profile.var_by_name("z").unwrap();
        let hist = m.page_map().binding_histogram(z.addr).unwrap();
        let max = *hist.iter().max().unwrap();
        let min = *hist.iter().min().unwrap();
        assert!(max - min <= 1, "interleave is even: {hist:?}");
    }

    #[test]
    fn blockwise_is_faster_than_baseline() {
        let app_base = Lulesh::tiny(LuleshVariant::Baseline);
        let app_opt = Lulesh::tiny(LuleshVariant::BlockWise);
        let (base, _) = run_unmonitored(&app_base, machine(), 8, ExecMode::Sequential);
        let (opt, _) = run_unmonitored(&app_opt, machine(), 8, ExecMode::Sequential);
        assert!(
            opt.elapsed_cycles < base.elapsed_cycles,
            "block-wise {} vs baseline {}",
            opt.elapsed_cycles,
            base.elapsed_cycles
        );
    }

    #[test]
    fn profile_shows_seven_to_one_mismatch_for_z() {
        // 8 domains, threads spread evenly: 7/8 of accesses to
        // domain-0-homed data are remote (the paper's "M_r is roughly
        // seven times M_l").
        // Enough solver iterations that the serial init's local accesses
        // are a small minority, as in a real run.
        let app = Lulesh::new(12, 8, LuleshVariant::Baseline);
        let (_, _, profile) = run_profiled(
            &app,
            machine(),
            8,
            ExecMode::Sequential,
            ProfilerConfig::new(MechanismConfig::for_tests(MechanismKind::Ibs, 16)),
        );
        let z = profile.var_by_name("z").unwrap();
        let mut m = numa_profiler::MetricSet::new(8);
        for t in &profile.threads {
            for (v, vm) in &t.var_metrics {
                if *v == z.id {
                    m.merge(vm);
                }
            }
        }
        let ratio = m.m_remote as f64 / m.m_local.max(1) as f64;
        assert!(
            (4.0..=12.0).contains(&ratio),
            "M_r/M_l for z should be ≈7, got {ratio:.1} ({} / {})",
            m.m_remote,
            m.m_local
        );
        // All requests target domain 0 (NUMA_NODE0 = M_l + M_r).
        assert_eq!(m.per_domain[0], m.m_local + m.m_remote);
    }

    #[test]
    fn stack_nodelist_is_monitored_when_enabled() {
        let mut app = Lulesh::tiny(LuleshVariant::Baseline);
        app.nodelist_on_stack = true;
        let (_, _, profile) = run_profiled(
            &app,
            machine(),
            4,
            ExecMode::Sequential,
            ProfilerConfig::new(MechanismConfig::for_tests(MechanismKind::Ibs, 64)),
        );
        let nl = profile.var_by_name("nodelist").unwrap();
        assert_eq!(nl.kind, numa_sim::VarKind::Stack);
    }

    #[test]
    fn phases_are_reported() {
        let app = Lulesh::tiny(LuleshVariant::Baseline);
        let (_, out) = run_unmonitored(&app, machine(), 4, ExecMode::Sequential);
        assert!(out.phase("init").unwrap() > 0);
        assert!(out.phase("solve").unwrap() > 0);
    }
}
