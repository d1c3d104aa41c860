//! AMG2006 mini-app (§8.2).
//!
//! Reproduces the access structure of the algebraic-multigrid solve the
//! paper's second case study profiles:
//!
//! * CSR-shaped matrix data: `RAP_diag_i` (row pointers), `RAP_diag_j`
//!   (column indices), `RAP_diag_data` (values), plus the indirection array
//!   `A_diag_i` — relax reads `RAP_diag_data[A_diag_i[i]]`, the indirect
//!   access the paper highlights (code-centric analysis alone cannot tell
//!   where that data lives);
//! * an interpolation pass whose threads touch *scattered* blocks of
//!   `RAP_diag_data`/`RAP_diag_j` (so the whole-program address-centric
//!   view looks irregular, Figure 4/6) while the dominant relax region has
//!   a regular blocked pattern (Figure 5/7);
//! * a matvec whose threads sweep the whole `u`/`rhs` vectors (the paper's
//!   "other two \[variables\] show that each thread accesses the whole
//!   range, leading to … interleaved page allocation").
//!
//! The paper reports its guided mix (block-wise for the three blockable
//! arrays, interleave for the vectors) cutting solver time by 51%, vs. 36%
//! for the prior interleave-everything strategy.

use crate::harness::{timed_phase, Workload, WorkloadOutput};
use crate::lulesh::block;
use numa_machine::PlacementPolicy;
use numa_sim::Program;

/// Data-placement variants of the AMG2006 case study.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AmgVariant {
    /// Master init: everything first-touched into domain 0.
    Baseline,
    /// Prior work: interleave every problematic variable.
    InterleavedAll,
    /// This paper's guided mix: block-wise distribution for the arrays
    /// with blocked relax-region patterns, interleave for the full-range
    /// vectors.
    Guided,
}

/// AMG2006 mini-app parameters.
#[derive(Clone, Debug)]
pub struct Amg2006 {
    /// Matrix rows.
    pub rows: u64,
    /// Relax sweeps (the solver loop).
    pub iterations: usize,
    pub variant: AmgVariant,
}

/// Nonzeros per row of the coarse-grid operator.
const NNZ: u64 = 5;
const W: u64 = 8;

impl Amg2006 {
    pub fn new(rows: u64, iterations: usize, variant: AmgVariant) -> Self {
        assert!(rows >= 64);
        Amg2006 {
            rows,
            iterations,
            variant,
        }
    }

    /// Small enough for unit tests yet large enough that the working set
    /// exceeds one domain's L3 (so DRAM placement matters).
    pub fn tiny(variant: AmgVariant) -> Self {
        Amg2006::new(128 * 1024, 2, variant)
    }

    pub fn nnz(&self) -> u64 {
        self.rows * NNZ
    }
}

struct Data {
    rap_diag_i: u64,
    rap_diag_j: u64,
    rap_diag_data: u64,
    a_diag_i: u64,
    p_diag_data: u64,
    u: u64,
    rhs: u64,
}

/// Cheap deterministic hash for pseudo-random block assignment.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58476d1ce4e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

impl Amg2006 {
    fn policies(&self, program: &Program) -> (PlacementPolicy, PlacementPolicy) {
        let domains = program.machine().topology().domains();
        // (blockable arrays, full-range vectors)
        match self.variant {
            AmgVariant::Baseline => (PlacementPolicy::FirstTouch, PlacementPolicy::FirstTouch),
            AmgVariant::InterleavedAll => (
                PlacementPolicy::interleave_all(domains),
                PlacementPolicy::interleave_all(domains),
            ),
            AmgVariant::Guided => (
                // Block-wise aligned with the thread binding: block t of
                // each array lands in thread t's domain — the "block-wise
                // distribution at the first touch place" of §8.2.
                program
                    .machine()
                    .blockwise_for_threads(program.num_threads()),
                PlacementPolicy::interleave_all(domains),
            ),
        }
    }

    fn setup(&self, program: &mut Program) -> Data {
        let (block_policy, vec_policy) = self.policies(program);
        let rows = self.rows;
        let nnz = self.nnz();
        let mut data = None;
        program.serial("main", |ctx| {
            let d = ctx.call("hypre_BoomerAMGSetup", |ctx| {
                let d = ctx.call("hypre_BoomerAMGBuildCoarseOperator", |ctx| Data {
                    rap_diag_i: ctx.alloc("RAP_diag_i", (rows + 1) * W, block_policy.clone()),
                    rap_diag_j: ctx.alloc("RAP_diag_j", nnz * W, block_policy.clone()),
                    rap_diag_data: ctx.alloc("RAP_diag_data", nnz * W, block_policy.clone()),
                    a_diag_i: ctx.alloc("A_diag_i", rows * W, block_policy.clone()),
                    p_diag_data: ctx.alloc("P_diag_data", rows * W, block_policy.clone()),
                    u: ctx.alloc("u", rows * W, vec_policy.clone()),
                    rhs: ctx.alloc("rhs", rows * W, vec_policy.clone()),
                });
                // Master-thread initialization: under first touch, this is
                // what binds every page to domain 0.
                ctx.call("hypre_CSRMatrixInitialize", |ctx| {
                    ctx.store_range(d.rap_diag_i, rows + 1, W as u32);
                    ctx.store_range(d.rap_diag_j, nnz, W as u32);
                    ctx.store_range(d.rap_diag_data, nnz, W as u32);
                    ctx.store_range(d.a_diag_i, rows, W as u32);
                    ctx.store_range(d.p_diag_data, rows, W as u32);
                    ctx.store_range(d.u, rows, W as u32);
                    ctx.store_range(d.rhs, rows, W as u32);
                });
                d
            });
            data = Some(d);
        });
        let data = data.unwrap();

        // Interpolation: each thread visits a *permuted* block of the
        // coarse operator plus a pseudo-random window — lightweight, but
        // enough that the whole-program address-centric view has no usable
        // pattern (Figure 4), while the relax region's view stays regular
        // (Figure 5).
        let nthreads = program.num_threads() as u64;
        program.parallel("hypre_BoomerAMGInterp._omp", |tid, ctx| {
            let tid = tid as u64;
            ctx.loop_scope("interp_loop", |ctx| {
                let len = (nnz / (nthreads * 4)).max(64).min(nnz);
                // A fixed permutation of thread→block breaks any
                // tid-monotone structure.
                let perm = (tid.wrapping_mul(5) + 3) % nthreads;
                let block_start = perm * (nnz / nthreads);
                let rand_start = mix(tid + 17) % (nnz - len);
                for lo in [block_start.min(nnz - len), rand_start] {
                    for k in (0..len).step_by(8) {
                        ctx.load(data.rap_diag_data + (lo + k) * W, 8);
                        ctx.load(data.rap_diag_j + (lo + k) * W, 8);
                    }
                    ctx.compute(len / 2);
                }
            });
        });
        data
    }

    /// One relax sweep: the dominant region
    /// (`hypre_boomerAMGRelax._omp`), with the indirect
    /// `RAP_diag_data[A_diag_i[i]]` access pattern of the paper.
    fn relax(&self, program: &mut Program, d: &Data) {
        let rows = self.rows;
        let n = program.num_threads() as u64;
        program.parallel("hypre_boomerAMGRelax._omp", |tid, ctx| {
            let (lo, hi) = block(rows, n, tid as u64);
            ctx.loop_scope("relax_row_loop", |ctx| {
                ctx.at_line(2855);
                for i in lo..hi {
                    // Row pointer.
                    ctx.load(d.rap_diag_i + i * W, 8);
                    // The indirection index.
                    ctx.load(d.a_diag_i + i * W, 8);
                    // Indirect base within this row's nonzero block: the
                    // value of A_diag_i[i] points at the row's data (the
                    // *address* pattern stays blocked even though the code
                    // pattern is indirect).
                    let base = i * NNZ + mix(i) % NNZ;
                    for k in 0..NNZ {
                        let j = (base + k) % (rows * NNZ);
                        ctx.load(d.rap_diag_j + j * W, 8);
                        ctx.load(d.rap_diag_data + j * W, 8);
                        // Stencil neighbour of u, near the diagonal.
                        let col = neighbour(i, k, rows);
                        ctx.load(d.u + col * W, 8);
                    }
                    ctx.load(d.p_diag_data + i * W, 8);
                    ctx.load(d.rhs + i * W, 8);
                    ctx.compute(24);
                    ctx.store(d.u + i * W, 8);
                }
                ctx.at_line(0);
            });
        });
    }

    /// One matvec: every thread sweeps the whole `u`/`rhs` vectors (a
    /// residual norm with a transposed access), producing the full-range
    /// pattern the paper fixes with interleaving.
    fn matvec(&self, program: &mut Program, d: &Data) {
        let rows = self.rows;
        let n = program.num_threads() as u64;
        program.parallel("hypre_ParCSRMatvec._omp", |tid, ctx| {
            ctx.loop_scope("matvec_loop", |ctx| {
                // Stride by a thread-dependent prime-ish step so every
                // thread covers the full vector with 1/8 density.
                let step = 8 + (tid as u64 % 3);
                let mut i = tid as u64 % step;
                ctx.at_line(1210);
                while i < rows {
                    ctx.load(d.u + i * W, 8);
                    ctx.load(d.rhs + i * W, 8);
                    ctx.compute(6);
                    i += step * 8;
                }
                ctx.at_line(0);
            });
            let _ = n;
        });
    }
}

/// Stencil column near the diagonal.
fn neighbour(i: u64, k: u64, rows: u64) -> u64 {
    let off = [0i64, 1, -1, 64, -64][(k % 5) as usize];
    let col = i as i64 + off;
    col.clamp(0, rows as i64 - 1) as u64
}

impl Workload for Amg2006 {
    fn name(&self) -> &'static str {
        "AMG2006"
    }

    fn execute(&self, program: &mut Program) -> WorkloadOutput {
        let mut out = WorkloadOutput::default();
        let mut data = None;
        timed_phase(program, &mut out, "setup", |p| {
            data = Some(self.setup(p));
        });
        let data = data.unwrap();
        timed_phase(program, &mut out, "solve", |p| {
            for _ in 0..self.iterations {
                self.relax(p, &data);
                self.matvec(p, &data);
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{run_profiled, run_unmonitored};
    use numa_analysis::{classify, AccessPattern, Analyzer};
    use numa_machine::{Machine, MachinePreset};
    use numa_profiler::{ProfilerConfig, RangeScope};
    use numa_sampling::{MechanismConfig, MechanismKind};
    use numa_sim::{ExecMode, FuncId};

    fn machine() -> Machine {
        Machine::from_preset(MachinePreset::AmdMagnyCours)
    }

    fn profiled(variant: AmgVariant, period: u64) -> Analyzer {
        let app = Amg2006::tiny(variant);
        let (_, _, profile) = run_profiled(
            &app,
            machine(),
            8,
            ExecMode::Sequential,
            ProfilerConfig::new(MechanismConfig::for_tests(MechanismKind::Ibs, period)),
        );
        Analyzer::new(profile)
    }

    fn region_id(a: &Analyzer, name: &str) -> FuncId {
        a.profile()
            .func_names
            .iter()
            .position(|n| n == name)
            .map(|i| FuncId(i as u32))
            .unwrap_or_else(|| panic!("region {name} not found"))
    }

    #[test]
    fn relax_region_pattern_is_blocked_but_program_is_not() {
        let a = profiled(AmgVariant::Baseline, 4);
        let var = a.profile().var_by_name("RAP_diag_data").unwrap().id;
        let relax = region_id(&a, "hypre_boomerAMGRelax._omp");
        let region_pattern = classify(&a.thread_ranges(var, RangeScope::Region(relax)));
        assert_eq!(
            region_pattern,
            AccessPattern::Blocked,
            "Figure 5: regular blocked pattern inside the relax region"
        );
        let program_pattern = classify(&a.thread_ranges(var, RangeScope::Program));
        assert_ne!(
            program_pattern,
            AccessPattern::Blocked,
            "Figure 4: the whole-program view hides the pattern"
        );
    }

    #[test]
    fn relax_region_dominates_rap_diag_data_cost() {
        let a = profiled(AmgVariant::Baseline, 4);
        let var = a.profile().var_by_name("RAP_diag_data").unwrap().id;
        let regions = a.var_regions(var);
        let (top, share) = regions[0];
        assert_eq!(a.profile().func_name(top), "hypre_boomerAMGRelax._omp");
        assert!(
            share > 0.5,
            "relax explains most of the cost, got {share:.2}"
        );
    }

    #[test]
    fn vectors_show_full_range_pattern_in_matvec() {
        let a = profiled(AmgVariant::Baseline, 2);
        let var = a.profile().var_by_name("rhs").unwrap().id;
        let mv = region_id(&a, "hypre_ParCSRMatvec._omp");
        let pattern = classify(&a.thread_ranges(var, RangeScope::Region(mv)));
        assert_eq!(pattern, AccessPattern::FullRange);
    }

    #[test]
    fn indirect_access_is_attributed_to_the_variable() {
        // The paper's point: code-centric analysis sees only
        // `RAP_diag_data[A_diag_i[i]]`; data-centric attribution still
        // resolves every sample to RAP_diag_data.
        let a = profiled(AmgVariant::Baseline, 8);
        let hot = a.hot_variables();
        assert!(hot.iter().any(|v| v.name == "RAP_diag_data"));
        let rap = hot.iter().find(|v| v.name == "RAP_diag_data").unwrap();
        assert!(rap.metrics.samples_mem > 0);
        assert!(rap.alloc_path.contains("hypre_BoomerAMGSetup"));
    }

    #[test]
    fn guided_beats_interleaved_beats_baseline_on_solve() {
        let solve = |variant| {
            let app = Amg2006::tiny(variant);
            let (_, out) = run_unmonitored(&app, machine(), 8, ExecMode::Sequential);
            out.phase("solve").unwrap()
        };
        let base = solve(AmgVariant::Baseline);
        let inter = solve(AmgVariant::InterleavedAll);
        let guided = solve(AmgVariant::Guided);
        assert!(inter < base, "interleave helps: {inter} vs {base}");
        assert!(guided < inter, "guided mix is best: {guided} vs {inter}");
    }

    #[test]
    fn guided_blocks_land_in_accessing_domains() {
        let m = machine();
        let app = Amg2006::tiny(AmgVariant::Guided);
        let (_, _, profile) = run_profiled(
            &app,
            m.clone(),
            8,
            ExecMode::Sequential,
            ProfilerConfig::new(MechanismConfig::for_tests(MechanismKind::Ibs, 64)),
        );
        let rap = profile.var_by_name("RAP_diag_data").unwrap();
        let hist = m.page_map().binding_histogram(rap.addr).unwrap();
        assert!(
            hist.iter().all(|&c| c > 0),
            "block-wise across all domains: {hist:?}"
        );
        let u = profile.var_by_name("u").unwrap();
        let uh = m.page_map().binding_histogram(u.addr).unwrap();
        let max = *uh.iter().max().unwrap();
        let min = *uh.iter().min().unwrap();
        assert!(max - min <= 1, "u interleaved evenly: {uh:?}");
    }
}
