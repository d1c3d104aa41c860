//! The shared input: eight base profiles measured in-process, and any number
//! of seeded same-shape variants of them. A variant differs from its base
//! only in sample counts, so it costs the same to decode, index and render,
//! but hashes to its own `ProfileId` and is never deduplicated.

use numa_analysis::Analyzer;
use numa_profiler::{MetricSet, NumaProfile, ProfilerConfig};
use numa_sampling::MechanismConfig;
use numa_sim::ExecMode;
use numa_tools::{parse_machine, parse_mechanism, parse_workload};
use numa_workloads::run_profiled;

pub const APPS: [&str; 4] = ["lulesh", "amg2006", "blackscholes", "umt2013"];
/// The mechanism each mini-app is measured with in a `pipeline` round. At
/// medium size pebs-ll and soft-ibs take 0–1 samples on three of the four
/// mini-apps, so they are left out.
pub const PIPELINE_MECHANISMS: [&str; 4] = ["ibs", "mrk", "dear", "pebs"];
/// The two mechanisms each mini-app is measured with for the corpus bases.
const BASE_MECHANISMS: [&str; 2] = ["ibs", "mrk"];

pub const THREADS: usize = 16;
const PERIOD_SCALE: u64 = 64;
const BINS: u16 = 5;

/// SplitMix64: the one generator behind every seeded choice of the benchmark.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias is far below anything measured).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One monitored run of a mini-app, exactly as `hpcrun-sim --size SIZE
/// --threads 16 --mechanism MECH` performs it.
pub fn measure(app: &str, mechanism: &str, size: &str) -> (numa_sim::ProgramStats, NumaProfile) {
    let workload = parse_workload(app, "baseline", size).expect("bundled workload");
    let machine = parse_machine("amd").expect("amd preset");
    let kind = parse_mechanism(mechanism).expect("known mechanism");
    let config = ProfilerConfig::new(MechanismConfig::scaled(kind, PERIOD_SCALE)).with_bins(BINS);
    let (stats, _, profile) = run_profiled(
        workload.as_ref(),
        machine,
        THREADS,
        ExecMode::Sequential,
        config,
    );
    (stats, profile)
}

pub struct Base {
    pub name: String,
    pub profile: NumaProfile,
    /// Source name of the variable with the highest remote cost: the target
    /// of address-view queries.
    pub hot_var: String,
}

pub struct Corpus {
    pub seed: u64,
    pub bases: Vec<Base>,
}

/// A variant ready to send: what the daemon is given and what it must answer.
pub struct Variant {
    pub label: String,
    pub bytes: Vec<u8>,
}

impl Corpus {
    /// Measure the eight bases (4 mini-apps × {ibs, mrk}) at `size`.
    pub fn measure(seed: u64, size: &str) -> Corpus {
        let mut bases = Vec::new();
        for app in APPS {
            for mechanism in BASE_MECHANISMS {
                let (_, profile) = measure(app, mechanism, size);
                let hot_var = Analyzer::new(profile.clone())
                    .hot_variables()
                    .first()
                    .map(|v| v.name.clone())
                    .expect("every base samples at least one variable");
                bases.push(Base {
                    name: format!("{app}-{mechanism}"),
                    profile,
                    hot_var,
                });
            }
        }
        Corpus { seed, bases }
    }

    /// The base variant `k` is derived from. Variants `k` and `k + bases`
    /// share a base, which is what a diff query pairs up.
    pub fn base_of(&self, k: usize) -> &Base {
        &self.bases[k % self.bases.len()]
    }

    /// Variant `k`: its base with every per-variable, per-thread and
    /// per-range sample count raised by a small seeded amount.
    pub fn variant_profile(&self, k: usize) -> NumaProfile {
        let mut rng = Rng::new(self.seed ^ (k as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f));
        let mut p = self.base_of(k).profile.clone();
        for t in &mut p.threads {
            let home = t.domain.index();
            bump(&mut t.totals, home, &mut rng);
            for (_, m) in &mut t.var_metrics {
                bump(m, home, &mut rng);
            }
            for (_, r) in &mut t.ranges {
                r.count += rng.next() % 4;
            }
        }
        p
    }

    pub fn label(&self, k: usize) -> String {
        format!("{}-v{k}", self.base_of(k).name)
    }

    pub fn variant(&self, k: usize) -> Variant {
        Variant {
            label: self.label(k),
            bytes: numa_codec::encode_profile(&self.variant_profile(k)),
        }
    }
}

fn bump(m: &mut MetricSet, home: usize, rng: &mut Rng) {
    let local = rng.next() % 4;
    let remote = rng.next() % 4;
    m.m_local += local;
    m.m_remote += remote;
    m.samples_mem += local + remote;
    m.samples_instr += local + remote;
    m.loads += local + remote;
    let domains = m.per_domain.len();
    if domains > 0 {
        m.per_domain[home % domains] += local;
        m.per_domain[(home + 1) % domains] += remote;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_store::ProfileId;
    use std::sync::OnceLock;

    fn variant_id(c: &Corpus, k: usize) -> ProfileId {
        ProfileId::of(&c.variant_profile(k)).0
    }

    /// Small bases: the generator's properties do not depend on size, and the
    /// medium runs are slow in a debug build.
    fn corpus(seed: u64) -> Corpus {
        static BASES: OnceLock<Vec<(String, NumaProfile, String)>> = OnceLock::new();
        let bases = BASES.get_or_init(|| {
            Corpus::measure(0, "small")
                .bases
                .into_iter()
                .map(|b| (b.name, b.profile, b.hot_var))
                .collect()
        });
        Corpus {
            seed,
            bases: bases
                .iter()
                .map(|(name, profile, hot_var)| Base {
                    name: name.clone(),
                    profile: profile.clone(),
                    hot_var: hot_var.clone(),
                })
                .collect(),
        }
    }

    fn zero_counts(p: &mut NumaProfile) {
        let zero = |m: &mut MetricSet| {
            m.m_local = 0;
            m.m_remote = 0;
            m.samples_mem = 0;
            m.samples_instr = 0;
            m.loads = 0;
            m.per_domain.iter_mut().for_each(|d| *d = 0);
        };
        for t in &mut p.threads {
            zero(&mut t.totals);
            for (_, m) in &mut t.var_metrics {
                zero(m);
            }
            for (_, r) in &mut t.ranges {
                r.count = 0;
            }
        }
    }

    #[test]
    fn same_seed_gives_byte_identical_variants_and_ids() {
        let (a, b) = (corpus(7), corpus(7));
        for k in [0, 1, 8, 1023] {
            assert_eq!(a.variant(k).bytes, b.variant(k).bytes);
            assert_eq!(a.variant(k).label, b.variant(k).label);
            assert_eq!(variant_id(&a, k), variant_id(&b, k));
        }
    }

    #[test]
    fn another_seed_or_index_gives_another_id() {
        let (a, b) = (corpus(7), corpus(8));
        let mut ids: Vec<ProfileId> = (0..64).map(|k| variant_id(&a, k)).collect();
        ids.extend((0..64).map(|k| variant_id(&b, k)));
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 128, "variants must never deduplicate");
    }

    #[test]
    fn variants_differ_from_their_base_only_in_counts() {
        let c = corpus(3);
        for k in 0..c.bases.len() {
            let mut v = c.variant_profile(k);
            let mut base = c.base_of(k).profile.clone();
            assert_ne!(v.to_json(), base.to_json());
            zero_counts(&mut v);
            zero_counts(&mut base);
            assert_eq!(v.to_json(), base.to_json(), "{}", c.base_of(k).name);
        }
    }

    #[test]
    fn a_variant_survives_the_codec_and_keeps_its_id() {
        let c = corpus(3);
        let decoded = numa_codec::decode_profile(&c.variant(5).bytes).expect("decodes");
        assert_eq!(ProfileId::of(&decoded).0, variant_id(&c, 5));
    }

    #[test]
    fn every_base_names_a_hot_variable_it_holds() {
        for b in corpus(1).bases {
            assert!(b.profile.var_by_name(&b.hot_var).is_some(), "{}", b.name);
        }
    }
}
