//! Golden pins for every synthesis run path.
//!
//! For n = 12 and seeds 1–3 this fixes, bit for bit, what each mode
//! produces: the best topology, the `best_cost_history` and the
//! `heuristic_costs` of standard Initialized, standard GaOnly and warm
//! (uniform unit change costs, warm-started from the standard result)
//! runs, plus the front objectives, front topologies and
//! `hypervolume_history` of a Pareto run with an archive of 8. Every
//! digest also covers `generations_run`, `stop_reason`, the
//! deterministic evaluation counters (`requested`, `cache_hits`,
//! `cache_misses`) and the repair count (scalar runs expose it as
//! `repair_rate`, a fixed-denominator ratio; Pareto runs as the sum of
//! the per-generation `repairs`). The machine-dependent
//! `delta_evals`/`full_evals` split is left out.
//!
//! The `*_guarded` variants rerun GaOnly and Pareto with both stop
//! guards (`stall_gens`, `early_stop`), the pruned mutation universe
//! (`mutation_neighbors`) and the fitness cache off.
//!
//! The expected values are FNV-1a digests over the raw IEEE bits, so any
//! refactor of the run machinery that perturbs a single random draw or a
//! single floating-point operation fails here. Regenerate them only for
//! an intended behaviour change, by running this test with
//! `COLD_GOLDEN_PRINT=1` and copying the printed table.

use cold::context::rng::derive_seed;
use cold::ga::{EarlyStop, EvalStats, StopReason};
use cold::graph::AdjacencyMatrix;
use cold::{ChangeCosts, ColdConfig, RunControl, RunMode, SynthesisMode, SynthesisResult};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// 64-bit FNV-1a, fed field by field.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    /// The run-shape fields every digest covers.
    fn run(&mut self, generations_run: usize, stop_reason: StopReason, stats: &EvalStats) {
        self.u64(generations_run as u64);
        self.bytes(stop_reason.as_str().as_bytes());
        self.u64(stats.requested as u64);
        self.u64(stats.cache_hits as u64);
        self.u64(stats.cache_misses as u64);
    }
    fn topology(&mut self, t: &AdjacencyMatrix) {
        self.u64(t.n() as u64);
        for (u, v) in t.edges() {
            self.u64(u as u64);
            self.u64(v as u64);
        }
    }
}

fn scalar_digest(r: &SynthesisResult) -> u64 {
    let mut d = Digest::new();
    d.topology(&r.network.topology);
    d.u64(r.best_cost_history.len() as u64);
    for &c in &r.best_cost_history {
        d.f64(c);
    }
    d.u64(r.heuristic_costs.len() as u64);
    for (name, cost) in &r.heuristic_costs {
        d.bytes(name.as_bytes());
        d.f64(*cost);
    }
    d.run(r.generations_run, r.stop_reason, &r.eval_stats);
    d.f64(r.repair_rate);
    d.0
}

fn pareto_digest(cfg: &ColdConfig, seed: u64) -> u64 {
    let ctx = cfg.context.generate(derive_seed(seed, 0xC0));
    let repairs = Arc::new(AtomicUsize::new(0));
    let sum = Arc::clone(&repairs);
    let progress: cold::ProgressSink = Arc::new(move |rec: &cold::ga::GenerationRecord| {
        sum.fetch_add(rec.repairs, Ordering::Relaxed);
    });
    let pareto =
        cold::try_synthesize_pareto_in_context(cfg, ctx, seed, 8, Some(progress)).expect("pareto");
    let mut d = Digest::new();
    d.u64(pareto.front.len() as u64);
    for m in &pareto.front {
        d.topology(&m.network.topology);
        for &x in &m.objectives {
            d.f64(x);
        }
    }
    d.u64(pareto.hypervolume_history.len() as u64);
    for &h in &pareto.hypervolume_history {
        d.f64(h);
    }
    d.run(pareto.generations_run, pareto.stop_reason, &pareto.eval_stats);
    d.u64(repairs.load(Ordering::Relaxed) as u64);
    d.0
}

fn config(mode: SynthesisMode) -> ColdConfig {
    ColdConfig { mode, ..ColdConfig::quick(12, 4e-4, 10.0) }
}

/// Both stop guards, the pruned mutation universe and no fitness cache.
fn guarded(mode: SynthesisMode) -> ColdConfig {
    let mut cfg = config(mode);
    cfg.ga.stall_gens = Some(3);
    cfg.ga.early_stop = Some(EarlyStop { window: 5, rel_tol: 1e-3 });
    cfg.ga.mutation_neighbors = Some(6);
    cfg.ga.fitness_cache = false;
    cfg
}

/// `(label, seed, digest)` for every pinned run, in a fixed order.
fn digests() -> Vec<(&'static str, u64, u64)> {
    let mut out = Vec::new();
    for seed in 1..=3u64 {
        let standard = config(SynthesisMode::Initialized).try_synthesize(seed).expect("standard");
        out.push(("standard", seed, scalar_digest(&standard)));

        let ga_only = config(SynthesisMode::GaOnly).try_synthesize(seed).expect("ga-only");
        out.push(("ga_only", seed, scalar_digest(&ga_only)));

        let warm = cold::try_synthesize_warm(
            &config(SynthesisMode::Initialized),
            &standard.network.topology,
            ChangeCosts::uniform(1.0),
            seed,
            None,
            None,
            None,
        )
        .expect("warm");
        out.push(("warm", seed, scalar_digest(&warm)));

        out.push(("pareto", seed, pareto_digest(&config(SynthesisMode::Initialized), seed)));

        let guarded_ga = guarded(SynthesisMode::GaOnly).try_synthesize(seed).expect("guarded");
        out.push(("ga_only_guarded", seed, scalar_digest(&guarded_ga)));
        let cfg = guarded(SynthesisMode::Initialized);
        out.push(("pareto_guarded", seed, pareto_digest(&cfg, seed)));
    }
    out
}

const EXPECTED: &[(&str, u64, u64)] = &[
    ("standard", 1, 0xda8a5eb7ed87e649),
    ("ga_only", 1, 0x97ea3995088ab6b7),
    ("warm", 1, 0xd8c892f727151c5b),
    ("pareto", 1, 0x728c8801dc8f2fed),
    ("ga_only_guarded", 1, 0x308eac944acd489a),
    ("pareto_guarded", 1, 0x8f2de3cbe62db90c),
    ("standard", 2, 0xd8ed9c105aecfd3c),
    ("ga_only", 2, 0x0da02c7ec2de7229),
    ("warm", 2, 0xa1faa2b168ac2455),
    ("pareto", 2, 0xe41c9c1baaa2d297),
    ("ga_only_guarded", 2, 0x50ddffef2b18db33),
    ("pareto_guarded", 2, 0x5543c9292e6b59ee),
    ("standard", 3, 0xc8c43d456f9204b5),
    ("ga_only", 3, 0x065ef60dbd0c6ae8),
    ("warm", 3, 0x9a42db6ea2f46de1),
    ("pareto", 3, 0x2f65cda960be66ce),
    ("ga_only_guarded", 3, 0x5621ac605a9a2129),
    ("pareto_guarded", 3, 0x9ce8486db1b49341),
];

#[test]
fn every_run_path_matches_its_golden_digest() {
    let got = digests();
    if std::env::var_os("COLD_GOLDEN_PRINT").is_some() {
        for (label, seed, digest) in &got {
            println!("    (\"{label}\", {seed}, {digest:#018x}),");
        }
    }
    assert_eq!(got, EXPECTED, "a run path's output changed");
}

/// `RunMode::Resilient { bridge_cost: 0 }` is the standard run, bit for
/// bit, in both seeding modes: same heuristic stream, same GA stream,
/// same objective values.
#[test]
fn resilient_with_zero_bridge_cost_is_the_standard_run() {
    let runs: Vec<(SynthesisMode, u64)> = [SynthesisMode::Initialized, SynthesisMode::GaOnly]
        .into_iter()
        .flat_map(|mode| (0..=5u64).map(move |seed| (mode, seed)))
        .collect();
    std::thread::scope(|scope| {
        for chunk in runs.chunks(runs.len() / 2) {
            scope.spawn(move || {
                for &(mode, seed) in chunk {
                    let cfg = ColdConfig { mode, ..ColdConfig::quick(30, 4e-4, 10.0) };
                    let standard = cfg.try_synthesize(seed).expect("standard");
                    let resilient = RunMode::Resilient { bridge_cost: 0.0 };
                    let r = cfg.try_run(seed, None, resilient, RunControl::default()).unwrap();
                    let what = format!("{mode:?} seed {seed}");
                    assert_eq!(r.network.topology, standard.network.topology, "{what}");
                    let bits = |h: &[f64]| h.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&r.best_cost_history),
                        bits(&standard.best_cost_history),
                        "{what}"
                    );
                    assert_eq!(r.heuristic_costs, standard.heuristic_costs, "{what}");
                }
            });
        }
    });
}
