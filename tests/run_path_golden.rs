//! Golden pins for every synthesis run path.
//!
//! For n = 12 and seeds 1–3 this fixes, bit for bit, what each mode
//! produces: the best topology, the `best_cost_history` and the
//! `heuristic_costs` of standard Initialized, standard GaOnly and warm
//! (uniform unit change costs, warm-started from the standard result)
//! runs, plus the front objectives, front topologies and
//! `hypervolume_history` of a Pareto run with an archive of 8.
//!
//! The expected values are FNV-1a digests over the raw IEEE bits, so any
//! refactor of the run machinery that perturbs a single random draw or a
//! single floating-point operation fails here. Regenerate them only for
//! an intended behaviour change, by running this test with
//! `COLD_GOLDEN_PRINT=1` and copying the printed table.

use cold::context::rng::derive_seed;
use cold::graph::AdjacencyMatrix;
use cold::{ChangeCosts, ColdConfig, RunControl, RunMode, SynthesisMode, SynthesisResult};

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
    d.0
}

fn config(mode: SynthesisMode) -> ColdConfig {
    ColdConfig { mode, ..ColdConfig::quick(12, 4e-4, 10.0) }
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

        let cfg = config(SynthesisMode::Initialized);
        let ctx = cfg.context.generate(derive_seed(seed, 0xC0));
        let pareto =
            cold::try_synthesize_pareto_in_context(&cfg, ctx, seed, 8, None).expect("pareto");
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
        out.push(("pareto", seed, d.0));
    }
    out
}

const EXPECTED: &[(&str, u64, u64)] = &[
    ("standard", 1, 0x81de6f26598d2634),
    ("ga_only", 1, 0xd54180e9fd679ec1),
    ("warm", 1, 0x1a177d190420c7a5),
    ("pareto", 1, 0xf2bb43fe041fdebb),
    ("standard", 2, 0xe4d5cd52a7cc5c0e),
    ("ga_only", 2, 0xf5872517b1c6108e),
    ("warm", 2, 0x676493ab5e55d829),
    ("pareto", 2, 0x9249c36f5e28981c),
    ("standard", 3, 0x1a0732da79fab5e1),
    ("ga_only", 3, 0xb11c2e1b73f454a8),
    ("warm", 3, 0xf7683e8e23bb403c),
    ("pareto", 3, 0xaee80658111f3c27),
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
