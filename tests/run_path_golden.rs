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
//! The `routing` rows pin the cost path below the GA: for four contexts
//! (`paper_default` at n = 12 and n = 50, an n = 12 context with two
//! coincident PoPs, i.e. a zero-length edge, and an n = 12 context on an
//! integer grid, where equal-length paths tie; the seed column numbers
//! the context) and for the MST, the MST plus random edges, (at n = 12)
//! the clique and (on the grid) the grid graph, they digest `evaluate_total`, the `evaluate_parts`
//! breakdown and per-link loads, the `route_traffic` trees (dist and
//! parent), loads and `Σ t·L`, `weighted_diameter`, and the totals of a
//! 20-step `DeltaEval` mutation chain.
//!
//! The expected values are FNV-1a digests over the raw IEEE bits, so any
//! refactor of the run machinery that perturbs a single random draw or a
//! single floating-point operation fails here. Regenerate them only for
//! an intended behaviour change, by running this test with
//! `COLD_GOLDEN_PRINT=1` and copying the printed table.

use cold::context::rng::derive_seed;
use cold::context::{Context, ContextConfig, Point};
use cold::cost::{evaluate_parts, evaluate_total, CostParams, DeltaEval};
use cold::ga::{EarlyStop, EvalStats, StopReason};
use cold::graph::components::matrix_is_connected;
use cold::graph::metrics::weighted_diameter;
use cold::graph::mst::mst_matrix;
use cold::graph::routing::route_traffic;
use cold::graph::AdjacencyMatrix;
use cold::{ChangeCosts, ColdConfig, RunControl, RunMode, SynthesisMode, SynthesisResult};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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

/// Flips one random pair, retrying removals that would disconnect.
fn random_connected_flip(topo: &mut AdjacencyMatrix, rng: &mut StdRng) {
    loop {
        let pair = rng.gen_range(0..topo.pair_count());
        let had = topo.bit(pair);
        topo.set_bit(pair, !had);
        if !had || matrix_is_connected(topo) {
            return;
        }
        topo.set_bit(pair, true);
    }
}

/// Everything the cost path computes for `topology` in `ctx`, plus a
/// 20-step `DeltaEval` chain starting from it.
fn route_and_price(d: &mut Digest, ctx: &Context, topology: &AdjacencyMatrix, seed: u64) {
    let params = CostParams::paper(4e-4, 10.0);
    d.topology(topology);
    d.f64(evaluate_total(topology, ctx, &params).expect("evaluate_total"));
    let (parts, plan) = evaluate_parts(topology, ctx, &params).expect("evaluate_parts");
    for x in [parts.existence, parts.length, parts.bandwidth, parts.hub] {
        d.f64(x);
    }
    for &w in plan.load() {
        d.f64(w);
    }
    let g = topology.to_graph();
    let routing = route_traffic(&g, ctx.distance_fn(), ctx.traffic_fn()).expect("route_traffic");
    for tree in &routing.trees {
        for (&dist, &parent) in tree.dist.iter().zip(&tree.parent) {
            d.f64(dist);
            d.u64(parent as u64);
        }
    }
    for &w in &routing.load {
        d.f64(w);
    }
    d.f64(routing.traffic_weighted_route_length);
    d.f64(weighted_diameter(&g, ctx.distance_fn()).expect("weighted_diameter"));
    let mut session = DeltaEval::new(ctx, params);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut topo = topology.clone();
    for _ in 0..20 {
        let prev = topo.clone();
        random_connected_flip(&mut topo, &mut rng);
        d.f64(session.eval(&topo, Some(&prev)).expect("delta eval"));
    }
}

/// One digest per routing context (see the module docs).
fn routing_digests() -> Vec<(&'static str, u64, u64)> {
    let coincident = {
        let base = ContextConfig::paper_default(12).generate(3);
        let mut positions = base.positions.clone();
        positions[5] = positions[2];
        Context::new(positions, base.populations.clone(), base.traffic.clone())
    };
    // PoPs on a 4 × 3 integer grid: many equal-length shortest paths, so
    // the heap's `(dist, id)` order decides the trees.
    let lattice = {
        let base = ContextConfig::paper_default(12).generate(4);
        let positions = (0..12).map(|i| Point::new((i % 4) as f64 * 64.0, (i / 4) as f64 * 64.0));
        Context::new(positions.collect(), base.populations.clone(), base.traffic.clone())
    };
    let contexts = [
        ContextConfig::paper_default(12).generate(1),
        ContextConfig::paper_default(50).generate(2),
        coincident,
        lattice,
    ];
    let mut out = Vec::new();
    for (case, ctx) in (1u64..).zip(&contexts) {
        let n = ctx.n();
        let mst = mst_matrix(n, ctx.distance_fn());
        let mut extra = mst.clone();
        let mut rng = StdRng::seed_from_u64(case);
        for _ in 0..n / 2 {
            let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if u != v {
                extra.set_edge(u, v, true);
            }
        }
        let mut topologies = vec![mst, extra];
        if n == 12 {
            topologies.push(AdjacencyMatrix::complete(n));
        }
        if case == 4 {
            let grid: Vec<(usize, usize)> = (0..12)
                .flat_map(|v| [(v, v + 1), (v, v + 4)])
                .filter(|&(v, w)| w < 12 && (w == v + 4 || v % 4 != 3))
                .collect();
            topologies.push(AdjacencyMatrix::from_edges(12, &grid).expect("grid"));
        }
        let mut d = Digest::new();
        for (i, topology) in (0u64..).zip(&topologies) {
            route_and_price(&mut d, ctx, topology, case * 10 + i);
        }
        out.push(("routing", case, d.0));
    }
    out
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
    out.extend(routing_digests());
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
    ("routing", 1, 0x5e57410431a571d4),
    ("routing", 2, 0xe3879561bffabb73),
    ("routing", 3, 0x6f824ed66d24ae69),
    ("routing", 4, 0x44d6c017969cabf2),
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
