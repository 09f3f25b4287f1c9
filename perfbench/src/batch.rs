//! The batch workloads: synthesis calls on distinct seeded contexts.
//!
//! - `seeded_synth`: `ColdConfig::quick(50, 4e-4, 10)`, Initialized mode
//!   (heuristic seeding, then the GA), two calls at a time.
//! - `ga_large`: the same at n = 200 in `GaOnly` mode (no seeding).
//! - `pareto_front`: `try_synthesize_pareto` at n = 20, quick GA,
//!   archive 32.
//!
//! The traced run always makes one call at a time.

use crate::layers::{self, GaTally, GenClock, Layers};
use crate::spans::Tracer;
use crate::stats::{mean, median, ratio, timed, Outcome, SplitMix};
use cold::context::rng::derive_seed;
use cold::context::Context;
use cold::cost::{evaluate_total, CostEvaluator, Network};
use cold::ga::pareto::{dominates, hypervolume, non_dominated_sort, ParetoGa};
use cold::ga::{GaSettings, GeneticAlgorithm};
use cold::graph::{is_connected, AdjacencyMatrix};
use cold::heuristics::{complete_heuristic, greedy_attachment, mst_heuristic, random_greedy};
use cold::{
    ColdConfig, ColdMultiObjective, ColdObjective, NetworkStats, ParetoSynthesisResult,
    ProgressSink, SynthesisMode, SynthesisResult,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    SeededSynth,
    GaLarge,
    ParetoFront,
}

/// Archive bound of the Pareto workload.
pub const ARCHIVE: usize = 32;
/// Contexts generated per run; operation `i` uses context `i % POOL`.
const POOL: u64 = 32;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;

impl Kind {
    pub fn config(self) -> ColdConfig {
        match self {
            Kind::SeededSynth => ColdConfig::quick(50, 4e-4, 10.0),
            Kind::GaLarge => {
                ColdConfig { mode: SynthesisMode::GaOnly, ..ColdConfig::quick(200, 4e-4, 10.0) }
            }
            Kind::ParetoFront => ColdConfig::quick(20, 4e-4, 10.0),
        }
    }

    /// Syntheses an untraced run keeps in flight. Seeding is
    /// single-threaded and most of a `seeded_synth` synthesis, so one at a
    /// time leaves the second core idle; two at a time double the contexts
    /// a run covers, and per-context synthesis time varies threefold. The
    /// other workloads' GA evaluates on both cores already.
    fn load_threads(self) -> usize {
        match self {
            Kind::SeededSynth => 2,
            Kind::GaLarge | Kind::ParetoFront => 1,
        }
    }
}

/// One operation's input: a context, the synthesis seed it was derived
/// from (the same derivation `ColdConfig::try_synthesize` uses), and the
/// cost of the context's Euclidean MST.
struct Input {
    ctx: Context,
    seed: u64,
    mst_cost: f64,
}

/// Builds the configuration and the context pool, and prices each
/// context's MST — the reference `design_cost_ratio` divides by, and the
/// warm-up of the cost path.
fn setup(kind: Kind, seed: u64) -> (ColdConfig, Vec<Input>) {
    let cfg = kind.config();
    cfg.validate().expect("workload configuration is valid");
    let inputs: Vec<Input> = (0..POOL)
        .map(|i| {
            let s = derive_seed(seed, i);
            let ctx = cfg.context.generate(derive_seed(s, 0xC0));
            let mst_cost = mst_cost(&ctx, &cfg.params);
            Input { ctx, seed: s, mst_cost }
        })
        .collect();
    (cfg, inputs)
}

fn timed_setup(kind: Kind, seed: u64) -> (ColdConfig, Vec<Input>, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let (built, secs) = timed(|| setup(kind, seed));
        times.push(secs);
        last = Some(built);
    }
    let (cfg, inputs) = last.expect("at least one set-up");
    (cfg, inputs, median(&times))
}

enum Output {
    Scalar(Box<SynthesisResult>),
    Front(Box<ParetoSynthesisResult>),
}

fn run_op(kind: Kind, cfg: &ColdConfig, input: &Input) -> Result<Output, String> {
    let out = if kind == Kind::ParetoFront {
        cold::try_synthesize_pareto_in_context(cfg, input.ctx.clone(), input.seed, ARCHIVE, None)
            .map(|r| Output::Front(Box::new(r)))
    } else {
        cfg.try_synthesize_in_context(input.ctx.clone(), input.seed)
            .map(|r| Output::Scalar(Box::new(r)))
    };
    out.map_err(|e| format!("seed {}: {e}", input.seed))
}

/// Cost of the Euclidean minimum spanning tree on `ctx`: the reference
/// design `design_cost_ratio` divides by, which keeps the quality figure
/// comparable across contexts of different scale.
pub fn mst_cost(ctx: &Context, params: &cold::cost::CostParams) -> f64 {
    let mst = cold::graph::mst::mst_matrix(ctx.n(), |u, v| ctx.distance(u, v));
    evaluate_total(&mst, ctx, params).expect("a spanning tree is connected")
}

/// Output checks of a standard run: connected, best cost bit-equal to a
/// fresh `evaluate_total`, and (Initialized) no worse than any heuristic.
/// Returns the best cost.
fn check_scalar(cfg: &ColdConfig, r: &SynthesisResult) -> Result<f64, String> {
    let topology = &r.network.topology;
    if !is_connected(&topology.to_graph()) {
        return Err("synthesized network is disconnected".into());
    }
    let best = r.best_cost();
    let fresh = evaluate_total(topology, &r.context, &cfg.params).map_err(|e| e.to_string())?;
    if best.to_bits() != fresh.to_bits() {
        return Err(format!("reported cost {best} != fresh evaluate_total {fresh}"));
    }
    if cfg.mode == SynthesisMode::Initialized {
        if r.heuristic_costs.len() != 4 {
            return Err(format!("{} heuristic costs, expected 4", r.heuristic_costs.len()));
        }
        if let Some((name, c)) = r.heuristic_costs.iter().find(|(_, c)| best > *c) {
            return Err(format!("best cost {best} worse than heuristic {name} ({c})"));
        }
    }
    Ok(best)
}

/// Output checks of a Pareto run: a non-empty archive of at most
/// `ARCHIVE` mutually non-dominated members whose build costs match a
/// fresh evaluation, and a finite, non-decreasing hypervolume history.
/// Returns the cheapest member's cost.
fn check_front(cfg: &ColdConfig, r: &ParetoSynthesisResult) -> Result<f64, String> {
    if r.front.is_empty() || r.front.len() > ARCHIVE {
        return Err(format!("front holds {} members (1..={ARCHIVE} expected)", r.front.len()));
    }
    for (i, a) in r.front.iter().enumerate() {
        for b in &r.front[i + 1..] {
            if dominates(&a.objectives, &b.objectives) || dominates(&b.objectives, &a.objectives) {
                return Err("front members dominate each other".into());
            }
        }
        let fresh = evaluate_total(&a.network.topology, &r.context, &cfg.params)
            .map_err(|e| e.to_string())?;
        if fresh.to_bits() != a.objectives[0].to_bits() {
            return Err(format!("member cost {} != fresh {fresh}", a.objectives[0]));
        }
    }
    let h = &r.hypervolume_history;
    if h.is_empty() || h.iter().any(|v| !v.is_finite()) || h.windows(2).any(|w| w[1] < w[0]) {
        return Err("hypervolume history is not finite and non-decreasing".into());
    }
    Ok(r.cheapest().expect("front is non-empty").objectives[0])
}

fn check(cfg: &ColdConfig, out: &Output) -> Result<f64, String> {
    match out {
        Output::Scalar(r) => check_scalar(cfg, r),
        Output::Front(r) => check_front(cfg, r),
    }
}

/// What one load thread of an untraced run measured.
#[derive(Default)]
struct ThreadTally {
    attempted: u64,
    problems: Vec<String>,
    /// Seconds spent inside synthesis calls (output checks excluded).
    busy: f64,
    /// Per successful operation: wall seconds, best cost, cost / MST cost.
    ok: Vec<(f64, f64, f64)>,
    hvs: Vec<f64>,
}

/// The untraced run: end-to-end metrics only. Each load thread takes the
/// next input and synthesizes it until it has spent `seconds` inside
/// synthesis calls.
pub fn run(kind: Kind, seed: u64, seconds: f64) -> Outcome {
    let (cfg, inputs, setup_s) = timed_setup(kind, seed);
    let next = AtomicUsize::new(0);
    let load = || {
        let mut t = ThreadTally::default();
        while t.attempted == 0 || t.busy < seconds {
            let input = &inputs[next.fetch_add(1, Ordering::Relaxed) % inputs.len()];
            t.attempted += 1;
            let (out, secs) = timed(|| run_op(kind, &cfg, input));
            t.busy += secs;
            match out.and_then(|o| check(&cfg, &o).map(|c| (o, c))) {
                Ok((o, cost)) => {
                    t.ok.push((secs, cost, cost / input.mst_cost));
                    if let Output::Front(r) = o {
                        t.hvs.push(r.hypervolume());
                    }
                }
                Err(why) => t.problems.push(why),
            }
        }
        t
    };
    let tallies: Vec<ThreadTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..kind.load_threads()).map(|_| scope.spawn(load)).collect();
        handles.into_iter().map(|h| h.join().expect("load thread panicked")).collect()
    });

    let mut outcome = Outcome::default();
    let mut per_s = 0.0;
    let (mut lat, mut costs, mut cost_ratios, mut hvs) = (vec![], vec![], vec![], vec![]);
    for t in tallies {
        outcome.attempted += t.attempted;
        for why in t.problems {
            outcome.fail(why);
        }
        per_s += ratio(t.ok.len() as f64, t.busy);
        for (secs, cost, cost_ratio) in t.ok {
            lat.push(secs);
            costs.push(cost);
            cost_ratios.push(cost_ratio);
        }
        hvs.extend(t.hvs);
    }
    println!(
        "# workload ops={} ({} ok), n={}, {} at a time",
        outcome.attempted,
        lat.len(),
        cfg.context.n,
        kind.load_threads()
    );
    println!("# networks_per_s {per_s:.6} 1/s");
    println!("# synth_s_p50 {:.6} s (samples {})", median(&lat), lat.len());
    println!("# design_cost_mean {:.6} cost", mean(&costs));
    if kind == Kind::ParetoFront {
        println!("# front_hv_mean {:.6} hv", mean(&hvs));
    }
    println!("# failed_share {:.6} ratio", ratio(outcome.failed as f64, outcome.attempted as f64));
    outcome.push("setup_s", setup_s, "s");
    outcome.push("ops_per_s", per_s, "1/s");
    outcome.push("design_cost_ratio", mean(&cost_ratios), "ratio");
    outcome.push("peak_rss_mb", crate::stats::peak_rss_mb(), "MiB");
    outcome
}

/// Per-layer totals gathered over the operations of a traced run.
#[derive(Default)]
struct TracedTally {
    plain_s: f64,
    traced_s: f64,
    heuristic_evals: f64,
    fallbacks: usize,
    hv: Vec<f64>,
    ga: GaTally,
}

/// The traced run: per operation, (A) the untraced call, (B) the same
/// call with `cold-obs` timers on and a progress sink, (C) a replay of the
/// synthesis path layer by layer through the public functions, checked
/// bit-identical to (B), and (D) the layer probes on (B)'s network.
pub fn run_traced(kind: Kind, seed: u64, seconds: f64, tracer: &Tracer) -> Outcome {
    let mut outcome = Outcome::default();
    let (cfg, inputs) = setup(kind, seed);
    let mut tally = TracedTally::default();
    let mut rng = SplitMix(seed ^ 0x5EED);
    let start = std::time::Instant::now();
    let mut op = 0u64;
    while op == 0 || start.elapsed().as_secs_f64() < seconds {
        let input = &inputs[op as usize % inputs.len()];
        outcome.attempted += 1;
        let step = if kind == Kind::ParetoFront {
            traced_front(&cfg, input, op, tracer, &mut tally, &mut rng)
        } else {
            traced_scalar(&cfg, input, op, tracer, &mut tally, &mut rng)
        };
        cold_obs::set_timers_enabled(false);
        if let Err(why) = step {
            outcome.fail(why);
        }
        op += 1;
    }

    let mut layers = Layers::default();
    let synth = tracer.total("core.synthesize");
    for (metric, span) in [
        ("context.generate_s", "context.generate"),
        ("heuristics.random_greedy_s", "heuristics.random_greedy"),
        ("heuristics.complete_s", "heuristics.complete"),
        ("heuristics.mst_s", "heuristics.mst"),
        ("heuristics.greedy_attach_s", "heuristics.greedy_attach"),
        ("heuristics.all_s", "heuristics.all"),
        ("core.synthesize_s", "core.synthesize"),
        ("core.network_build_s", "core.network_build"),
        ("ga.nds_s", "ga.nds"),
        ("ga.hypervolume_s", "ga.hypervolume"),
    ] {
        layers.set_span_median(tracer, metric, span);
    }
    let ops = op.max(1) as f64;
    layers.set("heuristics.evals", tally.heuristic_evals / ops);
    tally.ga.run_s = tracer.total("ga.run");
    tally.ga.report(&mut layers);
    if kind == Kind::ParetoFront {
        layers.set("ga.front_hv_mean", mean(&tally.hv));
    }
    layers::report_probes(tracer, &mut layers, tally.fallbacks);
    let parts = tracer.total("context.generate")
        + tracer.total("heuristics.all")
        + tracer.total("ga.run")
        + tracer.total("core.network_build");
    layers.set("core.unattributed_share", ratio(synth - parts, synth));
    layers.set("core.heuristics_share", ratio(tracer.total("heuristics.all"), synth));
    layers.set("core.ga_eval_share", ratio(tally.ga.eval_s, synth));
    layers.set("obs.trace_overhead_share", ratio(tally.traced_s - tally.plain_s, tally.plain_s));
    layers.into_outcome(&mut outcome);
    outcome
}

/// A progress sink feeding a shared [`GenClock`].
fn clock_sink(clock: &Arc<Mutex<GenClock>>) -> ProgressSink {
    let clock = Arc::clone(clock);
    Arc::new(move |record| {
        use cold::ga::GenerationObserver as _;
        clock.lock().expect("clock lock").on_generation(record);
    })
}

/// The four heuristics in `all_heuristics` order, each in its own span.
fn traced_heuristics(
    cfg: &ColdConfig,
    eval: &CostEvaluator<'_>,
    seed: u64,
    op: u64,
    root: usize,
    tracer: &Tracer,
) -> Vec<(&'static str, cold::heuristics::HeuristicResult)> {
    tracer.span("heuristics.all", Some(root), op, |h| {
        let rg = tracer.span("heuristics.random_greedy", Some(h), op, |_| {
            random_greedy(eval, &cfg.random_greedy, derive_seed(seed, 0x4755))
        });
        let complete =
            tracer.span("heuristics.complete", Some(h), op, |_| complete_heuristic(eval));
        let mst = tracer.span("heuristics.mst", Some(h), op, |_| mst_heuristic(eval));
        let attach =
            tracer.span("heuristics.greedy_attach", Some(h), op, |_| greedy_attachment(eval));
        vec![
            ("random greedy", rg),
            ("complete", complete),
            ("mst", mst),
            ("greedy attachment", attach),
        ]
    })
}

fn ga_settings(cfg: &ColdConfig, seed: u64) -> GaSettings {
    GaSettings { seed: derive_seed(seed, 0x6741), ..cfg.ga }
}

fn traced_scalar(
    cfg: &ColdConfig,
    input: &Input,
    op: u64,
    tracer: &Tracer,
    tally: &mut TracedTally,
    rng: &mut SplitMix,
) -> Result<(), String> {
    let err = |e: cold::ColdError| format!("seed {}: {e}", input.seed);
    let (plain, plain_s) = timed(|| {
        tracer.span("core.synthesize_plain", None, op, |_| {
            cfg.try_synthesize_in_context(input.ctx.clone(), input.seed)
        })
    });
    let plain = plain.map_err(err)?;
    tally.plain_s += plain_s;

    cold_obs::set_timers_enabled(true);
    let clock = Arc::new(Mutex::new(GenClock::default()));
    let (traced, traced_s) = timed(|| {
        tracer.span("core.synthesize", None, op, |_| {
            cfg.try_synthesize_in_context_progress(
                input.ctx.clone(),
                input.seed,
                Some(clock_sink(&clock)),
            )
        })
    });
    let traced = traced.map_err(err)?;
    tally.traced_s += traced_s;
    check_scalar(cfg, &traced)?;
    if traced.network.topology != plain.network.topology {
        return Err("traced and untraced synthesis differ".into());
    }

    let replay = tracer.span("core.replay", None, op, |root| -> Result<Network, String> {
        let ctx = tracer.span("context.generate", Some(root), op, |_| {
            cfg.context.generate(derive_seed(input.seed, 0xC0))
        });
        if ctx != input.ctx {
            return Err("context generation is not deterministic".into());
        }
        let objective = ColdObjective::new(&ctx, cfg.params);
        let seeds: Vec<AdjacencyMatrix> = match cfg.mode {
            SynthesisMode::GaOnly => Vec::new(),
            SynthesisMode::Initialized => {
                let before = layers::evaluate_total_calls();
                let hs =
                    traced_heuristics(cfg, objective.evaluator(), input.seed, op, root, tracer);
                tally.heuristic_evals += (layers::evaluate_total_calls() - before) as f64;
                for ((name, h), (want_name, want)) in hs.iter().zip(&traced.heuristic_costs) {
                    if name != want_name || h.cost.to_bits() != want.to_bits() {
                        return Err(format!("replayed heuristic {name} differs"));
                    }
                }
                hs.into_iter().map(|(_, h)| h.topology).collect()
            }
        };
        let engine = GeneticAlgorithm::try_new(&objective, ga_settings(cfg, input.seed))
            .map_err(|e| e.to_string())?;
        let mut clock = GenClock::default();
        let ga = tracer
            .span("ga.run", Some(root), op, |_| engine.try_run_traced(&seeds, Some(&mut clock)))
            .map_err(|e| e.to_string())?;
        tally.ga.add_clock(&clock);
        tally.ga.add_stats(ga.evaluations, &ga.eval_stats, ga.repair_stats.repair_rate());
        tracer.span("core.network_build", Some(root), op, |_| {
            let net = Network::build(ga.best.topology.clone(), &ctx, cfg.params)
                .map_err(|e| e.to_string())?;
            NetworkStats::compute(&net.graph()).map_err(|e| e.to_string())?;
            Ok(net)
        })
    })?;
    if replay.topology != traced.network.topology
        || replay.total_cost().to_bits() != traced.best_cost().to_bits()
    {
        return Err("layer-by-layer replay differs from the synthesis call".into());
    }
    cold_obs::set_timers_enabled(false);
    tally.fallbacks +=
        layers::probe_network(tracer, op, &traced.network, &traced.context, cfg.params, rng)?;
    Ok(())
}

fn traced_front(
    cfg: &ColdConfig,
    input: &Input,
    op: u64,
    tracer: &Tracer,
    tally: &mut TracedTally,
    rng: &mut SplitMix,
) -> Result<(), String> {
    let err = |e: cold::ColdError| format!("seed {}: {e}", input.seed);
    let synth = |progress| {
        cold::try_synthesize_pareto_in_context(
            cfg,
            input.ctx.clone(),
            input.seed,
            ARCHIVE,
            progress,
        )
    };
    let (plain, plain_s) =
        timed(|| tracer.span("core.synthesize_plain", None, op, |_| synth(None)));
    let plain = plain.map_err(err)?;
    tally.plain_s += plain_s;

    cold_obs::set_timers_enabled(true);
    let clock = Arc::new(Mutex::new(GenClock::default()));
    let (traced, traced_s) =
        timed(|| tracer.span("core.synthesize", None, op, |_| synth(Some(clock_sink(&clock)))));
    let traced = traced.map_err(err)?;
    tally.traced_s += traced_s;
    check_front(cfg, &traced)?;
    let objectives = |r: &ParetoSynthesisResult| -> Vec<Vec<f64>> {
        r.front.iter().map(|m| m.objectives.clone()).collect()
    };
    if objectives(&plain) != objectives(&traced) {
        return Err("traced and untraced Pareto fronts differ".into());
    }
    tally.hv.push(traced.hypervolume());

    let front = tracer.span("core.replay", None, op, |root| -> Result<Vec<Vec<f64>>, String> {
        let ctx = tracer.span("context.generate", Some(root), op, |_| {
            cfg.context.generate(derive_seed(input.seed, 0xC0))
        });
        let objective = ColdMultiObjective::new(&ctx, cfg.params);
        let seeds: Vec<AdjacencyMatrix> = match cfg.mode {
            SynthesisMode::GaOnly => Vec::new(),
            SynthesisMode::Initialized => {
                let eval = CostEvaluator::new(&ctx, cfg.params);
                let before = layers::evaluate_total_calls();
                let hs = traced_heuristics(cfg, &eval, input.seed, op, root, tracer);
                tally.heuristic_evals += (layers::evaluate_total_calls() - before) as f64;
                hs.into_iter().map(|(_, h)| h.topology).collect()
            }
        };
        let engine = ParetoGa::try_new(&objective, ga_settings(cfg, input.seed), ARCHIVE)
            .map_err(|e| e.to_string())?;
        let mut clock = GenClock::default();
        let result = tracer
            .span("ga.run", Some(root), op, |_| engine.try_run_traced(&seeds, Some(&mut clock)))
            .map_err(|e| e.to_string())?;
        tally.ga.add_clock(&clock);
        tally.ga.add_stats(
            result.evaluations,
            &result.eval_stats,
            result.repair_stats.repair_rate(),
        );
        tracer.span("core.network_build", Some(root), op, |_| {
            for p in &result.front {
                Network::build(p.topology.clone(), &ctx, cfg.params).map_err(|e| e.to_string())?;
            }
            Ok::<(), String>(())
        })?;
        let objs: Vec<Vec<f64>> = result.front.iter().map(|p| p.objectives.clone()).collect();
        let fronts = tracer.span("ga.nds", None, op, |_| non_dominated_sort(&objs));
        if fronts.len() != 1 {
            return Err(format!("archive splits into {} non-dominated fronts", fronts.len()));
        }
        let hv = tracer.span("ga.hypervolume", None, op, |_| hypervolume(&objs, &result.reference));
        if hv.to_bits() != traced.hypervolume().to_bits() {
            return Err(format!("replayed hypervolume {hv} != {}", traced.hypervolume()));
        }
        Ok(objs)
    })?;
    if front != objectives(&traced) {
        return Err("layer-by-layer replay differs from the synthesis call".into());
    }
    cold_obs::set_timers_enabled(false);
    let cheapest = traced.cheapest().expect("checked non-empty");
    tally.fallbacks +=
        layers::probe_network(tracer, op, &cheapest.network, &traced.context, cfg.params, rng)?;
    Ok(())
}
