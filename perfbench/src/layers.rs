//! The per-layer metric table of the traced run, and the probes every
//! workload runs on the networks it produced.
//!
//! Every traced run prints every metric of [`PER_LAYER`]; a layer the
//! workload does not exercise reads 0 (for example `heuristics.*` on
//! `ga_large`, which bypasses seeding, or `serve.*` on the batch
//! workloads).

use crate::spans::Tracer;
use crate::stats::{median, SplitMix};
use cold::context::Context;
use cold::cost::{evaluate_total, CostParams, DeltaEval, Network};
use cold::ga::pareto::MultiObjective as _;
use cold::ga::{GenerationObserver, GenerationRecord};
use cold::graph::{is_connected, AdjacencyMatrix};
use std::collections::BTreeMap;
use std::time::Instant;

/// Every per-layer metric, named by crate/module, with its unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("context.generate_s", "s"),
    ("graph.apsp_s", "s"),
    ("graph.route_traffic_s", "s"),
    ("cost.evaluate_total_s", "s"),
    ("cost.delta_step_s", "s"),
    ("cost.delta_fallback_share", "ratio"),
    ("heuristics.random_greedy_s", "s"),
    ("heuristics.complete_s", "s"),
    ("heuristics.mst_s", "s"),
    ("heuristics.greedy_attach_s", "s"),
    ("heuristics.all_s", "s"),
    ("heuristics.evals", "count"),
    ("ga.run_s", "s"),
    ("ga.generation_s_p50", "s"),
    ("ga.eval_s", "s"),
    ("ga.breed_s", "s"),
    ("ga.repair_s", "s"),
    ("ga.evaluations", "count"),
    ("ga.cache_hit_ratio", "ratio"),
    ("ga.delta_share", "ratio"),
    ("ga.repair_rate", "ratio"),
    ("ga.nds_s", "s"),
    ("ga.hypervolume_s", "s"),
    ("ga.front_hv_mean", "hv"),
    ("core.synthesize_s", "s"),
    ("core.network_build_s", "s"),
    ("core.warm_synth_s", "s"),
    ("core.pareto_objectives_s", "s"),
    ("core.link_failures_s", "s"),
    ("core.unattributed_share", "ratio"),
    ("core.heuristics_share", "ratio"),
    ("core.ga_eval_share", "ratio"),
    ("serve.healthz_s", "s"),
    ("serve.submit_cold_s", "s"),
    ("serve.submit_hit_s", "s"),
    ("serve.submit_dedup_s", "s"),
    ("serve.queue_wait_s", "s"),
    ("serve.job_run_s", "s"),
    ("serve.job_run_share", "ratio"),
    ("serve.spec_parse_s", "s"),
    ("serve.fingerprint_s", "s"),
    ("serve.cache_lookup_s", "s"),
    ("serve.cache_store_s", "s"),
    ("serve.hit_ratio", "ratio"),
    ("serve.dedup_ratio", "ratio"),
    ("serve.warm_ratio", "ratio"),
    ("serve.rejections", "count"),
    ("serve.retries", "count"),
    ("serve.hit_s_p50", "s"),
    ("serve.hit_s_p90", "s"),
    ("serve.job_s_p50", "s"),
    ("serve.job_s_p90", "s"),
    ("obs.trace_overhead_share", "ratio"),
];

/// Per-layer values of one traced run; unset metrics print as 0.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "unknown metric {name}");
        self.0.insert(name, value);
    }

    /// Sets `name` to the median duration of the spans called `span`.
    pub fn set_span_median(&mut self, tracer: &Tracer, name: &'static str, span: &str) {
        self.set(name, median(&tracer.durations(span)));
    }

    pub fn into_outcome(self, outcome: &mut crate::stats::Outcome) {
        for (name, unit) in PER_LAYER {
            outcome.push(name, self.0.get(name).copied().unwrap_or(0.0), unit);
        }
    }
}

/// Number of `cost.evaluate_total` calls recorded so far by the
/// `cold-obs` registry (counted only while its timers are enabled).
pub fn evaluate_total_calls() -> u64 {
    cold_obs::snapshot().into_iter().find(|(name, _)| name == "cost.evaluate_total").map_or(
        0,
        |(_, m)| match m {
            cold_obs::Metric::Histogram { count, .. } => count,
            _ => 0,
        },
    )
}

/// The benchmark's own generation observer: keeps every record and the
/// wall-clock interval between consecutive callbacks.
#[derive(Default)]
pub struct GenClock {
    last: Option<Instant>,
    pub intervals: Vec<f64>,
    pub records: Vec<GenerationRecord>,
}

impl GenerationObserver for GenClock {
    fn on_generation(&mut self, record: &GenerationRecord) {
        let now = Instant::now();
        if let Some(last) = self.last {
            self.intervals.push((now - last).as_secs_f64());
        }
        self.last = Some(now);
        self.records.push(record.clone());
    }
}

/// GA figures summed over the synthesis runs of a traced run.
#[derive(Default)]
pub struct GaTally {
    pub runs: usize,
    pub run_s: f64,
    pub intervals: Vec<f64>,
    pub eval_s: f64,
    pub breed_s: f64,
    pub repair_s: f64,
    pub evaluations: f64,
    pub cache_hits: f64,
    pub cache_misses: f64,
    pub delta_evals: f64,
    pub repair_rate: f64,
}

impl GaTally {
    pub fn add_clock(&mut self, clock: &GenClock) {
        self.intervals.extend_from_slice(&clock.intervals);
        for r in &clock.records {
            self.eval_s += r.eval_seconds;
            self.breed_s += r.breed_seconds;
            self.repair_s += r.repair_seconds;
        }
    }

    pub fn add_stats(&mut self, evaluations: usize, stats: &cold::ga::EvalStats, repair_rate: f64) {
        self.runs += 1;
        self.evaluations += evaluations as f64;
        self.cache_hits += stats.cache_hits as f64;
        self.cache_misses += stats.cache_misses as f64;
        self.delta_evals += stats.delta_evals as f64;
        self.repair_rate += repair_rate;
    }

    /// Per-run means (counts, phase seconds) and pooled ratios.
    pub fn report(&self, layers: &mut Layers) {
        let runs = self.runs.max(1) as f64;
        layers.set("ga.run_s", self.run_s / runs);
        layers.set("ga.generation_s_p50", median(&self.intervals));
        layers.set("ga.eval_s", self.eval_s / runs);
        layers.set("ga.breed_s", self.breed_s / runs);
        layers.set("ga.repair_s", self.repair_s / runs);
        layers.set("ga.evaluations", self.evaluations / runs);
        layers.set("ga.cache_hit_ratio", crate::stats::ratio(self.cache_hits, self.evaluations));
        layers.set("ga.delta_share", crate::stats::ratio(self.delta_evals, self.cache_misses));
        layers.set("ga.repair_rate", self.repair_rate / runs);
    }
}

/// Steps of the single-flip mutation chain each probe evaluates.
const DELTA_STEPS: usize = 16;

/// Times the graph and cost layers on one synthesized network, and checks
/// that every incremental evaluation matches a full one bit for bit. The
/// first operation of a run (`op == 0`) also times the three Pareto
/// objectives and the link-failure analysis, which cost seconds at
/// n = 200. Returns the number of delta steps that fell back to a full
/// evaluation.
pub fn probe_network(
    tracer: &Tracer,
    op: u64,
    network: &Network,
    ctx: &Context,
    params: CostParams,
    rng: &mut SplitMix,
) -> Result<usize, String> {
    let topology = &network.topology;
    let g = topology.to_graph();
    let trees = tracer
        .span("graph.apsp", None, op, |_| cold::graph::shortest_path::apsp(&g, ctx.distance_fn()));
    if trees.len() != topology.n() {
        return Err("apsp returned the wrong number of trees".into());
    }
    tracer
        .span("graph.route_traffic", None, op, |_| {
            cold::graph::routing::route_traffic(&g, ctx.distance_fn(), ctx.traffic_fn())
        })
        .map_err(|e| format!("route_traffic: {e}"))?;
    let full = tracer
        .span("cost.evaluate_total", None, op, |_| evaluate_total(topology, ctx, &params))
        .map_err(|e| format!("evaluate_total: {e}"))?;
    if full.to_bits() != network.total_cost().to_bits() {
        return Err(format!("network cost {} != evaluate_total {full}", network.total_cost()));
    }

    let mut session = DeltaEval::new(ctx, params);
    session.eval(topology, None).map_err(|e| format!("delta anchor: {e}"))?;
    let full_before = session.full_evals();
    let mut prev = topology.clone();
    let n = topology.n();
    for _ in 0..DELTA_STEPS {
        let mut cand = prev.clone();
        loop {
            let u = rng.below(n);
            let v = rng.below(n);
            if u == v {
                continue;
            }
            cand.toggle_edge(u, v);
            if is_connected(&cand.to_graph()) {
                break;
            }
            cand.toggle_edge(u, v);
        }
        let got = tracer
            .span("cost.delta_step", None, op, |_| session.eval(&cand, Some(&prev)))
            .map_err(|e| format!("delta step: {e}"))?;
        let want = evaluate_total(&cand, ctx, &params).map_err(|e| format!("{e}"))?;
        if got.to_bits() != want.to_bits() {
            return Err(format!("delta step cost {got} != full evaluation {want}"));
        }
        prev = cand;
    }
    let fallbacks = session.full_evals() - full_before;
    if op != 0 {
        return Ok(fallbacks);
    }

    let objective = cold::ColdMultiObjective::new(ctx, params);
    let objs = tracer.span("core.pareto_objectives", None, op, |_| objective.objectives(topology));
    if objs.len() != 3 || objs[0].to_bits() != full.to_bits() {
        return Err(format!("pareto objectives {objs:?} disagree with cost {full}"));
    }
    tracer.span("core.link_failures", None, op, |_| {
        cold::failure::single_link_failures(network, ctx)
    });
    Ok(fallbacks)
}

/// Sets the probe metrics from the spans `probe_network` recorded.
pub fn report_probes(tracer: &Tracer, layers: &mut Layers, fallbacks: usize) {
    layers.set_span_median(tracer, "graph.apsp_s", "graph.apsp");
    layers.set_span_median(tracer, "graph.route_traffic_s", "graph.route_traffic");
    layers.set_span_median(tracer, "cost.evaluate_total_s", "cost.evaluate_total");
    layers.set_span_median(tracer, "cost.delta_step_s", "cost.delta_step");
    let steps = tracer.durations("cost.delta_step").len();
    layers.set("cost.delta_fallback_share", crate::stats::ratio(fallbacks as f64, steps as f64));
    layers.set_span_median(tracer, "core.pareto_objectives_s", "core.pareto_objectives");
    layers.set_span_median(tracer, "core.link_failures_s", "core.link_failures");
}

/// Parses the first `{n, links: [{source, target}]}` topology of a served
/// result document.
pub fn doc_topology(topo: &serde_json::Value) -> Option<AdjacencyMatrix> {
    let n = topo["n"].as_u64()? as usize;
    let mut m = AdjacencyMatrix::empty(n);
    for link in topo["links"].as_array()? {
        let u = link["source"].as_u64()? as usize;
        let v = link["target"].as_u64()? as usize;
        if u >= n || v >= n || u == v {
            return None;
        }
        m.set_edge(u, v, true);
    }
    Some(m)
}
