//! Multi-objective COLD synthesis: cost vs. resilience vs. delay.
//!
//! The paper optimizes the single scalar of eq. (2), but §2's invitation
//! to extend the model applies to the *shape* of the objective too: an
//! operator rarely wants one network, they want the trade-off curve
//! between build-out budget, failure exposure, and user-visible latency.
//! This module wires COLD's cost model into the NSGA-II engine of
//! [`cold_ga::pareto`] with three objectives, all minimized:
//!
//! 1. **Build cost** — eq. (2) exactly, evaluated through the same
//!    incremental [`cold_ga::ObjectiveSession`] machinery as scalar
//!    synthesis, so the delta-evaluation speedup carries over.
//! 2. **Worst single-link-failure impact** — from
//!    [`crate::failure::single_link_failures`]: the worst link's stranded
//!    traffic fraction plus a capped overload term (see
//!    [`UTILIZATION_WEIGHT`]).
//! 3. **Demand-weighted mean path length** — the capacity plan's
//!    traffic-weighted route length per unit of offered traffic, a
//!    propagation-delay proxy.
//!
//! The output is not one network but a bounded Pareto archive; each
//! front member is built into a full [`Network`].

use crate::error::ColdError;
use crate::failure::{single_link_failures, FailureReport};
use crate::objective::ColdObjective;
use crate::synthesizer::{ColdConfig, ProgressSink, RunTelemetry};
use cold_context::Context;
use cold_cost::{CostParams, Network};
use cold_ga::pareto::{MultiObjective, MultiObjectiveSession};
use cold_ga::{Objective, ObjectiveSession};
use cold_graph::AdjacencyMatrix;

/// Weight of the capped overload term in the failure-impact objective,
/// relative to the stranded-traffic fraction (which dominates: losing
/// traffic outright is worse than congesting it).
pub const UTILIZATION_WEIGHT: f64 = 0.1;

/// Rerouted utilization beyond this cap stops increasing the impact
/// objective. Also guards the `INFINITY` sentinel
/// [`crate::failure::LinkFailureImpact::max_utilization`] uses for
/// links that carried nothing before a failure.
pub const UTILIZATION_CAP: f64 = 10.0;

/// Collapses a failure report into the scalar the impact objective
/// minimizes: over all single-link failures, the worst value of
/// `stranded_fraction + UTILIZATION_WEIGHT · min(util, CAP)/CAP`.
pub fn failure_impact(report: &FailureReport) -> f64 {
    report
        .impacts
        .iter()
        .map(|i| {
            i.stranded_traffic_fraction
                + UTILIZATION_WEIGHT * (i.max_utilization.min(UTILIZATION_CAP) / UTILIZATION_CAP)
        })
        .fold(0.0, f64::max)
}

/// COLD's three objectives packaged for the NSGA-II engine.
#[derive(Debug, Clone)]
pub struct ColdMultiObjective<'a> {
    inner: ColdObjective<'a>,
}

impl<'a> ColdMultiObjective<'a> {
    /// Creates the three-objective adapter for a context and cost
    /// parameters.
    pub fn new(ctx: &'a Context, params: CostParams) -> Self {
        Self { inner: ColdObjective::new(ctx, params) }
    }

    /// The context being optimized for.
    pub fn context(&self) -> &'a Context {
        self.inner.context()
    }

    /// The cost parameters.
    pub fn params(&self) -> CostParams {
        self.inner.params()
    }

    /// Objectives 2 and 3 — failure impact and demand-weighted mean path
    /// length. Both need full routing on the candidate, so they share one
    /// [`Network::build`].
    fn tail_objectives(&self, topology: &AdjacencyMatrix) -> (f64, f64) {
        let ctx = self.inner.context();
        let network = Network::build(topology.clone(), ctx, self.inner.params())
            .expect("GA repairs candidates before evaluation; topology must be connected");
        let impact = failure_impact(&single_link_failures(&network, ctx));
        let total = ctx.traffic.total();
        let delay =
            if total > 0.0 { network.plan.traffic_weighted_route_length() / total } else { 0.0 };
        (impact, delay)
    }
}

impl MultiObjective for ColdMultiObjective<'_> {
    fn n(&self) -> usize {
        Objective::n(&self.inner)
    }

    fn num_objectives(&self) -> usize {
        3
    }

    fn distance(&self, u: usize, v: usize) -> f64 {
        Objective::distance(&self.inner, u, v)
    }

    fn objectives(&self, topology: &AdjacencyMatrix) -> Vec<f64> {
        let cost = self.inner.cost(topology);
        let (impact, delay) = self.tail_objectives(topology);
        vec![cost, impact, delay]
    }

    fn session(&self) -> Box<dyn MultiObjectiveSession + '_> {
        // The cost component rides the inner delta session (bit-identical
        // to a full evaluation); the failure and delay components are pure
        // functions of the topology, recomputed per call.
        Box::new(ColdMultiSession { objective: self, inner: self.inner.session() })
    }

    fn k_nearest(&self, k: usize) -> Vec<Vec<usize>> {
        Objective::k_nearest(&self.inner, k)
    }
}

/// Per-worker session: incremental cost evaluation plus the two
/// routing-bound objectives.
struct ColdMultiSession<'a> {
    objective: &'a ColdMultiObjective<'a>,
    inner: Box<dyn ObjectiveSession + 'a>,
}

impl MultiObjectiveSession for ColdMultiSession<'_> {
    fn objectives(
        &mut self,
        topology: &AdjacencyMatrix,
        base: Option<&AdjacencyMatrix>,
    ) -> Vec<f64> {
        let cost = self.inner.cost(topology, base);
        let (impact, delay) = self.objective.tail_objectives(topology);
        vec![cost, impact, delay]
    }
    fn delta_evals(&self) -> usize {
        self.inner.delta_evals()
    }
    fn full_evals(&self) -> usize {
        self.inner.full_evals()
    }
}

/// One member of a served Pareto front: the fully built network plus its
/// objective vector `[build cost, failure impact, mean path length]`.
#[derive(Debug, Clone)]
pub struct ParetoFrontMember {
    /// The simulation-ready network.
    pub network: Network,
    /// The member's objective vector, same order as
    /// [`ColdMultiObjective::objectives`].
    pub objectives: Vec<f64>,
}

/// Everything produced by one multi-objective synthesis.
#[derive(Debug, Clone)]
pub struct ParetoSynthesisResult {
    /// The JSONL run journal, when journal tracing was active.
    pub journal_path: Option<std::path::PathBuf>,
    /// The context the front was designed for.
    pub context: Context,
    /// The final archive, every member built into a network. Mutually
    /// non-dominated, sorted lexicographically by objective vector.
    pub front: Vec<ParetoFrontMember>,
    /// Archive hypervolume after each generation (index 0 = after the
    /// initial population). Monotone non-decreasing.
    pub hypervolume_history: Vec<f64>,
    /// The fixed hypervolume reference point.
    pub reference: Vec<f64>,
    /// Generations actually run.
    pub generations_run: usize,
    /// Objective evaluations requested.
    pub evaluations: usize,
    /// Fitness-cache and delta-evaluation counters.
    pub eval_stats: cold_ga::EvalStats,
    /// Why the engine returned.
    pub stop_reason: cold_ga::StopReason,
}

impl ParetoSynthesisResult {
    /// The front member with the lowest build cost.
    pub fn cheapest(&self) -> Option<&ParetoFrontMember> {
        self.front.iter().min_by(|a, b| a.objectives[0].total_cmp(&b.objectives[0]))
    }

    /// The final archive hypervolume.
    pub fn hypervolume(&self) -> f64 {
        self.hypervolume_history.last().copied().unwrap_or(0.0)
    }
}

/// Default bound on the Pareto archive carried across generations.
pub const DEFAULT_ARCHIVE_CAPACITY: usize = 32;

/// Multi-objective synthesis within `ctx` (usually
/// [`ColdConfig::context_for`]`(seed)`): NSGA-II over
/// [`ColdMultiObjective`], with an optional live per-generation
/// [`ProgressSink`]. It shares the scalar pipeline's stages —
/// validation, heuristic seeding, GA stream and telemetry — and differs
/// only in its engine and result type.
///
/// Telemetry mirrors scalar synthesis: a `run_start` event (mode
/// `"Pareto"`), one `generation` event per generation whose
/// `hypervolume` field carries the archive hypervolume, and a `run_end`
/// summary reporting the cheapest front member as `best_cost`.
///
/// # Errors
/// [`ColdError::Config`] for invalid configuration, [`ColdError::Ga`] for
/// engine failures (non-finite objective components, bad settings).
pub fn try_synthesize_pareto_in_context(
    cfg: &ColdConfig,
    ctx: Context,
    seed: u64,
    archive_capacity: usize,
    progress: Option<ProgressSink>,
) -> Result<ParetoSynthesisResult, ColdError> {
    let ctx = cfg.prepare(seed, Some(ctx))?;
    let _span = cold_obs::span("core.synthesize_pareto");
    let mut telemetry = RunTelemetry::open(cfg, seed, ctx.n(), "Pareto".into(), progress);
    let objective = ColdMultiObjective::new(&ctx, cfg.params);
    let settings = cfg.ga_settings(seed, 0x6741);
    let engine = cold_ga::pareto::ParetoGa::try_new(&objective, settings, archive_capacity)?;
    let (seeds, _) = cfg.heuristic_seeds(&objective.inner, seed);
    let result = engine.try_run_traced(&seeds, telemetry.slot())?;
    let front: Vec<ParetoFrontMember> = result
        .front
        .iter()
        .map(|p| {
            let network = Network::build(p.topology.clone(), &ctx, cfg.params)
                .expect("archive members are repaired candidates, hence connected");
            ParetoFrontMember { network, objectives: p.objectives.clone() }
        })
        .collect();
    telemetry.close(
        result.generations_run,
        front.iter().map(|m| m.objectives[0]).fold(f64::INFINITY, f64::min),
        result.evaluations,
        &result.eval_stats,
        result.repair_stats.repair_rate(),
        result.stop_reason,
    );
    Ok(ParetoSynthesisResult {
        journal_path: cold_obs::journal_path(),
        context: ctx,
        front,
        hypervolume_history: result.hypervolume_history,
        reference: result.reference,
        generations_run: result.generations_run,
        evaluations: result.evaluations,
        eval_stats: result.eval_stats,
        stop_reason: result.stop_reason,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cold_ga::pareto::dominates;

    fn try_synthesize_pareto(
        cfg: &ColdConfig,
        seed: u64,
        capacity: usize,
    ) -> Result<ParetoSynthesisResult, ColdError> {
        try_synthesize_pareto_in_context(cfg, cfg.context_for(seed), seed, capacity, None)
    }

    fn quick_cfg(n: usize) -> ColdConfig {
        let mut cfg = ColdConfig::quick(n, 4e-4, 10.0);
        cfg.ga.generations = 6;
        cfg
    }

    #[test]
    fn objective_vector_has_three_finite_components() {
        let cfg = quick_cfg(6);
        let ctx = cfg.context.generate(1);
        let obj = ColdMultiObjective::new(&ctx, cfg.params);
        let mst = cold_graph::mst::mst_matrix(6, ctx.distance_fn());
        let v = obj.objectives(&mst);
        assert_eq!(v.len(), 3);
        assert!(v.iter().all(|x| x.is_finite()), "{v:?}");
        // A tree strands traffic on every cut: nonzero impact.
        assert!(v[1] > 0.0);
        // Build cost matches the scalar objective exactly.
        assert_eq!(v[0], ColdObjective::new(&ctx, cfg.params).cost(&mst));
    }

    #[test]
    fn session_is_bit_identical_to_full_evaluation() {
        let cfg = quick_cfg(7);
        let ctx = cfg.context.generate(2);
        let obj = ColdMultiObjective::new(&ctx, cfg.params);
        let mut session = obj.session();
        let mst = cold_graph::mst::mst_matrix(7, ctx.distance_fn());
        assert_eq!(session.objectives(&mst, None), obj.objectives(&mst));
        let mut ringed = mst.clone();
        ringed.set_edge(0, 6, true);
        assert_eq!(session.objectives(&ringed, Some(&mst)), obj.objectives(&ringed));
        assert!(session.delta_evals() > 0, "cost component must take the delta path");
    }

    #[test]
    fn pareto_synthesis_yields_mutually_non_dominated_networks() {
        let cfg = quick_cfg(8);
        let r = try_synthesize_pareto(&cfg, 3, 16).unwrap();
        assert!(r.front.len() >= 2, "front of {} gives no trade-off", r.front.len());
        for a in &r.front {
            for b in &r.front {
                assert!(
                    !dominates(&a.objectives, &b.objectives),
                    "{:?} dominates {:?}",
                    a.objectives,
                    b.objectives
                );
            }
        }
        for w in r.hypervolume_history.windows(2) {
            assert!(w[1] >= w[0] - 1e-12, "hypervolume regressed: {:?}", w);
        }
        assert!(r.hypervolume() > 0.0);
        assert!(r.eval_stats.delta_evals > 0, "pareto runs must reuse delta evaluation");
        // Every member is a real, connected network.
        for m in &r.front {
            assert!(m.network.total_cost() > 0.0);
            assert_eq!(m.network.n(), 8);
        }
    }

    #[test]
    fn pareto_synthesis_is_deterministic() {
        let cfg = quick_cfg(7);
        let a = try_synthesize_pareto(&cfg, 5, 8).unwrap();
        let b = try_synthesize_pareto(&cfg, 5, 8).unwrap();
        assert_eq!(a.front.len(), b.front.len());
        for (x, y) in a.front.iter().zip(&b.front) {
            assert_eq!(x.network.topology, y.network.topology);
            assert_eq!(x.objectives, y.objectives);
        }
        assert_eq!(a.hypervolume_history, b.hypervolume_history);
    }

    #[test]
    fn utilization_term_is_capped() {
        let report = FailureReport {
            impacts: vec![crate::failure::LinkFailureImpact {
                link: (0, 1),
                stranded_traffic_fraction: 0.25,
                max_utilization: f64::INFINITY,
                overloaded_links: 1,
                mean_stretch: 1.0,
            }],
        };
        let impact = failure_impact(&report);
        assert!(impact.is_finite());
        assert!((impact - (0.25 + UTILIZATION_WEIGHT)).abs() < 1e-12);
    }
}
