//! Redundancy-aware synthesis — the extension §2 invites.
//!
//! The PoP-level model deliberately omits redundancy ("We do not include
//! redundancy, port numbers or other complex constraints at this level",
//! §3.2), but the paper stresses that "it is generally easy to add
//! additional costs or constraints to the model" (§2). This module does
//! exactly that: a [`BridgeCost`] [`Penalty`] — every link whose single
//! failure would disconnect the network incurs an extra charge — plus
//! survivability analysis of the result.
//!
//! With a small bridge cost the GA trades some build-out budget for rings;
//! with a large one it produces fully 2-edge-connected networks. The cost
//! stays operationally meaningful: it is the expected price of an outage
//! on an unprotected link.

use crate::objective::Penalty;
use cold_context::Context;
use cold_graph::connectivity::{cut_structure, is_two_edge_connected};
use cold_graph::AdjacencyMatrix;
use serde::{Deserialize, Serialize};

/// The per-bridge outage cost: `cost ×` the number of links whose single
/// failure would disconnect the network. Layered onto eq. (2) by
/// [`crate::PenalizedObjective`]; `RunMode::Resilient` runs it through the
/// standard pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BridgeCost(pub f64);

impl Penalty for BridgeCost {
    fn penalty(&self, topology: &AdjacencyMatrix, _distance: &dyn Fn(usize, usize) -> f64) -> f64 {
        if self.0 == 0.0 {
            return 0.0;
        }
        self.0 * cut_structure(&topology.to_graph()).bridges.len() as f64
    }
}

/// Survivability report for a synthesized topology.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Survivability {
    /// Number of bridge links (single points of failure among links).
    pub bridges: usize,
    /// Number of articulation PoPs (single points of failure among PoPs).
    pub articulation_points: usize,
    /// Whether the network survives any single link failure.
    pub two_edge_connected: bool,
    /// Fraction of total offered traffic that would be disconnected by the
    /// worst single link failure.
    pub worst_link_failure_traffic_fraction: f64,
}

/// Analyzes a topology's survivability in a context.
pub fn survivability(topology: &AdjacencyMatrix, ctx: &Context) -> Survivability {
    let g = topology.to_graph();
    let cuts = cut_structure(&g);
    let total_traffic = ctx.traffic.total();
    let mut worst = 0.0f64;
    for &(u, v) in &cuts.bridges {
        // Removing the bridge splits the network; sum the demand crossing
        // the cut.
        let mut cut = topology.clone();
        cut.set_edge(u, v, false);
        let comps = cold_graph::components::matrix_components(&cut);
        let mut crossing = 0.0;
        for s in 0..ctx.n() {
            for t in 0..ctx.n() {
                if s != t && comps.label[s] != comps.label[t] {
                    crossing += ctx.traffic.demand(s, t);
                }
            }
        }
        if total_traffic > 0.0 {
            worst = worst.max(crossing / total_traffic);
        }
    }
    Survivability {
        bridges: cuts.bridges.len(),
        articulation_points: cuts.articulation_points.len(),
        two_edge_connected: is_two_edge_connected(&g),
        worst_link_failure_traffic_fraction: worst,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ColdConfig, ColdObjective, PenalizedObjective, RunControl, RunMode};
    use cold_ga::Objective;

    fn resilient<'a>(ctx: &'a Context, cfg: &ColdConfig, cost: f64) -> impl Objective + 'a {
        PenalizedObjective::new(ColdObjective::new(ctx, cfg.params), BridgeCost(cost))
    }

    #[test]
    fn bridge_penalty_added_to_cost() {
        let cfg = ColdConfig::quick(6, 1e-4, 0.0);
        let ctx = cfg.context.generate(1);
        let plain = ColdObjective::new(&ctx, cfg.params);
        let res = resilient(&ctx, &cfg, 50.0);
        // A tree on 6 nodes has 5 bridges.
        let tree = cold_graph::mst::mst_matrix(6, ctx.distance_fn());
        assert!((res.cost(&tree) - (plain.cost(&tree) + 250.0)).abs() < 1e-9);
        // A cycle has none.
        let ring =
            AdjacencyMatrix::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
                .unwrap();
        assert!((res.cost(&ring) - plain.cost(&ring)).abs() < 1e-9);
    }

    #[test]
    fn survivability_of_tree_vs_ring() {
        let cfg = ColdConfig::quick(6, 1e-4, 0.0);
        let ctx = cfg.context.generate(2);
        let tree = cold_graph::mst::mst_matrix(6, ctx.distance_fn());
        let s = survivability(&tree, &ctx);
        assert_eq!(s.bridges, 5);
        assert!(!s.two_edge_connected);
        assert!(s.worst_link_failure_traffic_fraction > 0.0);
        let ring =
            AdjacencyMatrix::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
                .unwrap();
        let s = survivability(&ring, &ctx);
        assert_eq!(s.bridges, 0);
        assert!(s.two_edge_connected);
        assert_eq!(s.worst_link_failure_traffic_fraction, 0.0);
    }

    #[test]
    fn high_bridge_cost_produces_two_edge_connected_networks() {
        let cfg = ColdConfig::quick(9, 1e-4, 0.0);
        let r = cfg
            .try_run(3, None, RunMode::Resilient { bridge_cost: 1e6 }, RunControl::default())
            .unwrap();
        let (net, report) = (&r.network, survivability(&r.network.topology, &r.context));
        assert!(
            report.two_edge_connected,
            "bridge cost 1e6 must eliminate bridges; got {} bridges over {} links",
            report.bridges,
            net.link_count()
        );
        assert!(net.link_count() >= 9, "2-edge-connected needs >= n links");
    }

    #[test]
    fn zero_bridge_cost_reduces_to_plain_cold() {
        let cfg = ColdConfig::quick(8, 1e-4, 10.0);
        let r = cfg
            .try_run(4, None, RunMode::Resilient { bridge_cost: 0.0 }, RunControl::default())
            .unwrap();
        let plain = cfg.synthesize(4);
        assert_eq!(r.network.topology, plain.network.topology);
        assert_eq!(r.best_cost_history, plain.best_cost_history);
    }

    #[test]
    fn session_cost_is_bit_identical_to_objective_cost() {
        let cfg = ColdConfig::quick(8, 1e-4, 10.0);
        let ctx = cfg.context.generate(7);
        let res = resilient(&ctx, &cfg, 75.0);
        let mut session = res.session();
        let tree = cold_graph::mst::mst_matrix(8, ctx.distance_fn());
        // Full evaluation path.
        assert_eq!(session.cost(&tree, None), res.cost(&tree));
        // Delta path: single-edge change against the cached base must land
        // on the exact same bits as a from-scratch evaluation.
        let mut ringed = tree.clone();
        ringed.set_edge(0, 7, true);
        assert_eq!(session.cost(&ringed, Some(&tree)), res.cost(&ringed));
        assert!(session.delta_evals() > 0, "second eval must take the delta path");
    }

    #[test]
    fn resilient_runs_use_delta_evaluation() {
        // Regression: the bridge overlay used to inherit the stateless
        // default session, so resilient GA runs did full APSP per eval.
        let cfg = ColdConfig::quick(8, 1e-4, 0.0);
        let ctx = cfg.context.generate(5);
        let res = resilient(&ctx, &cfg, 100.0);
        let settings = cold_ga::GaSettings { seed: 11, generations: 4, ..cfg.ga };
        let engine = cold_ga::GeneticAlgorithm::try_new(&res, settings).unwrap();
        let result = engine.try_run_traced(&[], None).unwrap();
        assert!(
            result.eval_stats.delta_evals > 0,
            "resilient run performed no delta evals: {:?}",
            result.eval_stats
        );
    }

    #[test]
    fn survivability_handles_zero_total_traffic() {
        // A context with no demand at all: fractions must be 0, not NaN.
        let mut ctx = cold_context::Context::from_positions(
            (0..5).map(|i| cold_context::Point::new(i as f64, 0.0)).collect(),
            cold_context::PopulationKind::Constant { value: 1.0 },
            cold_context::GravityModel::raw(),
            0,
        );
        ctx.traffic = cold_context::TrafficMatrix::zeros(5);
        assert_eq!(ctx.traffic.total(), 0.0);
        let path = AdjacencyMatrix::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let s = survivability(&path, &ctx);
        assert_eq!(s.bridges, 4);
        assert!(
            s.worst_link_failure_traffic_fraction == 0.0,
            "zero offered traffic must yield fraction 0, got {}",
            s.worst_link_failure_traffic_fraction
        );
    }

    #[test]
    fn worst_failure_fraction_counts_both_directions() {
        // Barbell: bridge splits 3/3; crossing fraction = 2·9·t/(30·t) for
        // uniform demands = 0.6.
        let ctx = cold_context::Context::from_positions(
            (0..6).map(|i| cold_context::Point::new(i as f64, 0.0)).collect(),
            cold_context::PopulationKind::Constant { value: 1.0 },
            cold_context::GravityModel::raw(),
            0,
        );
        let barbell = AdjacencyMatrix::from_edges(
            6,
            &[(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)],
        )
        .unwrap();
        let s = survivability(&barbell, &ctx);
        assert_eq!(s.bridges, 1);
        assert!((s.worst_link_failure_traffic_fraction - 0.6).abs() < 1e-9);
    }
}
