//! Shortest-path routing of a traffic matrix and per-link load accumulation.
//!
//! This implements the capacity side of the paper's cost model (§3.2.1):
//! every demand `t(s, t)` is routed on the shortest geometric path, the
//! bandwidth `w_i` required on link `i` is the sum of all demands whose
//! route crosses it, and the bandwidth cost satisfies the identity
//! `Σ_i k2·ℓ_i·w_i = k2 · Σ_r t_r · L_r` (paper eq. 1 with O = 1; the
//! overprovisioning factor multiplies capacities uniformly and does not
//! affect which topology is optimal).
//!
//! The per-source accumulation runs in O(n) after each Dijkstra by pushing
//! subtree demand down the shortest-path tree in children-before-parents
//! order — the same trick as Brandes' betweenness accumulation — so the
//! all-pairs routing is O(n·m·log n + n²), not O(n³·path length). The
//! ordering must *not* be by decreasing distance: with zero-length edges
//! (coincident PoPs) a parent and child tie on distance, and a distance
//! ordering could process the parent first and silently drop the child's
//! subtree load.
//!
//! [`route_traffic`] materializes the full [`RoutingResult`] (edge list,
//! per-edge loads, shortest-path trees) for reports and capacity plans; it
//! orders the pass by decreasing tree *depth* (hops), counting-sorted in
//! O(n). Objective evaluation needs no loads: it prices each source with
//! [`source_weighted_demand`], the loop `route_traffic` also runs, so both
//! give the same `Σ t·L` bit for bit.

use crate::graph::Graph;
use crate::shortest_path::{Csr, DijkstraWorkspace, ShortestPathTree};
use crate::{GraphError, Result};

/// The outcome of routing a traffic matrix over a topology.
#[derive(Debug, Clone)]
pub struct RoutingResult {
    /// The topology's edges, sorted ascending as `(u, v)` with `u < v`.
    pub edges: Vec<(usize, usize)>,
    /// `load[i]` is the total traffic (both directions summed) carried by
    /// `edges[i]`. This is the required bandwidth `w_i` of §3.2.
    pub load: Vec<f64>,
    /// `Σ_r t_r · L_r`: traffic-weighted total route length (eq. 1).
    pub traffic_weighted_route_length: f64,
    /// One shortest-path tree per source — the "routing matrix" output the
    /// paper lists among the GA outputs (§4 Outputs).
    pub trees: Vec<ShortestPathTree>,
}

impl RoutingResult {
    /// Looks up the load on edge `{u, v}`; `None` if not an edge.
    pub fn load_on(&self, u: usize, v: usize) -> Option<f64> {
        let key = if u < v { (u, v) } else { (v, u) };
        self.edges.binary_search(&key).ok().map(|i| self.load[i])
    }

    /// The full route for an ordered demand `(s, t)`.
    pub fn route(&self, s: usize, t: usize) -> Option<Vec<usize>> {
        self.trees.get(s)?.path_to(t)
    }
}

/// Routes the ordered traffic matrix `traffic(s, t)` over `g` with edge
/// lengths `len(u, v)`, returning per-link loads.
///
/// Demands with `s == t` are ignored. Demands must be non-negative.
///
/// # Errors
/// Returns [`GraphError::Disconnected`] if any positive demand connects a
/// pair with no path.
pub fn route_traffic(
    g: &Graph,
    len: impl Fn(usize, usize) -> f64,
    traffic: impl Fn(usize, usize) -> f64,
) -> Result<RoutingResult> {
    let n = g.n();
    let edges: Vec<(usize, usize)> = g.edges().collect();
    // Pair-index → edge-list position for O(1) load accumulation.
    let mut edge_slot = vec![usize::MAX; pair_count(n)];
    for (i, &(u, v)) in edges.iter().enumerate() {
        edge_slot[pair_slot(n, u, v)] = i;
    }
    let mut load = vec![0.0f64; edges.len()];
    let mut weighted_len = 0.0f64;
    let mut trees = Vec::with_capacity(n);
    let mut scratch = SubtreeScratch::default();
    let csr = Csr::new(g, len);
    let mut ws = DijkstraWorkspace::new();
    for s in 0..n {
        ws.run_csr(s, &csr);
        weighted_len +=
            accumulate_source(s, ws.dist(), ws.parent(), &traffic, &mut scratch, |p, v, d| {
                let slot = edge_slot[pair_slot(n, p, v)];
                debug_assert_ne!(slot, usize::MAX, "tree edge must exist in graph");
                load[slot] += d;
            })?;
        trees.push(ws.tree(s));
    }
    Ok(RoutingResult { edges, load, traffic_weighted_route_length: weighted_len, trees })
}

/// Buffers of the per-source subtree-accumulation pass.
#[derive(Debug, Default)]
struct SubtreeScratch {
    demand: Vec<f64>,
    depth: Vec<usize>,
    counts: Vec<usize>,
    order: Vec<usize>,
}

/// Number of unordered node pairs on `n` nodes.
#[inline]
fn pair_count(n: usize) -> usize {
    n * n.saturating_sub(1) / 2
}

/// Flat upper-triangle index of the unordered pair `{u, v}`, matching
/// [`crate::AdjacencyMatrix::pair_index`] without needing a matrix.
#[inline]
fn pair_slot(n: usize, u: usize, v: usize) -> usize {
    debug_assert!(u != v && u < n && v < n, "bad pair ({u},{v}) for n={n}");
    let (i, j) = if u < v { (u, v) } else { (v, u) };
    i * n - i * (i + 1) / 2 + (j - i - 1)
}

/// Collects the demands out of source `s`, pushes them down the
/// shortest-path tree in decreasing-depth order, and reports each tree
/// link's contribution through `add_load(parent, node, demand)`.
/// Returns `Σ_t t(s,t)·dist[t]`.
fn accumulate_source(
    s: usize,
    dist: &[f64],
    parent: &[usize],
    traffic: &impl Fn(usize, usize) -> f64,
    scratch: &mut SubtreeScratch,
    mut add_load: impl FnMut(usize, usize, f64),
) -> Result<f64> {
    let weighted = source_weighted_demand(s, dist, traffic, &mut scratch.demand)?;
    let demand = &mut scratch.demand;
    tree_depths(s, dist, parent, &mut scratch.depth);
    order_by_depth_desc(&scratch.depth, &mut scratch.counts, &mut scratch.order);
    for &v in &scratch.order {
        if demand[v] > 0.0 {
            let p = parent[v];
            debug_assert_ne!(p, usize::MAX);
            add_load(p, v, demand[v]);
            demand[p] += demand[v];
        }
    }
    Ok(weighted)
}

/// Fills `demand` with the demands out of source `s` and returns
/// `Σ_t t(s,t)·dist[t]`: the one per-source pricing loop.
///
/// [`route_traffic`] and the objective's full pass run it per source, and
/// incremental (delta) evaluation runs it for just the sources whose
/// distance row it repaired. Folding the per-source terms in ascending
/// source order therefore gives the same total, bit for bit, on every
/// path. `demand` is a reusable scratch buffer (overwritten).
///
/// # Errors
/// Returns [`GraphError::Disconnected`] if any positive demand out of `s`
/// targets a node with non-finite `dist`.
pub fn source_weighted_demand(
    s: usize,
    dist: &[f64],
    traffic: impl Fn(usize, usize) -> f64,
    demand: &mut Vec<f64>,
) -> Result<f64> {
    let n = dist.len();
    demand.clear();
    demand.resize(n, 0.0);
    let mut weighted = 0.0f64;
    for t in 0..n {
        if t == s {
            continue;
        }
        let d = traffic(s, t);
        assert!(d >= 0.0, "negative or NaN demand ({s},{t}): {d}");
        if d > 0.0 {
            if !dist[t].is_finite() {
                return Err(GraphError::Disconnected);
            }
            demand[t] += d;
            weighted += d * dist[t];
        }
    }
    Ok(weighted)
}

/// Computes each reachable node's hop depth in the shortest-path tree
/// (`usize::MAX` for unreachable nodes) by memoized parent walks — O(n)
/// amortized, since every node's depth is assigned exactly once.
fn tree_depths(source: usize, dist: &[f64], parent: &[usize], depth: &mut Vec<usize>) {
    let n = dist.len();
    depth.clear();
    depth.resize(n, usize::MAX);
    depth[source] = 0;
    for start in 0..n {
        if depth[start] != usize::MAX || !dist[start].is_finite() {
            continue;
        }
        // Walk up to the first node of known depth, then assign the chain.
        let mut v = start;
        let mut steps = 0usize;
        while depth[v] == usize::MAX {
            v = parent[v];
            steps += 1;
        }
        let mut d = depth[v] + steps;
        let mut v = start;
        while depth[v] == usize::MAX {
            depth[v] = d;
            d -= 1;
            v = parent[v];
        }
    }
}

/// Counting-sorts the reachable non-source nodes by *decreasing* tree depth
/// into `order`, so every child precedes its parent. A zero-length tree
/// edge gives parent and child equal *distance* but never equal depth,
/// which is why depth (not distance) must order the subtree pass.
fn order_by_depth_desc(depth: &[usize], counts: &mut Vec<usize>, order: &mut Vec<usize>) {
    let max_depth = depth.iter().filter(|&&d| d != usize::MAX).max().copied().unwrap_or(0);
    counts.clear();
    counts.resize(max_depth + 1, 0);
    for &d in depth {
        if d != usize::MAX && d > 0 {
            counts[d] += 1;
        }
    }
    // Turn counts into bucket start offsets for descending depth.
    let mut acc = 0usize;
    for d in (1..=max_depth).rev() {
        let c = counts[d];
        counts[d] = acc;
        acc += c;
    }
    order.clear();
    order.resize(acc, 0);
    for (v, &d) in depth.iter().enumerate() {
        if d != usize::MAX && d > 0 {
            order[counts[d]] = v;
            counts[d] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_traffic(_: usize, _: usize) -> f64 {
        1.0
    }

    #[test]
    fn path_graph_loads_peak_in_middle() {
        // 0-1-2-3: edge (1,2) carries all 4 crossing demands ×2 directions.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let r = route_traffic(&g, |_, _| 1.0, uniform_traffic).unwrap();
        // (0,1): demands {0}↔{1,2,3} = 3 each way ⇒ 6.
        assert_eq!(r.load_on(0, 1), Some(6.0));
        // (1,2): {0,1}↔{2,3} = 4 each way ⇒ 8.
        assert_eq!(r.load_on(1, 2), Some(8.0));
        assert_eq!(r.load_on(2, 3), Some(6.0));
        assert_eq!(r.load_on(0, 2), None);
    }

    #[test]
    fn weighted_route_length_matches_link_identity() {
        // eq. (1): Σ t_r L_r == Σ ℓ_i w_i for any lengths and demands.
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)]).unwrap();
        let len = |u: usize, v: usize| ((u + 2 * v) % 5 + 1) as f64 * 0.1;
        let sym = move |u: usize, v: usize| if u < v { len(u, v) } else { len(v, u) };
        let traffic = |s: usize, t: usize| ((s * 3 + t) % 4) as f64;
        let r = route_traffic(&g, sym, traffic).unwrap();
        let link_side: f64 = r.edges.iter().zip(&r.load).map(|(&(u, v), &w)| sym(u, v) * w).sum();
        assert!(
            (link_side - r.traffic_weighted_route_length).abs() < 1e-9,
            "Σ ℓ·w = {link_side} vs Σ t·L = {}",
            r.traffic_weighted_route_length
        );
    }

    #[test]
    fn star_routes_through_hub() {
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]).unwrap();
        let r = route_traffic(&g, |_, _| 1.0, uniform_traffic).unwrap();
        // Each spoke edge carries: own↔hub (2) + own↔two other spokes (4) = 6.
        for v in 1..4 {
            assert_eq!(r.load_on(0, v), Some(6.0));
        }
        assert_eq!(r.route(1, 2), Some(vec![1, 0, 2]));
    }

    #[test]
    fn disconnected_with_demand_errors() {
        let g = Graph::from_edges(3, &[(0, 1)]).unwrap();
        assert_eq!(
            route_traffic(&g, |_, _| 1.0, uniform_traffic).unwrap_err(),
            GraphError::Disconnected
        );
    }

    #[test]
    fn disconnected_without_demand_is_fine() {
        let g = Graph::from_edges(3, &[(0, 1)]).unwrap();
        // Traffic only between 0 and 1.
        let t = |s: usize, d: usize| if s < 2 && d < 2 { 1.0 } else { 0.0 };
        let r = route_traffic(&g, |_, _| 1.0, t).unwrap();
        assert_eq!(r.load_on(0, 1), Some(2.0));
    }

    #[test]
    fn zero_traffic_zero_loads() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let r = route_traffic(&g, |_, _| 1.0, |_, _| 0.0).unwrap();
        assert!(r.load.iter().all(|&l| l == 0.0));
        assert_eq!(r.traffic_weighted_route_length, 0.0);
    }

    #[test]
    fn zero_length_edge_does_not_drop_subtree_loads() {
        // Two PoPs at identical coordinates: nodes 1 and 2 coincide, so the
        // edge (1,2) has length 0. In the tree from source 0, node 2 is the
        // parent of node 1 at *equal distance*; the old decreasing-distance
        // ordering processed the parent first and dropped the child's
        // subtree demand from edge (0,2).
        let g = Graph::from_edges(3, &[(0, 2), (1, 2)]).unwrap();
        let len = |u: usize, v: usize| {
            let (u, v) = if u < v { (u, v) } else { (v, u) };
            if (u, v) == (1, 2) {
                0.0
            } else {
                1.0
            }
        };
        let r = route_traffic(&g, len, uniform_traffic).unwrap();
        // (0,2) carries 0↔1 and 0↔2: four unit demands.
        assert_eq!(r.load_on(0, 2), Some(4.0));
        // (1,2) carries 0↔1 and 1↔2: four unit demands.
        assert_eq!(r.load_on(1, 2), Some(4.0));
        // And the eq. (1) identity must hold: Σ ℓ·w = 1·4 + 0·4 = Σ t·L.
        let link_side: f64 = r.edges.iter().zip(&r.load).map(|(&(u, v), &w)| len(u, v) * w).sum();
        assert_eq!(link_side, r.traffic_weighted_route_length);
    }

    #[test]
    fn source_weighted_demand_folds_to_the_routed_total_bit_for_bit() {
        // Per-source terms folded in ascending source order must equal
        // route_traffic's Σ t·L exactly — this identity is what lets
        // delta-evaluation recompute only repaired sources.
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)]).unwrap();
        let len = |u: usize, v: usize| ((u + 2 * v) % 5 + 1) as f64 * 0.1;
        let sym = move |u: usize, v: usize| if u < v { len(u, v) } else { len(v, u) };
        let traffic = |s: usize, t: usize| ((s * 3 + t) % 4) as f64;
        let total = route_traffic(&g, sym, traffic).unwrap().traffic_weighted_route_length;
        let mut demand = Vec::new();
        let mut folded = 0.0f64;
        for s in 0..g.n() {
            let tree = crate::shortest_path::dijkstra(&g, s, sym);
            folded += source_weighted_demand(s, &tree.dist, traffic, &mut demand).unwrap();
        }
        assert_eq!(folded, total, "per-source fold must be bit-identical");
        // Positive demand to an unreachable target is still an error.
        let dist = vec![0.0, 1.0, f64::INFINITY];
        assert_eq!(
            source_weighted_demand(0, &dist, |_, _| 1.0, &mut demand).unwrap_err(),
            GraphError::Disconnected
        );
    }

    #[test]
    fn asymmetric_demands_sum_onto_undirected_link() {
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let t = |s: usize, d: usize| {
            if (s, d) == (0, 1) {
                3.0
            } else if (s, d) == (1, 0) {
                5.0
            } else {
                0.0
            }
        };
        let r = route_traffic(&g, |_, _| 2.0, t).unwrap();
        assert_eq!(r.load_on(0, 1), Some(8.0));
        assert_eq!(r.traffic_weighted_route_length, 16.0);
    }
}
