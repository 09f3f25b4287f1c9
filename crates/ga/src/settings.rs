//! GA settings (§4 "The genetic algorithm settings" and §5's choices).

use serde::{Deserialize, Serialize};

/// Tunable settings of the genetic algorithm.
///
/// Paper defaults (§5): `T = M = 100` generations/population, tournament
/// parameters `a = 2, b = 10` ("a good tradeoff between convergence speed
/// and reliability"), geometric(½) link mutation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GaSettings {
    /// Number of generations `T`.
    pub generations: usize,
    /// Candidates per generation `M` (`num_saved + num_crossover +
    /// num_mutation`).
    pub population: usize,
    /// Elites copied unchanged into the next generation
    /// (*num saved topologies*).
    pub num_saved: usize,
    /// Offspring produced by crossover per generation.
    pub num_crossover: usize,
    /// Offspring produced by mutation per generation.
    pub num_mutation: usize,
    /// Tournament pool size `b`: candidates drawn uniformly at random.
    pub tournament_pool: usize,
    /// Parents kept from the pool `a`: the best `a` of the `b` candidates.
    pub parents: usize,
    /// Success probability of the geometric link-mutation counts
    /// (`0.5` ⇒ on average two link changes per mutation, §4.1.2).
    pub link_mutation_p: f64,
    /// Probability that a mutation is a *node* mutation (leaf-ification)
    /// rather than a *link* mutation.
    pub node_mutation_prob: f64,
    /// Ablation switch: pick crossover parents per link uniformly instead
    /// of weighting them inversely by cost (§4.1.1's default). Leave
    /// `false` to follow the paper.
    pub uniform_crossover_weights: bool,
    /// Edge probability for the Erdős–Rényi topologies that fill the
    /// initial population. `None` ⇒ use the built-in estimate
    /// `p ≈ 2n / C(n,2)` (expected links ≈ 2n, within the observed optimal
    /// range; §4.1 notes this "aids convergence speed … but is otherwise
    /// unnecessary").
    pub init_er_probability: Option<f64>,
    /// Master RNG seed. The run is a pure function of
    /// `(objective, settings, seeds)`.
    pub seed: u64,
    /// Evaluate fitness in parallel with scoped threads.
    pub parallel: bool,
    /// Memoize fitness by chromosome (adjacency bitset), so duplicate
    /// offspring — common once the population starts converging — are never
    /// re-routed. Costs are deterministic functions of the topology, so the
    /// cache changes no result, only the work done (see
    /// [`GaResult::eval_stats`](crate::GaResult)).
    pub fitness_cache: bool,
    /// Optional early stop: abort when the best cost has not improved by
    /// more than `rel_tol` over the last `window` generations. The paper
    /// notes `T = 100` "proved to function similarly" to such a rule (§5).
    pub early_stop: Option<EarlyStop>,
    /// Candidate-link pruning for large `n`: when `Some(k)`, link
    /// mutation only *adds* links between geographic `k`-nearest
    /// neighbors (under [`Objective::distance`](crate::Objective); a pair
    /// qualifies when either endpoint is among the other's `k` nearest).
    /// Removals stay unrestricted and connectivity repair may still
    /// introduce longer links, so the search space keeps every connected
    /// topology reachable — pruning only biases *proposals* toward the
    /// short links the optimizer keeps anyway, which also bounds the
    /// dirty set incremental evaluation has to repair per offspring.
    /// `None` (the default) mutates over all pairs, preserving the
    /// paper's operator and existing RNG streams.
    pub mutation_neighbors: Option<usize>,
    /// Optional stall guard: terminate the run (with
    /// [`StopReason::Stalled`](crate::StopReason)) after this many
    /// consecutive generations without *strict* best-cost improvement.
    /// Unlike [`early_stop`](Self::early_stop), which models the paper's
    /// convergence plateau, this is a runtime guard against degenerate
    /// objectives that never improve at all.
    pub stall_gens: Option<usize>,
}

/// Early-stopping rule (relative-improvement plateau).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EarlyStop {
    /// Number of trailing generations examined.
    pub window: usize,
    /// Minimum relative improvement over the window to keep going.
    pub rel_tol: f64,
}

impl GaSettings {
    /// The paper's configuration: `T = M = 100`, `a = 2, b = 10`.
    pub fn paper_default(seed: u64) -> Self {
        Self {
            generations: 100,
            population: 100,
            num_saved: 20,
            num_crossover: 50,
            num_mutation: 30,
            tournament_pool: 10,
            parents: 2,
            link_mutation_p: 0.5,
            node_mutation_prob: 0.3,
            uniform_crossover_weights: false,
            init_er_probability: None,
            seed,
            parallel: true,
            fitness_cache: true,
            early_stop: None,
            mutation_neighbors: None,
            stall_gens: None,
        }
    }

    /// A reduced configuration for fast tests and quick experiment modes:
    /// `T = M = 40` with the same proportions.
    pub fn quick(seed: u64) -> Self {
        Self {
            generations: 40,
            population: 40,
            num_saved: 8,
            num_crossover: 20,
            num_mutation: 12,
            ..Self::paper_default(seed)
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    /// Returns a human-readable description of the first violated rule.
    pub fn validate(&self) -> Result<(), String> {
        if self.population == 0 {
            return Err("population must be positive".into());
        }
        // Checked: huge counts from a snapshot must not wrap to `population`.
        let total = self.num_saved.checked_add(self.num_crossover);
        let total = total.and_then(|t| t.checked_add(self.num_mutation));
        if total != Some(self.population) {
            return Err(format!(
                "num_saved {} + num_crossover {} + num_mutation {} must equal population {}",
                self.num_saved, self.num_crossover, self.num_mutation, self.population
            ));
        }
        if self.num_saved == 0 {
            return Err("need at least one elite (num_saved >= 1)".into());
        }
        if self.parents == 0 || self.parents > self.tournament_pool {
            return Err(format!(
                "parents a = {} must satisfy 1 <= a <= b = {}",
                self.parents, self.tournament_pool
            ));
        }
        if !(0.0 < self.link_mutation_p && self.link_mutation_p <= 1.0) {
            return Err(format!("link_mutation_p = {} must be in (0, 1]", self.link_mutation_p));
        }
        if !(0.0..=1.0).contains(&self.node_mutation_prob) {
            return Err(format!(
                "node_mutation_prob = {} must be in [0, 1]",
                self.node_mutation_prob
            ));
        }
        if let Some(p) = self.init_er_probability {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("init_er_probability = {p} must be in [0, 1]"));
            }
        }
        if let Some(es) = self.early_stop {
            if es.window == 0 || es.rel_tol < 0.0 {
                return Err("early_stop needs window >= 1 and rel_tol >= 0".into());
            }
        }
        if self.stall_gens == Some(0) {
            return Err("stall_gens needs window >= 1".into());
        }
        if self.mutation_neighbors == Some(0) {
            return Err("mutation_neighbors needs k >= 1".into());
        }
        Ok(())
    }

    /// The ER fill probability for `n` nodes: the explicit setting if given,
    /// else `min(1, 2n / C(n,2))`.
    pub fn er_probability(&self, n: usize) -> f64 {
        match self.init_er_probability {
            Some(p) => p,
            None => {
                let pairs = (n * n.saturating_sub(1) / 2).max(1) as f64;
                ((2 * n) as f64 / pairs).min(1.0)
            }
        }
    }
}

impl Default for GaSettings {
    fn default() -> Self {
        Self::paper_default(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_valid() {
        let s = GaSettings::paper_default(1);
        assert!(s.validate().is_ok());
        assert_eq!(s.generations, 100);
        assert_eq!(s.population, 100);
        assert_eq!(s.tournament_pool, 10);
        assert_eq!(s.parents, 2);
        assert!(s.fitness_cache, "memoization is on by default");
    }

    #[test]
    fn quick_is_valid_and_smaller() {
        let s = GaSettings::quick(1);
        assert!(s.validate().is_ok());
        assert!(s.population < GaSettings::paper_default(1).population);
    }

    #[test]
    fn validate_catches_mismatched_counts() {
        let mut s = GaSettings::paper_default(0);
        s.num_saved = 1;
        assert!(s.validate().is_err());
        // 1 + usize::MAX + 100 wraps around to the population of 100.
        s.num_crossover = usize::MAX;
        s.num_mutation = 100;
        assert!(s.validate().unwrap_err().contains("num_crossover"));
    }

    #[test]
    fn validate_catches_bad_tournament() {
        let mut s = GaSettings::paper_default(0);
        s.parents = 11;
        assert!(s.validate().is_err());
        s.parents = 0;
        assert!(s.validate().is_err());
    }

    #[test]
    fn validate_catches_zero_mutation_neighbors() {
        let mut s = GaSettings::paper_default(0);
        s.mutation_neighbors = Some(0);
        assert!(s.validate().is_err());
        s.mutation_neighbors = Some(1);
        assert!(s.validate().is_ok());
    }

    #[test]
    fn er_probability_default_formula() {
        let s = GaSettings::paper_default(0);
        // n = 30: 2·30 / 435 ≈ 0.1379
        assert!((s.er_probability(30) - 60.0 / 435.0).abs() < 1e-12);
        // Tiny n clamps at 1.
        assert_eq!(s.er_probability(2), 1.0);
        // Explicit value wins.
        let s2 = GaSettings { init_er_probability: Some(0.25), ..s };
        assert_eq!(s2.er_probability(30), 0.25);
    }
}
