//! Crash-safe GA run snapshots.
//!
//! A [`GaCheckpoint`] captures everything the generational loop needs to
//! continue a run exactly where it stopped: the surviving population with
//! cached costs, the best-cost history, the evaluation/repair counters,
//! the fitness memo cache, and — crucially — the raw RNG stream state.
//! Resuming from a checkpoint is bit-identical to never having stopped
//! (pinned by `engine` tests and the workspace `checkpoint_resume`
//! integration test): the RNG continues mid-stream and the restored
//! cache reproduces the same hit/miss sequence.
//!
//! The derived `serde` codec of a private `Document` is the JSON form
//! (see DESIGN.md §10 for the schema). Topologies travel as
//! [`EdgeList`]s and become matrices only after their node count has
//! been checked against the run's, and cache entries are sorted by
//! chromosome so the serialized form is deterministic.

use crate::chromosome::Individual;
use crate::engine::EvalStats;
use crate::error::GaError;
use crate::repair::RepairStats;
use crate::settings::GaSettings;
use cold_graph::{AdjacencyMatrix, EdgeList};
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::path::Path;

/// A resumable snapshot of a GA run after a completed generation.
#[derive(Debug, Clone, PartialEq)]
pub struct GaCheckpoint {
    /// The settings of the run that produced this snapshot. A resume
    /// validates these against the engine's settings — continuing a run
    /// under different parameters would silently change its meaning.
    pub settings: GaSettings,
    /// Completed generations (`history.len() - 1`).
    pub generation: usize,
    /// Raw xoshiro256++ state of the engine RNG, captured *after* the
    /// checkpointed generation, so the resumed stream continues exactly.
    pub rng_state: [u64; 4],
    /// The surviving population, cost-sorted, with cached costs.
    pub population: Vec<Individual>,
    /// Best cost after each generation so far (index 0 = initial
    /// population).
    pub history: Vec<f64>,
    /// Evaluation counters at the snapshot point.
    pub eval_stats: EvalStats,
    /// Repair counters at the snapshot point.
    pub repair_stats: RepairStats,
    /// The fitness memo cache, present iff `settings.fitness_cache`.
    /// Restoring it keeps the resumed hit/miss counters — and therefore
    /// the whole [`EvalStats`] — identical to an uninterrupted run.
    pub cache: Option<Vec<(AdjacencyMatrix, f64)>>,
}

const KIND: &str = "cold-ga-checkpoint";

/// The JSON document of a [`GaCheckpoint`].
#[derive(Serialize, Deserialize)]
struct Document {
    kind: String,
    version: u64,
    settings: GaSettings,
    generation: usize,
    rng_state: [u64; 4],
    population: Vec<Entry>,
    history: Vec<f64>,
    eval_stats: Counters,
    repair_stats: RepairStats,
    cache: Option<Vec<Entry>>,
}

/// One chromosome with its cost.
#[derive(Serialize, Deserialize)]
struct Entry {
    topology: EdgeList,
    cost: f64,
}

impl Entry {
    fn of(topology: &AdjacencyMatrix, cost: f64) -> Self {
        Self { topology: EdgeList::of(topology), cost }
    }

    fn decode(&self, n: usize) -> Result<(AdjacencyMatrix, f64), String> {
        let t = self.topology.to_matrix(n).map_err(|e| format!("topology: {e:?}"))?;
        Ok((t, self.cost))
    }
}

/// The checkpointed [`EvalStats`] counters. The delta/full split is
/// in-memory telemetry only: resumed runs restart it at zero alongside
/// the fresh sessions.
#[derive(Serialize, Deserialize)]
struct Counters {
    requested: usize,
    cache_hits: usize,
    cache_misses: usize,
    eval_seconds: f64,
}

impl Serialize for GaCheckpoint {
    fn to_json_value(&self) -> Value {
        let cache = self.cache.as_ref().map(|entries| {
            // Deterministic serialization: the engine's HashMap has no
            // stable order, so sort by chromosome bits.
            let mut sorted: Vec<&(AdjacencyMatrix, f64)> = entries.iter().collect();
            sorted.sort_by(|a, b| {
                a.0.edge_count().cmp(&b.0.edge_count()).then_with(|| a.0.edges().cmp(b.0.edges()))
            });
            sorted.into_iter().map(|(t, c)| Entry::of(t, *c)).collect()
        });
        let es = &self.eval_stats;
        Document {
            kind: KIND.into(),
            version: 1,
            settings: self.settings,
            generation: self.generation,
            rng_state: self.rng_state,
            population: self.population.iter().map(|i| Entry::of(&i.topology, i.cost)).collect(),
            history: self.history.clone(),
            eval_stats: Counters {
                requested: es.requested,
                cache_hits: es.cache_hits,
                cache_misses: es.cache_misses,
                eval_seconds: es.eval_seconds,
            },
            repair_stats: self.repair_stats,
            cache,
        }
        .to_json_value()
    }
}

impl GaCheckpoint {
    /// Parses a snapshot of an `n`-node run under the settings `run` from
    /// its JSON object form. The snapshot's settings must be valid and
    /// match `run` in all but the per-trial `seed`, and its topologies
    /// must have `n` nodes; both are checked before any matrix is
    /// allocated, so a hostile document can size neither a matrix nor
    /// its own entry counts.
    ///
    /// # Errors
    /// A human-readable description of the first violated rule.
    pub fn from_value(v: &Value, n: usize, run: &GaSettings) -> Result<Self, String> {
        match v.get("kind").and_then(Value::as_str) {
            Some(KIND) => {}
            Some(other) => return Err(format!("not a GA checkpoint (kind `{other}`)")),
            None => return Err("not a GA checkpoint (missing `kind`)".into()),
        }
        let doc = Document::from_json_value(v).map_err(|e| e.to_string())?;
        if doc.version != 1 {
            return Err(format!("unsupported GA checkpoint version {}", doc.version));
        }
        let (generation, s) = (doc.generation, &doc.settings);
        let steps = doc.history.len();
        if steps.checked_sub(1) != Some(generation) {
            return Err(format!("generation {generation} disagrees with history length {steps}"));
        }
        // Nothing is decoded until the document's shape fits the run: a
        // topology of the wrong size is named without allocating, and the
        // entry counts are bounded by the settings, so many small entries
        // cannot each claim an n(n−1)/16-byte matrix.
        let mut entries = doc.population.iter().chain(doc.cache.iter().flatten());
        if let Some(e) = entries.find(|e| e.topology.n != n) {
            e.decode(n)?;
        }
        s.validate().map_err(|e| format!("settings: {e}"))?;
        if *run != (GaSettings { seed: run.seed, ..*s }) {
            return Err("settings differ from the run's in more than the seed".into());
        }
        if generation > s.generations {
            return Err(format!("generation {generation} is past the run's {}", s.generations));
        }
        let members = doc.population.len();
        if members != s.population {
            return Err(format!("population has {members} entries, settings say {}", s.population));
        }
        // Generation 0 evaluates max(population, 2) topologies, each later
        // generation one batch of at most `population` offspring.
        let offspring = s.num_crossover.saturating_add(s.num_mutation);
        let evaluations = s.population.max(2).saturating_add(generation.saturating_mul(offspring));
        let cached = doc.cache.as_ref().map_or(0, Vec::len);
        if cached > evaluations {
            return Err(format!("cache has {cached} entries, more than {evaluations} evaluations"));
        }
        let population = doc
            .population
            .iter()
            .map(|e| e.decode(n).map(|(topology, cost)| Individual { topology, cost }))
            .collect::<Result<_, _>>()?;
        let cache =
            doc.cache.as_ref().map(|c| c.iter().map(|e| e.decode(n)).collect()).transpose()?;
        let es = doc.eval_stats;
        Ok(Self {
            settings: doc.settings,
            generation: doc.generation,
            rng_state: doc.rng_state,
            population,
            history: doc.history,
            eval_stats: EvalStats {
                requested: es.requested,
                cache_hits: es.cache_hits,
                cache_misses: es.cache_misses,
                eval_seconds: es.eval_seconds,
                ..EvalStats::default()
            },
            repair_stats: doc.repair_stats,
            cache,
        })
    }

    /// Serializes the snapshot as one JSON document.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("Value serialization is infallible")
    }

    /// [`from_value`](Self::from_value) from JSON text.
    ///
    /// # Errors
    /// Invalid JSON or schema violations, as a human-readable string.
    pub fn from_json(text: &str, n: usize, run: &GaSettings) -> Result<Self, String> {
        let v: Value = serde_json::from_str(text).map_err(|e| format!("invalid JSON: {e}"))?;
        Self::from_value(&v, n, run)
    }

    /// Persists the snapshot to `path` atomically: the JSON is written to
    /// a `.tmp` sibling and renamed over the target, so a crash (or an
    /// injected `ga.checkpoint_write_err` fault) mid-write never corrupts
    /// an existing snapshot.
    ///
    /// # Errors
    /// [`GaError::Checkpoint`] naming `path`, on I/O failure or an
    /// injected fault.
    pub fn save(&self, path: &Path) -> Result<(), GaError> {
        if cold_fault::armed() && cold_fault::should_fire("ga.checkpoint_write_err") {
            return Err(GaError::Checkpoint(format!(
                "{}: injected checkpoint write failure",
                path.display()
            )));
        }
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.to_json())
            .map_err(|e| GaError::Checkpoint(format!("{}: write failed: {e}", tmp.display())))?;
        std::fs::rename(&tmp, path)
            .map_err(|e| GaError::Checkpoint(format!("{}: rename failed: {e}", path.display())))
    }

    /// Loads a snapshot saved by [`save`](Self::save) (see [`from_value`](Self::from_value)).
    ///
    /// # Errors
    /// [`GaError::Checkpoint`] naming `path`: unreadable file, invalid
    /// JSON (truncated/garbage documents included), or schema violations.
    /// Never panics on corrupt input.
    pub fn load(path: &Path, n: usize, run: &GaSettings) -> Result<Self, GaError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| GaError::Checkpoint(format!("{}: read failed: {e}", path.display())))?;
        Self::from_json(&text, n, run)
            .map_err(|e| GaError::Checkpoint(format!("{}: {e}", path.display())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The settings `sample` was made under.
    fn run() -> GaSettings {
        GaSettings {
            population: 2,
            num_saved: 1,
            num_crossover: 1,
            num_mutation: 0,
            ..GaSettings::quick(7)
        }
    }

    fn sample() -> GaCheckpoint {
        let a = AdjacencyMatrix::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let b = AdjacencyMatrix::complete(4);
        GaCheckpoint {
            settings: run(),
            generation: 2,
            rng_state: [u64::MAX, 1, 0x1234_5678_9ABC_DEF0, 42],
            population: vec![
                Individual { topology: a.clone(), cost: 12.5 },
                Individual { topology: b.clone(), cost: 99.0 },
            ],
            history: vec![15.0, 13.0, 12.5],
            eval_stats: EvalStats {
                requested: 120,
                cache_hits: 20,
                cache_misses: 100,
                eval_seconds: 0.125,
                ..EvalStats::default()
            },
            repair_stats: RepairStats { repaired: 3, inspected: 80, links_added: 4 },
            cache: Some(vec![(b, 99.0), (a, 12.5)]),
        }
    }

    #[test]
    fn round_trips_bit_exactly() {
        let ckpt = sample();
        let back = GaCheckpoint::from_json(&ckpt.to_json(), 4, &run()).expect("round trip");
        assert_eq!(back.settings, ckpt.settings);
        assert_eq!(back.generation, ckpt.generation);
        assert_eq!(back.rng_state, ckpt.rng_state, "full-width u64 state must survive JSON");
        assert_eq!(back.history, ckpt.history);
        assert_eq!(back.eval_stats, ckpt.eval_stats);
        assert_eq!(back.repair_stats, ckpt.repair_stats);
        assert_eq!(back.population.len(), ckpt.population.len());
        for (x, y) in back.population.iter().zip(&ckpt.population) {
            assert_eq!(x.topology, y.topology);
            assert_eq!(x.cost, y.cost);
        }
        // The cache is serialized sorted; compare as sets.
        let mut a = back.cache.unwrap();
        let mut b = ckpt.cache.unwrap();
        let key = |e: &(AdjacencyMatrix, f64)| e.0.edges().collect::<Vec<_>>();
        a.sort_by_key(key);
        b.sort_by_key(key);
        assert_eq!(a.len(), b.len());
        for ((ta, ca), (tb, cb)) in a.iter().zip(&b) {
            assert_eq!(ta, tb);
            assert_eq!(ca, cb);
        }
    }

    #[test]
    fn serialization_is_deterministic() {
        // HashMap-order independence: reversed cache entries serialize to
        // the same bytes.
        let ckpt = sample();
        let mut rev = ckpt.clone();
        rev.cache.as_mut().unwrap().reverse();
        assert_eq!(ckpt.to_json(), rev.to_json());
    }

    #[test]
    fn corrupt_documents_are_rejected() {
        assert!(GaCheckpoint::from_json("", 4, &run()).is_err());
        assert!(GaCheckpoint::from_json("{}", 4, &run()).is_err());
        assert!(GaCheckpoint::from_json("{\"kind\":\"other\"}", 4, &run()).is_err());
        let good = sample().to_json();
        // Truncation must not validate.
        assert!(GaCheckpoint::from_json(&good[..good.len() / 2], 4, &run()).is_err());
        // A generation/history mismatch must not validate.
        let tampered = good.replace("\"generation\":2", "\"generation\":9");
        assert!(GaCheckpoint::from_json(&tampered, 4, &run()).is_err());
    }

    #[test]
    fn node_count_is_checked_before_any_matrix_is_allocated() {
        let good = sample().to_json();
        assert!(GaCheckpoint::from_json(&good, 4, &run()).is_ok());
        // A snapshot of a different run size is refused, not reshaped.
        let err = GaCheckpoint::from_json(&good, 6, &run()).unwrap_err();
        assert!(err.contains("SizeMismatch"), "{err}");
        // A hostile node count must fail fast: decoding it as a matrix
        // would ask the allocator for ~10^18 bytes and abort the process.
        let hostile = good.replacen("\"n\":4", "\"n\":5000000000", 1);
        assert_ne!(hostile, good);
        let err = GaCheckpoint::from_json(&hostile, 4, &run()).unwrap_err();
        assert!(err.contains("5000000000"), "{err}");
    }

    #[test]
    fn entry_counts_are_bounded_by_the_settings_before_decoding() {
        // Each snapshot is checked against its own settings, so only the
        // bounds can refuse it.
        let reject = |ckpt: GaCheckpoint, what: &str| {
            let err = GaCheckpoint::from_json(&ckpt.to_json(), 4, &ckpt.settings).unwrap_err();
            assert!(err.contains(what), "{err}");
        };
        // One chromosome more than the settings' population of 2.
        let mut c = sample();
        c.population.push(c.population[0].clone());
        reject(c, "population");
        // Six cache entries, more than the 2 + 2 × 1 evaluations two
        // generations can make.
        let mut c = sample();
        let entries = c.cache.clone().unwrap();
        c.cache.as_mut().unwrap().extend(entries.iter().chain(&entries).cloned());
        reject(c, "cache");
        // A generation past the run's end.
        let mut c = sample();
        c.settings.generations = 1;
        reject(c, "generation");
        // Offspring counts that would lift the cache bound past any size:
        // settings that break `num_saved + num_crossover + num_mutation =
        // population` are refused before the bound is computed, even when
        // the sum wraps around to the population.
        let mut c = sample();
        c.settings.num_crossover = usize::MAX;
        c.settings.num_mutation = 2;
        let entries = c.cache.clone().unwrap();
        c.cache.as_mut().unwrap().extend(entries.iter().cycle().take(1000).cloned());
        reject(c, "num_crossover");
    }

    #[test]
    fn settings_must_match_the_run_apart_from_the_seed() {
        let good = sample().to_json();
        let reseeded = GaSettings { seed: 99, ..run() };
        assert!(GaCheckpoint::from_json(&good, 4, &reseeded).is_ok());
        // Valid settings of another run: same population and generations,
        // a different offspring split.
        let other = GaSettings { num_crossover: 0, num_mutation: 1, ..run() };
        let err = GaCheckpoint::from_json(&good, 4, &other).unwrap_err();
        assert!(err.contains("settings differ"), "{err}");
    }

    #[test]
    fn decode_errors_name_the_offending_field() {
        let good = sample().to_json();
        let bad = good.replacen("\"cost\":12.5", "\"cost\":\"cheap\"", 1);
        assert_ne!(bad, good);
        let err = GaCheckpoint::from_json(&bad, 4, &run()).unwrap_err();
        assert!(err.contains("population[0].cost"), "{err}");
    }
}
