//! The generational loop (§4.1 steps 2–5), shared by the scalar engine
//! and NSGA-II: `evolve` builds generation 0, then breeds, repairs,
//! evaluates and selects until the generation budget or a stop guard ends
//! the run. An engine supplies only what differs, through `Survival`:
//! elites + offspring and the best cost for [`GeneticAlgorithm`];
//! non-dominated ranking and the archive hypervolume for
//! [`ParetoGa`](crate::pareto::ParetoGa).

use crate::checkpoint::GaCheckpoint;
use crate::chromosome::{by_cost, inverse_cost_weights, weighted_pick, Individual};
use crate::crossover::{crossover_child, select_parents};
use crate::error::GaError;
use crate::init::{initial_population, warm_population};
use crate::mutation::mutate;
use crate::pareto::MultiObjectiveSession;
use crate::repair::{repair, RepairStats};
use crate::settings::GaSettings;
use crate::{Objective, ObjectiveSession};
use cold_graph::AdjacencyMatrix;
use cold_obs::{GenerationObserver, GenerationRecord};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// Periodic checkpointing configuration for a resumable run.
///
/// The engine invokes `sink` with a fresh [`GaCheckpoint`] after every
/// `every`-th completed generation (and never for the generation an early
/// stop fires on — the run ends there anyway). The sink is expected to
/// persist the snapshot; persistence failures should be handled inside
/// the sink (log and continue), since a failed checkpoint write must not
/// kill an otherwise healthy run.
pub struct CheckpointHook<'a> {
    /// Generations between snapshots (≥ 1).
    pub every: usize,
    /// Receives each snapshot.
    pub sink: &'a mut dyn FnMut(&GaCheckpoint),
}

/// Why a GA run returned: normal completion, the convergence-plateau
/// early stop, or the stall guard.
///
/// Serialized as a lowercase snake_case string (`"completed"`,
/// `"early_stopped"`, `"stalled"`) in trial records and journals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum StopReason {
    /// All `generations` ran (or the run was resumed past them).
    Completed,
    /// [`GaSettings::early_stop`] fired: the best cost plateaued within
    /// `rel_tol` over the trailing window.
    EarlyStopped,
    /// [`GaSettings::stall_gens`] fired: no strict best-cost improvement
    /// for that many consecutive generations.
    Stalled,
}

impl StopReason {
    /// The stable wire name used in trial records and journals.
    pub fn as_str(self) -> &'static str {
        match self {
            StopReason::Completed => "completed",
            StopReason::EarlyStopped => "early_stopped",
            StopReason::Stalled => "stalled",
        }
    }

    /// Parses a wire name produced by [`as_str`](Self::as_str) (the
    /// derived codec's variant names).
    pub fn parse(s: &str) -> Option<Self> {
        serde::Deserialize::from_json_value(&serde_json::Value::String(s.into())).ok()
    }
}

/// Outcome of one GA run.
#[derive(Debug, Clone)]
pub struct GaResult {
    /// The best topology found, with its cost.
    pub best: Individual,
    /// Best cost after each generation (index 0 = initial population).
    pub history: Vec<f64>,
    /// The full final generation, sorted by ascending cost — §3.3's
    /// "non-exclusive" property: one run yields a population of good
    /// topologies for the same context.
    pub final_population: Vec<Individual>,
    /// Generations actually executed (≤ `settings.generations` when early
    /// stopping fires).
    pub generations_run: usize,
    /// Objective evaluations *requested* (population + offspring per
    /// generation). With the fitness cache on, the number actually computed
    /// is [`eval_stats.cache_misses`](EvalStats::cache_misses).
    pub evaluations: usize,
    /// Fitness-evaluation accounting (cache hits/misses, wall-clock time).
    pub eval_stats: EvalStats,
    /// Connectivity-repair activity (§4.1.3 "It is used rarely").
    pub repair_stats: RepairStats,
    /// Why the run returned (completion, early stop, or stall guard).
    pub stop_reason: StopReason,
}

/// Objective-evaluation accounting for one GA run.
///
/// The invariant `requested == cache_hits + cache_misses` always holds;
/// with [`GaSettings::fitness_cache`] off, `cache_hits == 0`. Hits and
/// misses depend only on the (deterministic) sequence of evaluated
/// topologies, so they are identical between serial and parallel runs with
/// the same seed; only `eval_seconds` is wall-clock and machine-dependent.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EvalStats {
    /// Costs requested across the run.
    pub requested: usize,
    /// Requests served from the chromosome-keyed memo cache. Duplicates
    /// *within* one batch count as hits: they are evaluated once.
    pub cache_hits: usize,
    /// Requests that actually ran the objective.
    pub cache_misses: usize,
    /// Wall-clock seconds spent inside objective evaluation (the timed
    /// region excludes cache bookkeeping).
    pub eval_seconds: f64,
    /// Cache misses answered *incrementally* by a stateful
    /// [`ObjectiveSession`] (shortest-path-tree
    /// repair instead of full re-routing). `delta_evals + full_evals ==
    /// cache_misses`. Unlike the cache counters, the split may vary with
    /// `settings.parallel` and thread count — which session sees which
    /// candidate is a scheduling detail — while every returned cost stays
    /// bit-identical. Not serialized into GA checkpoints: a resumed run
    /// restarts both counters at zero. Absent from trial records written
    /// before the split existed, which decode it as zero.
    #[serde(default)]
    pub delta_evals: usize,
    /// Cache misses answered by a full from-scratch evaluation (stateless
    /// objectives count every miss here).
    #[serde(default)]
    pub full_evals: usize,
}

impl EvalStats {
    /// Fraction of requests served from the cache (0 when nothing was
    /// requested).
    pub fn hit_rate(&self) -> f64 {
        if self.requested == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.requested as f64
        }
    }
}

/// The COLD genetic algorithm, generic over the [`Objective`].
#[derive(Debug, Clone)]
pub struct GeneticAlgorithm<O: Objective> {
    objective: O,
    settings: GaSettings,
}

impl<O: Objective> GeneticAlgorithm<O> {
    /// Creates an engine.
    ///
    /// # Panics
    /// Panics when `settings` are inconsistent (see
    /// [`GaSettings::validate`]).
    pub fn new(objective: O, settings: GaSettings) -> Self {
        Self::try_new(objective, settings).expect("invalid GA settings")
    }

    /// Fallible [`new`](Self::new): inconsistent settings are reported as
    /// [`GaError::InvalidSettings`] instead of aborting the process.
    pub fn try_new(objective: O, settings: GaSettings) -> Result<Self, GaError> {
        settings.validate().map_err(GaError::InvalidSettings)?;
        Ok(Self { objective, settings })
    }

    /// The settings in use.
    pub fn settings(&self) -> &GaSettings {
        &self.settings
    }

    /// The objective being minimized.
    pub fn objective(&self) -> &O {
        &self.objective
    }

    /// Runs the GA with no externally provided seed topologies
    /// (the plain "GA" line of Fig 3).
    pub fn run(&self) -> GaResult {
        self.run_seeded(&[])
    }

    /// Runs the GA with `seeds` added to the initial population — the
    /// "initialized GA" of Fig 3, guaranteed to end at least as good as
    /// the best seed.
    pub fn run_seeded(&self, seeds: &[AdjacencyMatrix]) -> GaResult {
        self.run_traced(seeds, None)
    }

    /// [`run_seeded`](Self::run_seeded) with an optional per-generation
    /// telemetry observer.
    ///
    /// The observer fires exactly once per *executed* generation (so
    /// `generations_run` times), after selection, with a
    /// [`GenerationRecord`] computed read-only from engine state: the
    /// observer never sees the population or the RNG, so a traced run is
    /// bit-identical to an untraced one. With `None`, no telemetry values
    /// (including the diversity scan) are computed at all.
    pub fn run_traced(
        &self,
        seeds: &[AdjacencyMatrix],
        observer: Option<&mut dyn GenerationObserver>,
    ) -> GaResult {
        self.try_run_traced(seeds, observer).expect("GA run failed")
    }

    /// Fallible [`run_traced`](Self::run_traced): an objective that
    /// produces a non-finite cost surfaces as
    /// [`GaError::NonFiniteCost`] instead of corrupting selection (or
    /// panicking), so ensemble drivers can record and retry the trial.
    pub fn try_run_traced(
        &self,
        seeds: &[AdjacencyMatrix],
        observer: Option<&mut dyn GenerationObserver>,
    ) -> Result<GaResult, GaError> {
        self.run_resumable(seeds, observer, None, None)
    }

    /// The master entry point: [`try_run_traced`](Self::try_run_traced)
    /// plus crash-safety hooks.
    ///
    /// With a [`CheckpointHook`], the engine hands a [`GaCheckpoint`] to
    /// the sink after every `every`-th completed generation. With
    /// `resume`, the run continues from the given snapshot instead of
    /// building a fresh initial population (`seeds` are ignored — they
    /// only influence generation 0, which already happened). A resumed
    /// run is bit-identical to an uninterrupted one with the same
    /// settings: the RNG stream continues mid-sequence, and the restored
    /// fitness cache reproduces the same hit/miss counters. Only
    /// `eval_stats.eval_seconds` is wall-clock and may differ.
    ///
    /// # Errors
    /// [`GaError::Checkpoint`] when `resume` disagrees with the engine's
    /// settings or objective shape; [`GaError::NonFiniteCost`] when the
    /// objective misbehaves.
    pub fn run_resumable(
        &self,
        seeds: &[AdjacencyMatrix],
        observer: Option<&mut dyn GenerationObserver>,
        checkpoint: Option<CheckpointHook<'_>>,
        resume: Option<GaCheckpoint>,
    ) -> Result<GaResult, GaError> {
        let init = |rng: &mut StdRng, _: Option<&[usize]>| {
            initial_population(&self.objective, &self.settings, seeds, rng)
        };
        self.run_hooked(init, observer, checkpoint, resume)
    }

    /// Runs the GA *warm-started* from a parent chromosome: generation 0
    /// is the (repaired) parent plus mutated perturbations of it — see
    /// [`warm_population`] — instead of the cold MST/clique/ER mix.
    ///
    /// With the parent in the population and elitism on, the run never
    /// ends worse than the parent under this engine's objective. The RNG
    /// stream is the engine's usual one (seeded from
    /// `settings.seed`): warm seeding consumes exactly `population - 1`
    /// mutation draws before the generation loop starts, so a warm run
    /// is as deterministic — and as resumable — as a cold one.
    ///
    /// # Errors
    /// [`GaError::InvalidSettings`] when the parent's node count does not
    /// match the objective; otherwise as
    /// [`run_resumable`](Self::run_resumable).
    pub fn run_warm(
        &self,
        parent: &AdjacencyMatrix,
        observer: Option<&mut dyn GenerationObserver>,
        checkpoint: Option<CheckpointHook<'_>>,
        resume: Option<GaCheckpoint>,
    ) -> Result<GaResult, GaError> {
        if parent.n() != self.objective.n() {
            return Err(GaError::InvalidSettings(format!(
                "warm-start parent has {} nodes, objective expects {}",
                parent.n(),
                self.objective.n()
            )));
        }
        let init = |rng: &mut StdRng, universe: Option<&[usize]>| {
            warm_population(&self.objective, &self.settings, parent, universe, rng)
        };
        self.run_hooked(init, observer, checkpoint, resume)
    }

    /// Runs [`evolve`] with the paper's elitist survivor selection, from
    /// the generation 0 that `init` builds.
    fn run_hooked(
        &self,
        init: impl FnOnce(&mut StdRng, Option<&[usize]>) -> Vec<AdjacencyMatrix>,
        observer: Option<&mut dyn GenerationObserver>,
        checkpoint: Option<CheckpointHook<'_>>,
        resume: Option<GaCheckpoint>,
    ) -> Result<GaResult, GaError> {
        if checkpoint.as_ref().is_some_and(|hook| hook.every == 0) {
            return Err(GaError::Checkpoint("checkpoint interval must be >= 1".into()));
        }
        let resume = resume.map(|ckpt| self.resume_from(ckpt)).transpose()?;
        let (run, stop_reason) = evolve(
            &mut &*self,
            &self.objective,
            &self.settings,
            init,
            resume,
            observer,
            checkpoint,
        )?;
        Ok(GaResult {
            best: run.population[0].clone(),
            history: run.history,
            final_population: run.population,
            generations_run: run.generation,
            evaluations: run.stats.requested,
            eval_stats: run.stats,
            repair_stats: run.repair_stats,
            stop_reason,
        })
    }

    /// Restores the loop state from a snapshot, rejecting one of another
    /// run: continuing under different settings or a different node count
    /// would silently change what the run means.
    fn resume_from(&self, ckpt: GaCheckpoint) -> Result<Run, GaError> {
        if ckpt.settings != self.settings {
            return Err(GaError::Checkpoint(
                "snapshot settings differ from engine settings".into(),
            ));
        }
        if ckpt.generation > self.settings.generations {
            return Err(GaError::Checkpoint(format!(
                "snapshot is {} generations in, past the configured {}",
                ckpt.generation, self.settings.generations
            )));
        }
        let n = self.objective.n();
        if let Some(ind) =
            ckpt.population.iter().find(|i| i.topology.n() != n || !i.cost.is_finite())
        {
            return Err(GaError::Checkpoint(format!(
                "snapshot member has {} nodes and cost {}; the objective needs {n} nodes and a \
                 finite cost",
                ind.topology.n(),
                ind.cost
            )));
        }
        Ok(Run {
            rng: StdRng::from_state(ckpt.rng_state),
            generation: ckpt.generation,
            values: ckpt.population.iter().map(|i| vec![i.cost]).collect(),
            population: ckpt.population,
            history: ckpt.history,
            stats: ckpt.eval_stats,
            repair_stats: ckpt.repair_stats,
            cache: self
                .settings
                .fitness_cache
                .then(|| ckpt.cache.into_iter().flatten().map(|(t, c)| (t, vec![c])).collect()),
        })
    }
}

/// Population members paired with their objective vectors.
pub(crate) type Pool = Vec<(Individual, Vec<f64>)>;

/// What an engine supplies to the shared loop [`evolve`]. The loop
/// evaluates objective vectors (a scalar cost has one component); every
/// pool a survivor step returns is sorted by [`Individual::cost`], the
/// parent-selection cost breeding uses.
pub(crate) trait Survival<'a> {
    /// Components every objective vector must have.
    fn width(&self) -> usize {
        1
    }
    /// Opens one worker's evaluation session.
    fn session(&self) -> Box<dyn MultiObjectiveSession + 'a>;
    /// Generation 0's survivor step.
    fn begin(&mut self, initial: Pool) -> Pool {
        self.select(Vec::new(), initial)
    }
    /// Survivor selection from the current generation and its offspring.
    fn select(&mut self, parents: Pool, offspring: Pool) -> Pool;
    /// The archive hypervolume after the last survivor step, for an engine
    /// that keeps one; it is then the history value in place of the best cost.
    fn hypervolume(&self) -> Option<f64> {
        None
    }
    /// How much the history value improved from `then` to `now`.
    fn gain(&self, then: f64, now: f64) -> f64;
}

/// What the loop carries between generations — what a checkpoint holds.
pub(crate) struct Run {
    pub(crate) rng: StdRng,
    /// Completed generations.
    pub(crate) generation: usize,
    /// The population, sorted by selection cost.
    pub(crate) population: Vec<Individual>,
    /// The objective vector of each member of `population`.
    pub(crate) values: Vec<Vec<f64>>,
    /// The history value after each generation, from generation 0.
    pub(crate) history: Vec<f64>,
    pub(crate) stats: EvalStats,
    pub(crate) repair_stats: RepairStats,
    /// Fitness memo keyed by chromosome, fitness being pure in the bitset.
    pub(crate) cache: Option<HashMap<AdjacencyMatrix, Vec<f64>>>,
}

/// The one generational loop, from `resume` or from the generation 0 that
/// `init` builds with the run's RNG and pruned mutation universe.
/// `geometry` supplies the node count, distances and nearest neighbours
/// that mutation and repair use; the observer and the checkpoint hook
/// only read the run state.
pub(crate) fn evolve<'a, S: Survival<'a>, G: Objective>(
    survival: &mut S,
    geometry: &G,
    settings: &GaSettings,
    init: impl FnOnce(&mut StdRng, Option<&[usize]>) -> Vec<AdjacencyMatrix>,
    resume: Option<Run>,
    mut observer: Option<&mut dyn GenerationObserver>,
    mut checkpoint: Option<CheckpointHook<'_>>,
) -> Result<(Run, StopReason), GaError> {
    // One evaluation session per worker thread, kept alive across
    // generations so stateful objectives (delta evaluators) can carry
    // routing state from parents to offspring.
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let workers = if settings.parallel { cores } else { 1 };
    let mut evaluator = Evaluator {
        sessions: (0..workers).map(|_| survival.session()).collect(),
        width: survival.width(),
    };

    // Candidate-link pruning: the sorted pair-index universe link
    // mutation may add from. A pair qualifies when either endpoint is
    // among the other's k nearest (the relation is not symmetric).
    let universe: Option<Vec<usize>> = settings.mutation_neighbors.map(|k| {
        let probe = AdjacencyMatrix::empty(geometry.n());
        let mut pairs: Vec<usize> = geometry
            .k_nearest(k)
            .into_iter()
            .enumerate()
            .flat_map(|(u, vs)| vs.into_iter().map(move |v| (u, v)))
            .map(|(u, v)| probe.pair_index(u, v))
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    });

    let mut run = match resume {
        Some(run) => run,
        None => {
            let mut rng = StdRng::seed_from_u64(settings.seed);
            let mut repair_stats = RepairStats::default();
            let mut stats = EvalStats::default();
            let mut cache = settings.fitness_cache.then(HashMap::new);
            // Seeding is one-shot, so it gets its own histogram rather
            // than a per-generation record field.
            let seed_start = cold_obs::timers_enabled().then(Instant::now);
            let mut topologies = init(&mut rng, universe.as_deref());
            // Init already connects every member; repair defensively so
            // the invariant is explicit.
            for t in &mut topologies {
                repair(t, geometry, &mut repair_stats);
            }
            if let Some(start) = seed_start {
                cold_obs::observe_seconds("ga.seed_seconds", start.elapsed().as_secs_f64());
            }
            let bases = vec![None; topologies.len()];
            let values = evaluator.evaluate_all(&topologies, &bases, cache.as_mut(), &mut stats)?;
            let (population, values): (Vec<_>, Vec<_>) =
                survival.begin(pool(topologies, values)).into_iter().unzip();
            let history = vec![survival.hypervolume().unwrap_or(population[0].cost)];
            Run { rng, generation: 0, population, values, history, stats, repair_stats, cache }
        }
    };

    // Strict improvement: distinct finite values never differ by zero, so
    // this is `now < prev` for a best cost, `now > prev` for a hypervolume.
    let improved = |s: &S, w: &[f64]| s.gain(w[0], w[1]) > 0.0;
    // Stall counter: trailing generations without strict improvement,
    // recomputed from the monotone history, so a resumed run restores it
    // without any checkpoint schema change.
    let mut stall_count =
        run.history.windows(2).rev().take_while(|w| !improved(survival, w)).count();
    let mut stop_reason = StopReason::Completed;

    // Telemetry deltas: counter states at the end of the previous
    // generation, so each record reports per-generation activity.
    let mut prev = (run.stats, run.repair_stats.repaired);
    while run.generation < settings.generations {
        run.generation += 1;
        // Phase attribution (selection/crossover/mutation vs repair)
        // feeds the per-generation record and the `ga.*` histograms;
        // timing stays off unless someone is listening so the disabled
        // path keeps its <2% overhead bar.
        let timed = observer.is_some() || cold_obs::timers_enabled();
        let breed_start = timed.then(Instant::now);
        // Offspring topologies (children built single-threaded from one
        // RNG stream for determinism; evaluation is the parallel part).
        let population = &run.population;
        let mut children: Vec<AdjacencyMatrix> =
            Vec::with_capacity(settings.num_crossover + settings.num_mutation);
        // Each child's lineage — the population index of the topology it
        // was derived from — becomes the delta-evaluation base hint.
        // Repair may perturb the child further; sessions diff against the
        // hint themselves, so a stale hint only costs work, never
        // correctness.
        let mut base_idx: Vec<usize> = Vec::with_capacity(children.capacity());
        for _ in 0..settings.num_crossover {
            let parents = select_parents(population, settings, &mut run.rng);
            base_idx.push(parents[0]); // best (lowest-cost) parent
            children.push(crossover_child(
                population,
                &parents,
                settings.uniform_crossover_weights,
                &mut run.rng,
            ));
        }
        let weights = inverse_cost_weights(population);
        for _ in 0..settings.num_mutation {
            let src = weighted_pick(&weights, run.rng.gen_range(0.0..1.0));
            let mut child = population[src].topology.clone();
            mutate(&mut child, geometry, settings, universe.as_deref(), &mut run.rng);
            base_idx.push(src);
            children.push(child);
        }
        let breed_seconds = breed_start.map_or(0.0, |s| s.elapsed().as_secs_f64());
        let repair_start = timed.then(Instant::now);
        for c in &mut children {
            repair(c, geometry, &mut run.repair_stats);
        }
        let repair_seconds = repair_start.map_or(0.0, |s| s.elapsed().as_secs_f64());
        cold_obs::observe_seconds("ga.breed_seconds", breed_seconds);
        cold_obs::observe_seconds("ga.repair_seconds", repair_seconds);
        let bases: Vec<Option<&AdjacencyMatrix>> =
            base_idx.iter().map(|&i| Some(&population[i].topology)).collect();
        let child_values =
            evaluator.evaluate_all(&children, &bases, run.cache.as_mut(), &mut run.stats)?;

        let parents = run.population.drain(..).zip(run.values.drain(..)).collect();
        (run.population, run.values) =
            survival.select(parents, pool(children, child_values)).into_iter().unzip();
        let hypervolume = survival.hypervolume();
        let now = hypervolume.unwrap_or(run.population[0].cost);
        run.history.push(now);
        if let Some(hv) = hypervolume {
            cold_obs::gauge_set_f64("ga.hypervolume", hv);
        }

        if let Some(obs) = observer.as_deref_mut() {
            let hypervolume = hypervolume.unwrap_or(0.0);
            let phases = [breed_seconds, repair_seconds];
            obs.on_generation(&generation_record(&run, prev, hypervolume, settings, phases));
            prev = (run.stats, run.repair_stats.repaired);
        }

        let len = run.history.len();
        let plateaued = settings.early_stop.filter(|es| len > es.window).is_some_and(|es| {
            let then = run.history[len - 1 - es.window];
            survival.gain(then, now) <= es.rel_tol * then.abs()
        });
        if plateaued {
            stop_reason = StopReason::EarlyStopped;
            break;
        }
        stall_count = if improved(survival, &run.history[len - 2..]) { 0 } else { stall_count + 1 };
        if settings.stall_gens.is_some_and(|k| stall_count >= k) {
            stop_reason = StopReason::Stalled;
            break;
        }

        // Snapshot the committed generation (unless a guard just ended the
        // run); the RNG state is post-generation, so a resume continues
        // the stream exactly.
        let last = run.generation >= settings.generations;
        if let Some(hook) = checkpoint.as_mut().filter(|h| run.generation % h.every == 0 && !last) {
            let cache = run.cache.as_ref().map(|c| c.iter().map(|(t, v)| (t.clone(), v[0])));
            let snapshot = GaCheckpoint {
                settings: *settings,
                generation: run.generation,
                rng_state: run.rng.state(),
                population: run.population.clone(),
                history: run.history.clone(),
                eval_stats: run.stats,
                repair_stats: run.repair_stats,
                cache: cache.map(Iterator::collect),
            };
            let _sink_timer = cold_obs::timer("ga.checkpoint_sink");
            (hook.sink)(&snapshot);
        }
    }
    Ok((run, stop_reason))
}

/// Pairs topologies with their objective vectors, component 0 standing
/// in as selection cost until a survivor step sets it.
fn pool(topologies: Vec<AdjacencyMatrix>, values: Vec<Vec<f64>>) -> Pool {
    topologies.into_iter().zip(values).map(|(t, v)| (Individual::new(t, v[0]), v)).collect()
}

/// The per-worker sessions and the cached, parallel batch evaluation.
pub(crate) struct Evaluator<'a> {
    /// One session per worker thread; a single one evaluates serially.
    pub(crate) sessions: Vec<Box<dyn MultiObjectiveSession + 'a>>,
    pub(crate) width: usize,
}

impl Evaluator<'_> {
    /// Evaluates a batch of topologies, consulting and filling the fitness
    /// memo `cache` when one is supplied. `bases` carries each candidate's
    /// lineage hint for incremental sessions (aligned with `topologies`).
    ///
    /// The cache phase is serial in both serial and parallel modes, so the
    /// hit/miss counters — and, fitness being pure, every returned value
    /// — are independent of `settings.parallel`. Within-batch duplicates
    /// resolve to one evaluation even on the very first batch.
    pub(crate) fn evaluate_all(
        &mut self,
        topologies: &[AdjacencyMatrix],
        bases: &[Option<&AdjacencyMatrix>],
        cache: Option<&mut HashMap<AdjacencyMatrix, Vec<f64>>>,
        stats: &mut EvalStats,
    ) -> Result<Vec<Vec<f64>>, GaError> {
        debug_assert_eq!(topologies.len(), bases.len());
        stats.requested += topologies.len();
        let Some(cache) = cache else {
            stats.cache_misses += topologies.len();
            return self.evaluate_batch(&topologies.iter().collect::<Vec<_>>(), bases, stats);
        };
        // Resolve each request to Ok(cached value) or Err(index into the
        // unique pending list).
        let mut pending: Vec<&AdjacencyMatrix> = Vec::new();
        let mut pending_bases: Vec<Option<&AdjacencyMatrix>> = Vec::new();
        let mut first_seen: HashMap<&AdjacencyMatrix, usize> = HashMap::new();
        let resolved: Vec<Result<Vec<f64>, usize>> = topologies
            .iter()
            .zip(bases)
            .map(|(t, b)| {
                if let Some(c) = cache.get(t) {
                    stats.cache_hits += 1;
                    Ok(c.clone())
                } else if let Some(&k) = first_seen.get(t) {
                    stats.cache_hits += 1;
                    Err(k)
                } else {
                    stats.cache_misses += 1;
                    first_seen.insert(t, pending.len());
                    pending.push(t);
                    pending_bases.push(*b);
                    Err(pending.len() - 1)
                }
            })
            .collect();
        let fresh = self.evaluate_batch(&pending, &pending_bases, stats)?;
        for (t, c) in pending.iter().zip(&fresh) {
            cache.insert((*t).clone(), c.clone());
        }
        Ok(resolved
            .into_iter()
            .map(|r| match r {
                Ok(c) => c,
                Err(k) => fresh[k].clone(),
            })
            .collect())
    }

    /// Runs the sessions over `batch`, in parallel when there are several,
    /// adding the wall-clock time to `stats.eval_seconds`. Every value is
    /// validated here, the one boundary all evaluations pass: a wrong
    /// component count or a NaN/∞ is an error in release builds too (a NaN
    /// cost would otherwise win every tournament via the `EPSILON` clamp
    /// in `inverse_cost_weights`).
    fn evaluate_batch(
        &mut self,
        batch: &[&AdjacencyMatrix],
        bases: &[Option<&AdjacencyMatrix>],
        stats: &mut EvalStats,
    ) -> Result<Vec<Vec<f64>>, GaError> {
        let _batch_timer = cold_obs::timer("ga.evaluate_batch");
        let start = Instant::now();
        let sessions = &mut self.sessions;
        let values: Vec<Vec<f64>> = if batch.len() < 4 || sessions.len() == 1 {
            let session = &mut sessions[0];
            batch.iter().zip(bases).map(|(t, b)| session.objectives(t, *b)).collect()
        } else {
            let workers = sessions.len().min(batch.len());
            let mut values = vec![Vec::new(); batch.len()];
            let chunk = batch.len().div_ceil(workers);
            crossbeam::scope(|scope| {
                for (((slot, topos), base_chunk), session) in values
                    .chunks_mut(chunk)
                    .zip(batch.chunks(chunk))
                    .zip(bases.chunks(chunk))
                    .zip(sessions.iter_mut())
                {
                    scope.spawn(move |_| {
                        for ((v, t), b) in slot.iter_mut().zip(topos).zip(base_chunk) {
                            *v = session.objectives(t, *b);
                        }
                    });
                }
            })
            .expect("fitness evaluation worker panicked");
            values
        };
        stats.eval_seconds += start.elapsed().as_secs_f64();
        // Session counters are cumulative; publish the current totals so
        // checkpoints and per-generation records see a consistent split.
        stats.delta_evals = sessions.iter().map(|s| s.delta_evals()).sum();
        stats.full_evals = sessions.iter().map(|s| s.full_evals()).sum();
        for (batch_index, v) in values.iter().enumerate() {
            if v.len() != self.width {
                return Err(GaError::InvalidSettings(format!(
                    "objective returned {} components, declared {}",
                    v.len(),
                    self.width
                )));
            }
            if let Some(&bad) = v.iter().find(|c| !c.is_finite()) {
                return Err(GaError::NonFiniteCost {
                    batch_index,
                    cost: bad,
                    edges: batch[batch_index].edge_count(),
                });
            }
        }
        Ok(values)
    }
}

/// The telemetry record of a just-selected generation; `best`, `mean` and
/// `worst` summarize component 0 (the build cost). Only built for an
/// attached observer, so untraced runs skip the diversity scan.
fn generation_record(
    run: &Run,
    (prev_stats, prev_repaired): (EvalStats, usize),
    hypervolume: f64,
    settings: &GaSettings,
    [breed_seconds, repair_seconds]: [f64; 2],
) -> GenerationRecord {
    let costs = run.values.iter().map(|v| v[0]);
    let mean = costs.clone().sum::<f64>() / run.values.len() as f64;
    let best = costs.clone().min_by(f64::total_cmp).expect("nonempty population");
    let worst = costs.max_by(f64::total_cmp).expect("nonempty population");
    let distinct: HashSet<&AdjacencyMatrix> = run.population.iter().map(|i| &i.topology).collect();
    let stats = &run.stats;
    GenerationRecord {
        generation: run.generation,
        best,
        mean,
        worst,
        diversity: distinct.len() as f64 / run.population.len() as f64,
        cache_hits: stats.cache_hits - prev_stats.cache_hits,
        cache_misses: stats.cache_misses - prev_stats.cache_misses,
        delta_evals: stats.delta_evals - prev_stats.delta_evals,
        full_evals: stats.full_evals - prev_stats.full_evals,
        crossover: settings.num_crossover,
        mutation: settings.num_mutation,
        repairs: run.repair_stats.repaired - prev_repaired,
        eval_seconds: stats.eval_seconds - prev_stats.eval_seconds,
        breed_seconds,
        repair_seconds,
        hypervolume,
    }
}

/// The paper's survivor selection (§4.1 step 5): the `num_saved` best
/// parents plus every offspring, sorted by cost.
impl<'a, O: Objective> Survival<'a> for &'a GeneticAlgorithm<O> {
    fn session(&self) -> Box<dyn MultiObjectiveSession + 'a> {
        Box::new(ScalarSession(self.objective.session()))
    }

    fn select(&mut self, parents: Pool, offspring: Pool) -> Pool {
        let mut next: Pool =
            parents.into_iter().take(self.settings.num_saved).chain(offspring).collect();
        next.sort_by(|a, b| by_cost(&a.0, &b.0));
        next
    }

    /// A best cost improves by falling.
    fn gain(&self, then: f64, now: f64) -> f64 {
        then - now
    }
}

/// A scalar session as the loop sees it: one-component vectors.
struct ScalarSession<'a>(Box<dyn ObjectiveSession + 'a>);

impl MultiObjectiveSession for ScalarSession<'_> {
    fn objectives(
        &mut self,
        topology: &AdjacencyMatrix,
        base: Option<&AdjacencyMatrix>,
    ) -> Vec<f64> {
        vec![self.0.cost(topology, base)]
    }
    fn delta_evals(&self) -> usize {
        self.0.delta_evals()
    }
    fn full_evals(&self) -> usize {
        self.0.full_evals()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::settings::EarlyStop;
    use crate::test_objective::LineObjective;
    use cold_graph::components::matrix_is_connected;

    fn engine(n: usize, k0: f64, k1: f64, k3: f64, seed: u64) -> GeneticAlgorithm<LineObjective> {
        GeneticAlgorithm::new(LineObjective { n, k0, k1, k3 }, GaSettings::quick(seed))
    }

    #[test]
    fn history_is_monotone_nonincreasing() {
        let r = engine(10, 5.0, 1.0, 2.0, 1).run();
        for w in r.history.windows(2) {
            assert!(w[1] <= w[0] + 1e-12, "best cost regressed: {:?}", w);
        }
        assert_eq!(r.generations_run, GaSettings::quick(1).generations);
    }

    #[test]
    fn best_is_connected_and_first_in_population() {
        let r = engine(9, 3.0, 1.0, 0.0, 2).run();
        assert!(matrix_is_connected(&r.best.topology));
        assert_eq!(r.final_population[0].cost, r.best.cost);
        for ind in &r.final_population {
            assert!(matrix_is_connected(&ind.topology));
        }
    }

    #[test]
    fn k1_dominant_finds_mst() {
        // With only length costs, the optimum is the line-path MST with
        // total length n−1 and k0 per edge.
        let n = 8;
        let r = engine(n, 1.0, 100.0, 0.0, 3).run();
        let mst_cost = (n - 1) as f64 * (1.0 + 100.0);
        assert!((r.best.cost - mst_cost).abs() < 1e-9, "best {} vs MST {}", r.best.cost, mst_cost);
    }

    #[test]
    fn k3_dominant_tends_toward_hub_and_spoke() {
        // Huge hub cost ⇒ the optimum has exactly one core node. §5 shows
        // the *plain* GA struggles at large k3 (Fig 3 right) — that is the
        // motivation for the initialized GA — so for the plain quick GA we
        // only require clear progress toward a hubby topology…
        let r = engine(8, 0.1, 0.1, 1000.0, 4).run();
        let hubs = r.best.topology.degrees().iter().filter(|&&d| d > 1).count();
        assert!(hubs <= 3, "plain GA should get close, got {hubs} hubs");
        // …while the GA seeded with a star (as the initialized GA would be)
        // must find the single-hub optimum.
        let obj = LineObjective { n: 8, k0: 0.1, k1: 0.1, k3: 1000.0 };
        let star =
            AdjacencyMatrix::from_edges(8, &(1..8).map(|v| (0, v)).collect::<Vec<_>>()).unwrap();
        let seeded = GeneticAlgorithm::new(obj, GaSettings::quick(4)).run_seeded(&[star]);
        let hubs = seeded.best.topology.degrees().iter().filter(|&&d| d > 1).count();
        assert_eq!(hubs, 1, "initialized GA must reach the single-hub optimum");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = engine(8, 5.0, 1.0, 2.0, 7).run();
        let b = engine(8, 5.0, 1.0, 2.0, 7).run();
        assert_eq!(a.best.cost, b.best.cost);
        assert_eq!(a.best.topology, b.best.topology);
        assert_eq!(a.history, b.history);
    }

    #[test]
    fn parallel_and_serial_agree() {
        let mut s = GaSettings::quick(8);
        s.parallel = false;
        let serial =
            GeneticAlgorithm::new(LineObjective { n: 8, k0: 5.0, k1: 1.0, k3: 2.0 }, s).run();
        let parallel = engine(8, 5.0, 1.0, 2.0, 8).run();
        assert_eq!(serial.best.topology, parallel.best.topology);
        assert_eq!(serial.history, parallel.history);
    }

    #[test]
    fn seeding_guarantees_at_least_seed_quality() {
        // Seed with the known optimum for k1-dominant costs (the path) and
        // verify the GA never does worse.
        let obj = LineObjective { n: 8, k0: 1.0, k1: 50.0, k3: 0.0 };
        let path = AdjacencyMatrix::from_edges(8, &(0..7).map(|i| (i, i + 1)).collect::<Vec<_>>())
            .unwrap();
        let seed_cost = obj.cost(&path);
        let ga = GeneticAlgorithm::new(obj, GaSettings::quick(9));
        let r = ga.run_seeded(&[path]);
        assert!(r.best.cost <= seed_cost + 1e-12);
    }

    #[test]
    fn early_stop_shortens_run() {
        let mut s = GaSettings::quick(10);
        s.early_stop = Some(EarlyStop { window: 3, rel_tol: 0.0 });
        let r = GeneticAlgorithm::new(LineObjective { n: 6, k0: 1.0, k1: 10.0, k3: 0.0 }, s).run();
        assert!(r.generations_run <= GaSettings::quick(10).generations);
        // The small instance converges almost immediately, so the stop rule
        // must fire well before the cap.
        assert!(r.generations_run < 40, "ran {} generations", r.generations_run);
    }

    #[test]
    fn evaluations_are_counted() {
        let s = GaSettings::quick(11);
        let r = GeneticAlgorithm::new(LineObjective { n: 6, k0: 1.0, k1: 1.0, k3: 0.0 }, s).run();
        let expected = s.population + s.generations * (s.num_crossover + s.num_mutation);
        assert_eq!(r.evaluations, expected);
        assert_eq!(r.eval_stats.requested, expected);
        assert_eq!(r.eval_stats.cache_hits + r.eval_stats.cache_misses, expected);
    }

    /// Counts how many times the objective is actually evaluated.
    struct CountingObjective {
        inner: LineObjective,
        calls: AtomicUsize,
    }

    impl CountingObjective {
        fn new(inner: LineObjective) -> Self {
            Self { inner, calls: AtomicUsize::new(0) }
        }
    }

    impl Objective for CountingObjective {
        fn n(&self) -> usize {
            self.inner.n()
        }

        fn distance(&self, u: usize, v: usize) -> f64 {
            self.inner.distance(u, v)
        }

        fn cost(&self, topology: &AdjacencyMatrix) -> f64 {
            self.calls.fetch_add(1, AtomicOrdering::Relaxed);
            self.inner.cost(topology)
        }
    }

    #[test]
    fn duplicates_in_one_batch_evaluated_once() {
        let obj = CountingObjective::new(LineObjective { n: 5, k0: 1.0, k1: 1.0, k3: 0.0 });
        let mut s = GaSettings::quick(1);
        s.parallel = false;
        let ga = GeneticAlgorithm::new(&obj, s);
        let a = AdjacencyMatrix::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let b = AdjacencyMatrix::complete(5);
        let batch = vec![a.clone(), a.clone(), b.clone(), a.clone()];
        let bases = vec![None; batch.len()];
        let session = ScalarSession(ga.objective().session());
        let mut evaluator = Evaluator { sessions: vec![Box::new(session)], width: 1 };
        let mut cache = Some(std::collections::HashMap::new());
        let mut stats = EvalStats::default();
        let costs = evaluator.evaluate_all(&batch, &bases, cache.as_mut(), &mut stats).unwrap();
        assert_eq!(obj.calls.load(AtomicOrdering::Relaxed), 2, "a and b each routed once");
        assert_eq!(costs[0], costs[1]);
        assert_eq!(costs[1], costs[3]);
        assert_eq!(stats.requested, 4);
        assert_eq!(stats.cache_hits, 2);
        assert_eq!(stats.cache_misses, 2);
        assert_eq!(stats.full_evals, 2, "stateless sessions answer every miss in full");
        assert_eq!(stats.delta_evals, 0);
        // A second identical batch is served entirely from the cache.
        let again = evaluator.evaluate_all(&batch, &bases, cache.as_mut(), &mut stats).unwrap();
        assert_eq!(again, costs);
        assert_eq!(obj.calls.load(AtomicOrdering::Relaxed), 2);
        assert_eq!(stats.cache_hits, 6);
        assert_eq!(stats.cache_misses, 2);
        assert_eq!(stats.full_evals, 2);
    }

    #[test]
    fn cache_misses_equal_actual_objective_calls() {
        let obj = CountingObjective::new(LineObjective { n: 6, k0: 2.0, k1: 1.0, k3: 1.0 });
        let mut s = GaSettings::quick(12);
        s.parallel = false;
        let r = GeneticAlgorithm::new(&obj, s).run();
        assert_eq!(r.eval_stats.cache_misses, obj.calls.load(AtomicOrdering::Relaxed));
        assert!(r.eval_stats.cache_hits > 0, "a converging quick run must produce duplicates");
        assert_eq!(r.eval_stats.cache_hits + r.eval_stats.cache_misses, r.evaluations);
        assert!(r.eval_stats.eval_seconds >= 0.0);
    }

    #[test]
    fn cache_counters_agree_across_parallelism() {
        let mut s = GaSettings::quick(13);
        s.parallel = false;
        let serial =
            GeneticAlgorithm::new(LineObjective { n: 8, k0: 5.0, k1: 1.0, k3: 2.0 }, s).run();
        let parallel = engine(8, 5.0, 1.0, 2.0, 13).run();
        assert_eq!(serial.eval_stats.cache_hits, parallel.eval_stats.cache_hits);
        assert_eq!(serial.eval_stats.cache_misses, parallel.eval_stats.cache_misses);
        assert_eq!(serial.eval_stats.requested, parallel.eval_stats.requested);
    }

    #[test]
    fn cached_run_is_bit_identical_to_uncached() {
        let obj = LineObjective { n: 8, k0: 5.0, k1: 1.0, k3: 2.0 };
        let mut s = GaSettings::quick(14);
        s.fitness_cache = false;
        let uncached = GeneticAlgorithm::new(&obj, s).run();
        assert_eq!(uncached.eval_stats.cache_hits, 0, "cache off must never report hits");
        assert_eq!(uncached.eval_stats.cache_misses, uncached.evaluations);
        let cached = GeneticAlgorithm::new(&obj, GaSettings::quick(14)).run();
        assert_eq!(cached.best.cost, uncached.best.cost);
        assert_eq!(cached.best.topology, uncached.best.topology);
        assert_eq!(cached.history, uncached.history);
        let fp: Vec<_> = cached.final_population.iter().map(|i| i.cost).collect();
        let fu: Vec<_> = uncached.final_population.iter().map(|i| i.cost).collect();
        assert_eq!(fp, fu);
    }

    /// Collects every record handed to the observer.
    #[derive(Default)]
    struct RecordingObserver {
        records: Vec<GenerationRecord>,
    }

    impl GenerationObserver for RecordingObserver {
        fn on_generation(&mut self, record: &GenerationRecord) {
            self.records.push(record.clone());
        }
    }

    #[test]
    fn observer_fires_once_per_generation_with_monotone_best() {
        let ga = engine(8, 5.0, 1.0, 2.0, 21);
        let mut obs = RecordingObserver::default();
        let r = ga.run_traced(&[], Some(&mut obs));
        assert_eq!(
            obs.records.len(),
            r.generations_run,
            "exactly one observer event per executed generation"
        );
        assert_eq!(r.generations_run, ga.settings().generations, "no early stop configured");
        for (k, rec) in obs.records.iter().enumerate() {
            assert_eq!(rec.generation, k + 1, "generations are 1-based and in order");
            // Elitism ⇒ the best of generation g equals history[g].
            assert_eq!(rec.best, r.history[k + 1]);
            assert!(
                rec.best <= rec.mean + 1e-12 && rec.mean <= rec.worst + 1e-12,
                "best ≤ mean ≤ worst must hold ({} / {} / {})",
                rec.best,
                rec.mean,
                rec.worst
            );
            assert!(rec.diversity > 0.0 && rec.diversity <= 1.0);
            assert_eq!(rec.crossover, ga.settings().num_crossover);
            assert_eq!(rec.mutation, ga.settings().num_mutation);
            assert!(rec.eval_seconds >= 0.0);
        }
        for w in obs.records.windows(2) {
            assert!(w[1].best <= w[0].best + 1e-12, "best fitness regressed: {w:?}");
        }
        // Per-generation deltas sum back to the run totals (generation 0's
        // initial-population evaluations are not observer events).
        let hits: usize = obs.records.iter().map(|r| r.cache_hits).sum();
        let misses: usize = obs.records.iter().map(|r| r.cache_misses).sum();
        let gen0 = ga.settings().population;
        assert_eq!(hits + misses + gen0, r.eval_stats.requested);
    }

    #[test]
    fn observer_respects_early_stop() {
        let mut s = GaSettings::quick(22);
        s.early_stop = Some(EarlyStop { window: 3, rel_tol: 0.0 });
        let ga = GeneticAlgorithm::new(LineObjective { n: 6, k0: 1.0, k1: 10.0, k3: 0.0 }, s);
        let mut obs = RecordingObserver::default();
        let r = ga.run_traced(&[], Some(&mut obs));
        assert!(r.generations_run < s.generations, "early stop must fire on this instance");
        assert_eq!(obs.records.len(), r.generations_run);
    }

    #[test]
    fn observed_run_is_bit_identical_to_unobserved() {
        let plain = engine(8, 5.0, 1.0, 2.0, 23).run();
        let mut obs = RecordingObserver::default();
        let traced = engine(8, 5.0, 1.0, 2.0, 23).run_traced(&[], Some(&mut obs));
        assert_eq!(plain.best.cost, traced.best.cost);
        assert_eq!(plain.best.topology, traced.best.topology);
        assert_eq!(plain.history, traced.history);
        // eval_seconds is wall-clock; only the counters are deterministic.
        assert_eq!(plain.eval_stats.requested, traced.eval_stats.requested);
        assert_eq!(plain.eval_stats.cache_hits, traced.eval_stats.cache_hits);
        assert_eq!(plain.eval_stats.cache_misses, traced.eval_stats.cache_misses);
        let fp: Vec<_> = plain.final_population.iter().map(|i| i.cost).collect();
        let ft: Vec<_> = traced.final_population.iter().map(|i| i.cost).collect();
        assert_eq!(fp, ft);
    }

    /// Captures every checkpoint the engine emits.
    fn run_with_checkpoints(
        ga: &GeneticAlgorithm<LineObjective>,
        every: usize,
    ) -> (GaResult, Vec<GaCheckpoint>) {
        let mut snaps = Vec::new();
        let mut sink = |c: &GaCheckpoint| snaps.push(c.clone());
        let hook = CheckpointHook { every, sink: &mut sink };
        let r = ga.run_resumable(&[], None, Some(hook), None).unwrap();
        (r, snaps)
    }

    fn assert_results_bit_identical(a: &GaResult, b: &GaResult) {
        assert_eq!(a.best.cost, b.best.cost);
        assert_eq!(a.best.topology, b.best.topology);
        assert_eq!(a.history, b.history);
        assert_eq!(a.generations_run, b.generations_run);
        assert_eq!(a.evaluations, b.evaluations);
        // eval_seconds is wall-clock; every other stat is deterministic.
        assert_eq!(a.eval_stats.requested, b.eval_stats.requested);
        assert_eq!(a.eval_stats.cache_hits, b.eval_stats.cache_hits);
        assert_eq!(a.eval_stats.cache_misses, b.eval_stats.cache_misses);
        assert_eq!(a.repair_stats, b.repair_stats);
        assert_eq!(a.stop_reason, b.stop_reason);
        let fa: Vec<_> = a.final_population.iter().map(|i| (i.topology.clone(), i.cost)).collect();
        let fb: Vec<_> = b.final_population.iter().map(|i| (i.topology.clone(), i.cost)).collect();
        assert_eq!(fa, fb);
    }

    #[test]
    fn checkpointed_run_is_bit_identical_to_plain() {
        let ga = engine(8, 5.0, 1.0, 2.0, 31);
        let plain = ga.run();
        let (snapped, snaps) = run_with_checkpoints(&ga, 5);
        assert_results_bit_identical(&plain, &snapped);
        let expected = (ga.settings().generations - 1) / 5;
        assert_eq!(snaps.len(), expected, "one snapshot per 5 completed generations");
        for s in &snaps {
            assert_eq!(s.generation + 1, s.history.len());
            assert!(s.cache.is_some(), "quick settings keep the fitness cache on");
        }
    }

    #[test]
    fn resume_from_any_checkpoint_is_bit_identical() {
        let ga = engine(8, 5.0, 1.0, 2.0, 32);
        let uninterrupted = ga.run();
        let (_, snaps) = run_with_checkpoints(&ga, 7);
        assert!(snaps.len() >= 2, "need several snapshots to make this meaningful");
        for snap in snaps {
            // Round-trip through JSON first: resuming from the *serialized*
            // form is what the integration path exercises.
            let restored = GaCheckpoint::from_json(&snap.to_json(), 8, ga.settings()).unwrap();
            let resumed = ga.run_resumable(&[], None, None, Some(restored)).unwrap();
            assert_results_bit_identical(&uninterrupted, &resumed);
        }
    }

    #[test]
    fn resume_rejects_mismatched_settings() {
        let ga = engine(8, 5.0, 1.0, 2.0, 33);
        let (_, snaps) = run_with_checkpoints(&ga, 5);
        let snap = snaps.into_iter().next().unwrap();
        let other = engine(8, 5.0, 1.0, 2.0, 34); // different seed ⇒ different run
        let err = other.run_resumable(&[], None, None, Some(snap.clone())).unwrap_err();
        assert!(matches!(err, GaError::Checkpoint(_)), "got {err:?}");
        // Node-count mismatch is also rejected.
        let small = engine(6, 5.0, 1.0, 2.0, 33);
        let err = small.run_resumable(&[], None, None, Some(snap)).unwrap_err();
        assert!(matches!(err, GaError::Checkpoint(_)), "got {err:?}");
    }

    #[test]
    fn zero_checkpoint_interval_is_rejected() {
        let ga = engine(6, 1.0, 1.0, 0.0, 35);
        let mut sink = |_: &GaCheckpoint| {};
        let hook = CheckpointHook { every: 0, sink: &mut sink };
        let err = ga.run_resumable(&[], None, Some(hook), None).unwrap_err();
        assert!(matches!(err, GaError::Checkpoint(_)), "got {err:?}");
    }

    /// An objective that returns NaN for any topology with at least
    /// `poison_at` edges — the misbehaving-cost-model stand-in.
    struct PoisonObjective {
        inner: LineObjective,
        poison_at: usize,
    }

    impl Objective for PoisonObjective {
        fn n(&self) -> usize {
            self.inner.n()
        }
        fn distance(&self, u: usize, v: usize) -> f64 {
            self.inner.distance(u, v)
        }
        fn cost(&self, topology: &AdjacencyMatrix) -> f64 {
            if topology.edge_count() >= self.poison_at {
                f64::NAN
            } else {
                self.inner.cost(topology)
            }
        }
    }

    #[test]
    fn non_finite_cost_is_a_typed_error_not_a_winner() {
        // The initial population always contains the clique, which has the
        // maximum edge count, so poisoning dense topologies trips on
        // generation 0 in every profile (this guards the release-build
        // path where `debug_assert!` is compiled out).
        let obj = PoisonObjective {
            inner: LineObjective { n: 6, k0: 1.0, k1: 1.0, k3: 0.0 },
            poison_at: 10,
        };
        let err = GeneticAlgorithm::new(obj, GaSettings::quick(36))
            .try_run_traced(&[], None)
            .unwrap_err();
        match err {
            GaError::NonFiniteCost { cost, edges, .. } => {
                assert!(cost.is_nan());
                assert!(edges >= 10);
            }
            other => panic!("expected NonFiniteCost, got {other:?}"),
        }
    }

    /// A flat objective: nothing ever strictly improves, so the stall
    /// guard must fire after exactly `stall_gens` generations.
    struct FlatObjective {
        n: usize,
    }

    impl Objective for FlatObjective {
        fn n(&self) -> usize {
            self.n
        }
        fn distance(&self, _: usize, _: usize) -> f64 {
            1.0
        }
        fn cost(&self, _: &AdjacencyMatrix) -> f64 {
            42.0
        }
    }

    #[test]
    fn stop_reason_reflects_how_the_run_ended() {
        let full = engine(6, 1.0, 1.0, 0.0, 40).run();
        assert_eq!(full.stop_reason, StopReason::Completed);

        let mut s = GaSettings::quick(40);
        s.early_stop = Some(EarlyStop { window: 3, rel_tol: 0.0 });
        let early =
            GeneticAlgorithm::new(LineObjective { n: 6, k0: 1.0, k1: 10.0, k3: 0.0 }, s).run();
        assert_eq!(early.stop_reason, StopReason::EarlyStopped);
    }

    #[test]
    fn stall_guard_terminates_flat_runs() {
        let mut s = GaSettings::quick(41);
        s.stall_gens = Some(4);
        let r = GeneticAlgorithm::new(FlatObjective { n: 6 }, s).run();
        assert_eq!(r.stop_reason, StopReason::Stalled);
        assert_eq!(r.generations_run, 4, "flat objective stalls after exactly stall_gens");
        assert_eq!(r.history.len(), 5);
    }

    #[test]
    fn stall_counter_survives_resume_bit_identically() {
        // The stall counter is recomputed from `history` on resume, so a
        // resumed stalled run must end at the same generation with the
        // same stop reason as an uninterrupted one.
        let mut s = GaSettings::quick(42);
        s.stall_gens = Some(6);
        let ga = GeneticAlgorithm::new(FlatObjective { n: 6 }, s);
        let uninterrupted = ga.run_resumable(&[], None, None, None).unwrap();
        assert_eq!(uninterrupted.stop_reason, StopReason::Stalled);
        let mut snaps = Vec::new();
        let mut sink = |c: &GaCheckpoint| snaps.push(c.clone());
        let hook = CheckpointHook { every: 2, sink: &mut sink };
        ga.run_resumable(&[], None, Some(hook), None).unwrap();
        assert!(snaps.len() >= 2, "expected snapshots at generations 2 and 4");
        for snap in snaps {
            let restored = GaCheckpoint::from_json(&snap.to_json(), 6, ga.settings()).unwrap();
            let resumed = ga.run_resumable(&[], None, None, Some(restored)).unwrap();
            assert_results_bit_identical(&uninterrupted, &resumed);
        }
    }

    #[test]
    fn warm_run_is_deterministic_and_never_worse_than_parent() {
        let obj = LineObjective { n: 8, k0: 5.0, k1: 1.0, k3: 2.0 };
        let parent =
            AdjacencyMatrix::from_edges(8, &(0..7).map(|i| (i, i + 1)).collect::<Vec<_>>())
                .unwrap();
        let parent_cost = obj.cost(&parent);
        let ga = GeneticAlgorithm::new(&obj, GaSettings::quick(51));
        let a = ga.run_warm(&parent, None, None, None).unwrap();
        let b = ga.run_warm(&parent, None, None, None).unwrap();
        assert_eq!(a.best.topology, b.best.topology);
        assert_eq!(a.history, b.history);
        assert!(a.best.cost <= parent_cost + 1e-12, "elitism keeps the parent's quality");
        // The warm stream is distinct from the cold one with the same seed.
        let cold = ga.run();
        assert_ne!(a.history, cold.history, "warm init must change the run");
    }

    #[test]
    fn warm_run_rejects_a_mismatched_parent() {
        let ga = engine(8, 5.0, 1.0, 2.0, 52);
        let parent = AdjacencyMatrix::empty(5);
        let err = ga.run_warm(&parent, None, None, None).unwrap_err();
        assert!(matches!(err, GaError::InvalidSettings(_)), "got {err:?}");
    }

    #[test]
    fn warm_checkpoint_resume_is_bit_identical() {
        let obj = LineObjective { n: 8, k0: 5.0, k1: 1.0, k3: 2.0 };
        let parent =
            AdjacencyMatrix::from_edges(8, &(0..7).map(|i| (i, i + 1)).collect::<Vec<_>>())
                .unwrap();
        let ga = GeneticAlgorithm::new(&obj, GaSettings::quick(53));
        let uninterrupted = ga.run_warm(&parent, None, None, None).unwrap();
        let mut snaps = Vec::new();
        let mut sink = |c: &GaCheckpoint| snaps.push(c.clone());
        let hook = CheckpointHook { every: 7, sink: &mut sink };
        ga.run_warm(&parent, None, Some(hook), None).unwrap();
        assert!(!snaps.is_empty());
        for snap in snaps {
            let restored = GaCheckpoint::from_json(&snap.to_json(), 8, ga.settings()).unwrap();
            let resumed = ga.run_warm(&parent, None, None, Some(restored)).unwrap();
            assert_results_bit_identical(&uninterrupted, &resumed);
        }
    }

    #[test]
    fn stop_reason_wire_names_round_trip() {
        for r in [StopReason::Completed, StopReason::EarlyStopped, StopReason::Stalled] {
            assert_eq!(StopReason::parse(r.as_str()), Some(r));
        }
        assert_eq!(StopReason::parse("wedged"), None);
    }

    #[test]
    fn checkpoint_save_and_load_round_trip_on_disk() {
        let dir = std::env::temp_dir().join(format!("cold-ga-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json");
        let ga = engine(8, 5.0, 1.0, 2.0, 43);
        let (_, snaps) = run_with_checkpoints(&ga, 10);
        let snap = snaps.into_iter().next().unwrap();
        snap.save(&path).unwrap();
        let back = GaCheckpoint::load(&path, 8, ga.settings()).unwrap();
        // Cache entry order is HashMap-dependent in the live snapshot;
        // the serialized form is the canonical (sorted) one.
        assert_eq!(back.to_json(), snap.to_json());
        // Corrupt documents surface as typed errors that name the path.
        std::fs::write(&path, &snap.to_json()[..40]).unwrap();
        let err = GaCheckpoint::load(&path, 8, ga.settings()).unwrap_err();
        match err {
            GaError::Checkpoint(msg) => {
                assert!(msg.contains("snap.json"), "error must name the path: {msg}");
            }
            other => panic!("expected Checkpoint, got {other:?}"),
        }
        let missing = GaCheckpoint::load(&dir.join("absent.json"), 8, ga.settings()).unwrap_err();
        assert!(matches!(missing, GaError::Checkpoint(m) if m.contains("absent.json")));
        std::fs::remove_dir_all(&dir).ok();
    }

    use crate::Objective;
    use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
}
