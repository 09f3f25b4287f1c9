//! GA vs simulated annealing — quantifying §3.3's design decision.
//!
//! The paper motivates its Genetic Algorithm over "the alternative
//! heuristics" qualitatively (flexibility, seedability, population
//! output). This experiment makes the comparison quantitative on an
//! evaluation-matched budget: SA gets exactly as many objective
//! evaluations as the GA spends, both run on the same contexts, and we
//! report each optimizer's cost relative to the initialized GA.

use crate::{fmt, print_table, ExpOptions};
use cold::bootstrap::bootstrap_mean_ci;
use cold::{ColdConfig, ColdObjective, SynthesisMode};
use cold_context::rng::derive_seed;
use cold_heuristics::{anneal, AnnealingSettings};
use serde_json::json;

/// Runs the comparison.
pub fn run(opts: &ExpOptions) -> serde_json::Value {
    let n = if opts.full { 30 } else { 12 };
    let trials = opts.trials(4, 15);
    let scenarios = [(1e-4, 0.0), (1.6e-3, 0.0), (1e-4, 100.0)];
    let mut rows = Vec::new();
    let mut docs = Vec::new();
    for &(k2, k3) in &scenarios {
        let mut ga_rel = Vec::new();
        let mut sa_rel = Vec::new();
        for t in 0..trials {
            let cfg = ColdConfig {
                ga: opts.ga_settings(),
                mode: SynthesisMode::Initialized,
                ..ColdConfig::paper(n, k2, k3)
            };
            let seed = derive_seed(opts.seed, (k3 as u64) << 24 ^ (k2.to_bits() >> 40) ^ t as u64);
            let ctx = cfg.context_for(seed);
            let init = cfg.synthesize_in_context(ctx.clone(), seed);
            let plain = ColdConfig { mode: SynthesisMode::GaOnly, ..cfg }
                .synthesize_in_context(ctx.clone(), seed);
            // Evaluation-matched SA budget.
            let objective = ColdObjective::new(&ctx, cfg.params);
            let sa = anneal(
                &objective,
                &AnnealingSettings {
                    steps: plain.evaluations,
                    seed: derive_seed(seed, 0x5A),
                    ..Default::default()
                },
                None,
            );
            let base = init.best_cost();
            ga_rel.push(plain.best_cost() / base);
            sa_rel.push(sa.best_cost / base);
        }
        let ga_ci = bootstrap_mean_ci(&ga_rel, 0.95, 1000, opts.seed ^ 1);
        let sa_ci = bootstrap_mean_ci(&sa_rel, 0.95, 1000, opts.seed ^ 2);
        rows.push(vec![
            fmt(k2),
            fmt(k3),
            format!("{}±{}", fmt(ga_ci.mean), fmt((ga_ci.hi - ga_ci.lo) / 2.0)),
            format!("{}±{}", fmt(sa_ci.mean), fmt((sa_ci.hi - sa_ci.lo) / 2.0)),
        ]);
        docs.push(json!({
            "k2": k2, "k3": k3,
            "plain_ga": {"mean": ga_ci.mean, "lo": ga_ci.lo, "hi": ga_ci.hi},
            "sa": {"mean": sa_ci.mean, "lo": sa_ci.lo, "hi": sa_ci.hi},
        }));
    }
    print_table(
        &format!(
            "GA vs simulated annealing: cost / initialised-GA cost (n = {n}, {trials} trials, evaluation-matched)"
        ),
        &["k2", "k3", "plain GA", "SA"],
        &rows,
    );
    json!({
        "experiment": "ga_vs_sa",
        "n": n,
        "trials": trials,
        "scenarios": docs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_optimizers_stay_in_a_sane_band() {
        let opts = ExpOptions { seed: 13, trials_override: Some(2), ..Default::default() };
        let v = run(&opts);
        for s in v["scenarios"].as_array().unwrap() {
            for opt in ["plain_ga", "sa"] {
                let mean = s[opt]["mean"].as_f64().unwrap();
                assert!(
                    (0.99..2.0).contains(&mean),
                    "{opt} relative cost {mean} outside sanity band"
                );
            }
        }
    }
}
