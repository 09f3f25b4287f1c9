//! Ablations of the GA design choices DESIGN.md §6 calls out.
//!
//! Each variant disables or degrades one mechanism of §4 and measures the
//! mean best-cost ratio vs the paper's configuration on shared contexts:
//!
//! - `uniform crossover weights`: parents contribute links uniformly
//!   instead of inverse-cost weighted (§4.1.1);
//! - `no node mutation`: only link mutations (§4.1.2's leaf-ification off);
//! - `minimal elitism`: `num_saved = 1`;
//! - `untuned ER init`: initial random fill at p = 0.5 instead of the
//!   expected-link-count estimate (§4.1's convergence aid).
//!
//! Ratios > 1 mean the ablated variant found worse networks.

use crate::{fmt, print_table, ExpOptions};
use cold::bootstrap::bootstrap_mean_ci;
use cold::{ColdConfig, SynthesisMode};
use cold_context::rng::derive_seed;
use cold_ga::GaSettings;
use serde_json::json;

fn variants(base: GaSettings) -> Vec<(&'static str, GaSettings)> {
    vec![
        ("paper configuration", base),
        ("uniform crossover weights", GaSettings { uniform_crossover_weights: true, ..base }),
        ("no node mutation", GaSettings { node_mutation_prob: 0.0, ..base }),
        (
            "minimal elitism",
            GaSettings {
                num_saved: 1,
                num_crossover: base.num_crossover + base.num_saved - 1,
                ..base
            },
        ),
        ("untuned ER init (p=0.5)", GaSettings { init_er_probability: Some(0.5), ..base }),
    ]
}

/// Runs the ablations.
pub fn run(opts: &ExpOptions) -> serde_json::Value {
    let n = if opts.full { 30 } else { 12 };
    let trials = opts.trials(4, 20);
    let settings = opts.ga_settings();
    let scenarios = [(4e-4, 0.0), (4e-4, 100.0)];
    let mut rows = Vec::new();
    let mut docs = Vec::new();
    for (name, ga) in variants(settings) {
        let mut row = vec![name.to_string()];
        let mut per_scenario = Vec::new();
        for &(k2, k3) in &scenarios {
            let mut ratios = Vec::new();
            for t in 0..trials {
                let seed = derive_seed(opts.seed, (k3 as u64) << 20 | t as u64);
                // GaOnly so the heuristic seeds don't mask GA differences.
                let mk = |ga: GaSettings| ColdConfig {
                    ga,
                    mode: SynthesisMode::GaOnly,
                    ..ColdConfig::paper(n, k2, k3)
                };
                let ctx = mk(settings).context_for(seed);
                let baseline = mk(settings).synthesize_in_context(ctx.clone(), seed);
                let variant = mk(ga).synthesize_in_context(ctx, seed);
                ratios.push(variant.best_cost() / baseline.best_cost());
            }
            let ci = bootstrap_mean_ci(&ratios, 0.95, 1000, opts.seed);
            row.push(format!("{}±{}", fmt(ci.mean), fmt((ci.hi - ci.lo) / 2.0)));
            per_scenario.push(json!({
                "k2": k2, "k3": k3, "mean_ratio": ci.mean, "lo": ci.lo, "hi": ci.hi,
            }));
        }
        rows.push(row);
        docs.push(json!({"variant": name, "scenarios": per_scenario}));
    }
    print_table(
        &format!("GA ablations: best-cost ratio vs paper configuration (n = {n}, {trials} trials)"),
        &["variant", "k3=0", "k3=100"],
        &rows,
    );
    json!({
        "experiment": "ablations",
        "n": n,
        "trials": trials,
        "variants": docs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configuration_is_baseline_one() {
        let opts = ExpOptions { seed: 12, trials_override: Some(2), ..Default::default() };
        let v = run(&opts);
        let variants = v["variants"].as_array().unwrap();
        let paper = &variants[0];
        for s in paper["scenarios"].as_array().unwrap() {
            let m = s["mean_ratio"].as_f64().unwrap();
            assert!((m - 1.0).abs() < 1e-12, "baseline ratio {m} != 1");
        }
        assert_eq!(variants.len(), 5);
    }
}
