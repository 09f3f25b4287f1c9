//! Figure 3: cost of the best solution found by each algorithm vs `k2`,
//! normalized by the initialized GA, for `k3 = 0` (left) and `k3 = 10`
//! (right). `n = 30`, `k0 = 10`, `k1 = 1`, 20 trials, 95% bootstrap CIs.
//!
//! Expected shape: the initialized GA is ≤ 1 relative to every competitor
//! by construction; the plain GA is competitive at `k3 = 0` and weaker at
//! `k3 = 10`; individual greedy algorithms win their favorable corners.

use crate::{fmt, print_table, ExpOptions};
use cold::bootstrap::bootstrap_mean_ci;
use cold::sweep::log_space;
use cold::{ColdConfig, SynthesisMode};
use cold_context::rng::derive_seed;
use serde_json::json;

/// The algorithms compared, in the paper's legend order.
pub const ALGORITHMS: [&str; 6] =
    ["random greedy", "complete", "mst", "greedy attachment", "GA", "initialised GA"];

/// Runs the experiment.
pub fn run(opts: &ExpOptions) -> serde_json::Value {
    let n = if opts.full { 30 } else { 14 };
    let trials = opts.trials(4, 20);
    let k2s = log_space(1e-4, 1e-3, if opts.full { 6 } else { 3 });
    let k3s = [0.0, 10.0];
    let mut panels = Vec::new();
    for &k3 in &k3s {
        let mut rows = Vec::new();
        let mut json_points = Vec::new();
        for &k2 in &k2s {
            // Per-trial relative costs, one vector per algorithm.
            let mut rel: Vec<Vec<f64>> = vec![Vec::new(); ALGORITHMS.len()];
            for t in 0..trials {
                let mut init_cfg =
                    ColdConfig { ga: opts.ga_settings(), ..ColdConfig::paper(n, k2, k3) };
                init_cfg.mode = SynthesisMode::Initialized;
                let seed = derive_seed(opts.seed, (k3 as u64) << 32 | t as u64);
                let ctx = init_cfg.context_for(seed);
                // Initialized GA (gives us the four heuristics for free —
                // they run on the same context as seeds).
                let init = init_cfg.synthesize_in_context(ctx.clone(), seed);
                // Plain GA on the same context.
                let plain_cfg = ColdConfig { mode: SynthesisMode::GaOnly, ..init_cfg };
                let plain = plain_cfg.synthesize_in_context(ctx, seed);
                let baseline = init.best_cost();
                for (name, cost) in &init.heuristic_costs {
                    let idx =
                        ALGORITHMS.iter().position(|a| a == name).expect("known heuristic name");
                    rel[idx].push(cost / baseline);
                }
                rel[4].push(plain.best_cost() / baseline);
                rel[5].push(1.0);
            }
            let cis: Vec<_> = rel
                .iter()
                .map(|xs| bootstrap_mean_ci(xs, 0.95, 1000, derive_seed(opts.seed, k2.to_bits())))
                .collect();
            let mut row = vec![fmt(k2)];
            row.extend(
                cis.iter().map(|ci| format!("{}±{}", fmt(ci.mean), fmt((ci.hi - ci.lo) / 2.0))),
            );
            rows.push(row);
            json_points.push(json!({
                "k2": k2,
                "algorithms": ALGORITHMS.iter().zip(&cis).map(|(a, ci)| json!({
                    "name": a, "mean": ci.mean, "lo": ci.lo, "hi": ci.hi
                })).collect::<Vec<_>>(),
            }));
        }
        let mut headers = vec!["k2"];
        headers.extend(ALGORITHMS);
        print_table(
            &format!(
                "Figure 3 (k3 = {k3}): cost normalized by initialised GA, n = {n}, {trials} trials"
            ),
            &headers,
            &rows,
        );
        panels.push(json!({"k3": k3, "points": json_points}));
    }
    json!({
        "experiment": "fig3",
        "n": n,
        "trials": trials,
        "panels": panels,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initialized_ga_dominates() {
        let opts = ExpOptions { seed: 3, trials_override: Some(2), ..Default::default() };
        let v = run(&opts);
        for panel in v["panels"].as_array().unwrap() {
            for point in panel["points"].as_array().unwrap() {
                for alg in point["algorithms"].as_array().unwrap() {
                    let mean = alg["mean"].as_f64().unwrap();
                    assert!(mean >= 1.0 - 1e-9, "{} beat the initialised GA: {mean}", alg["name"]);
                }
            }
        }
    }
}
