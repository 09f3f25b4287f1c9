//! §5 brute-force validation: "we at least ensure that for networks of up
//! to 8 PoPs that the GA always finds the real optimal solution".
//!
//! Here: exhaustive optimum vs the initialized GA for `n ≤ 7` (DESIGN.md
//! §5 explains the n = 8 → 7 substitution) across several cost settings
//! and contexts, reporting the exact-match rate and worst relative gap.

use crate::{fmt, print_table, ExpOptions};
use cold::{ColdConfig, SynthesisMode};
use cold_context::rng::derive_seed;
use cold_cost::CostEvaluator;
use cold_heuristics::brute_force_optimum;
use serde_json::json;

/// Runs the experiment.
pub fn run(opts: &ExpOptions) -> serde_json::Value {
    let sizes: Vec<usize> = if opts.full { vec![5, 6, 7] } else { vec![4, 5, 6] };
    let trials = opts.trials(3, 5);
    let params = [(1e-4, 0.0), (4e-4, 10.0), (1e-3, 100.0)];
    let mut rows = Vec::new();
    let mut cases = Vec::new();
    let mut exact = 0usize;
    let mut total = 0usize;
    let mut worst_gap = 0.0f64;
    for &n in &sizes {
        for &(k2, k3) in &params {
            for t in 0..trials {
                let cfg = ColdConfig {
                    ga: opts.ga_settings(),
                    mode: SynthesisMode::Initialized,
                    ..ColdConfig::quick(n, k2, k3)
                };
                let seed = derive_seed(opts.seed, (n as u64) << 32 | (k3 as u64) << 16 | t as u64);
                let ctx = cfg.context_for(seed);
                let eval = CostEvaluator::new(&ctx, cfg.params);
                let bf = brute_force_optimum(&eval);
                let ga = cfg.synthesize_in_context(ctx.clone(), seed);
                let gap = (ga.best_cost() - bf.cost) / bf.cost;
                total += 1;
                if gap.abs() < 1e-9 {
                    exact += 1;
                }
                worst_gap = worst_gap.max(gap);
                cases.push(json!({
                    "n": n, "k2": k2, "k3": k3, "trial": t,
                    "bf_cost": bf.cost, "ga_cost": ga.best_cost(), "gap": gap,
                }));
            }
            let rate = cases
                .iter()
                .filter(|c| c["n"] == n && c["k2"] == k2 && c["k3"] == k3)
                .filter(|c| c["gap"].as_f64().unwrap().abs() < 1e-9)
                .count();
            rows.push(vec![n.to_string(), fmt(k2), fmt(k3), format!("{rate}/{trials}")]);
        }
    }
    print_table(
        "§5: initialized GA vs brute-force optimum",
        &["n", "k2", "k3", "exact optima"],
        &rows,
    );
    println!("\noverall: {exact}/{total} exact; worst relative gap {}", fmt(worst_gap));
    json!({
        "experiment": "sec5-bf",
        "exact": exact,
        "total": total,
        "worst_relative_gap": worst_gap,
        "cases": cases,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ga_finds_small_optima() {
        // Tiny version for CI: just n = 4–5, one trial per point.
        let opts = ExpOptions { seed: 10, trials_override: Some(1), ..Default::default() };
        let v = run(&opts);
        let exact = v["exact"].as_u64().unwrap();
        let total = v["total"].as_u64().unwrap();
        // The initialized GA should hit the exact optimum essentially
        // always at these sizes; tolerate one miss out of nine.
        assert!(exact + 1 >= total, "only {exact}/{total} exact optima");
        assert!(v["worst_relative_gap"].as_f64().unwrap() < 0.02);
    }
}
