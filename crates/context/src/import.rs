//! Importing real PoP locations (§3.1: "It would certainly be possible to
//! choose PoPs according to real-life city locations … or use real PoP
//! locations if required").
//!
//! The format is a minimal CSV, one PoP per line:
//!
//! ```text
//! # name, x, y, population
//! Adelaide, 138.6, -34.9, 1.3
//! Melbourne, 145.0, -37.8, 5.0
//! Sydney, 151.2, -33.9, 5.3
//! ```
//!
//! Comments (`#`) and blank lines are ignored. The population column is
//! optional; missing populations are drawn from the supplied model so a
//! bare coordinate list still yields a full context.

use crate::gravity::GravityModel;
use crate::population::{PopulationKind, PopulationModel};
use crate::region::Point;
use crate::rng::rng_for;
use crate::Context;

/// One imported PoP record.
#[derive(Debug, Clone, PartialEq)]
pub struct PopRecord {
    /// Site name (free text, no commas).
    pub name: String,
    /// Coordinate (any planar unit — degrees, km, …; COLD's costs scale
    /// with whatever unit is used).
    pub x: f64,
    /// Coordinate.
    pub y: f64,
    /// Population / demand weight, if given.
    pub population: Option<f64>,
}

/// Import errors with line positions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImportError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ImportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ImportError {}

/// Parses the CSV text into records.
///
/// # Errors
/// Returns the first malformed line (wrong field count, unparsable or
/// non-finite numbers, non-positive population).
pub fn parse_pop_csv(text: &str) -> Result<Vec<PopRecord>, ImportError> {
    let mut records = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split(',').map(str::trim).collect();
        if !(3..=4).contains(&fields.len()) {
            return Err(ImportError {
                line: line_no,
                message: format!(
                    "expected `name, x, y[, population]`, got {} fields",
                    fields.len()
                ),
            });
        }
        if fields[0].is_empty() {
            return Err(ImportError { line: line_no, message: "empty name".into() });
        }
        let num = |s: &str, what: &str| -> Result<f64, ImportError> {
            s.parse::<f64>().map_err(|_| ImportError {
                line: line_no,
                message: format!("cannot parse {what} `{s}`"),
            })
        };
        let coordinate = |s: &str, what: &str| -> Result<f64, ImportError> {
            let c = num(s, what)?;
            if !c.is_finite() {
                return Err(ImportError {
                    line: line_no,
                    message: format!("{what} must be finite, got {c}"),
                });
            }
            Ok(c)
        };
        let x = coordinate(fields[1], "x")?;
        let y = coordinate(fields[2], "y")?;
        let population = if fields.len() == 4 {
            let p = num(fields[3], "population")?;
            if p <= 0.0 || !p.is_finite() {
                return Err(ImportError {
                    line: line_no,
                    message: format!("population must be positive, got {p}"),
                });
            }
            Some(p)
        } else {
            None
        };
        records.push(PopRecord { name: fields[0].to_string(), x, y, population });
    }
    Ok(records)
}

/// Builds a full synthesis [`Context`] from imported records.
///
/// Records without a population get one drawn from `fallback_population`
/// (seeded, reproducible). Returns the context and the site names aligned
/// with PoP indices.
///
/// # Errors
/// Propagates parse errors; additionally rejects inputs with fewer than 2
/// PoPs.
pub fn context_from_csv(
    text: &str,
    fallback_population: PopulationKind,
    gravity: GravityModel,
    seed: u64,
) -> Result<(Context, Vec<String>), ImportError> {
    let records = parse_pop_csv(text)?;
    if records.len() < 2 {
        return Err(ImportError {
            line: 0,
            message: format!("need at least 2 PoPs, got {}", records.len()),
        });
    }
    let positions: Vec<Point> = records.iter().map(|r| Point::new(r.x, r.y)).collect();
    let mut rng = rng_for(seed, 0x1A90);
    let fallback = fallback_population.sample(records.len(), &mut rng);
    let populations: Vec<f64> =
        records.iter().zip(&fallback).map(|(r, &f)| r.population.unwrap_or(f)).collect();
    let traffic = gravity.traffic_matrix(&populations, Some(&positions));
    let names = records.into_iter().map(|r| r.name).collect();
    Ok((Context::new(positions, populations, traffic), names))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# Australian backbone sample
Adelaide, 138.6, -34.9, 1.3
Melbourne, 145.0, -37.8, 5.0

Sydney, 151.2, -33.9, 5.3
Perth, 115.9, -31.9
";

    #[test]
    fn parses_names_coordinates_and_optional_population() {
        let recs = parse_pop_csv(SAMPLE).unwrap();
        assert_eq!(recs.len(), 4);
        assert_eq!(recs[0].name, "Adelaide");
        assert_eq!(recs[0].population, Some(1.3));
        assert_eq!(recs[3].name, "Perth");
        assert_eq!(recs[3].population, None);
        assert!((recs[2].x - 151.2).abs() < 1e-12);
    }

    #[test]
    fn error_reports_line_numbers() {
        let bad = "A, 1.0, 2.0\nB, x, 2.0\n";
        let e = parse_pop_csv(bad).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("cannot parse x"));
        let too_few = "A, 1.0\n";
        assert_eq!(parse_pop_csv(too_few).unwrap_err().line, 1);
        let neg = "A, 1, 2, -3\n";
        assert!(parse_pop_csv(neg).unwrap_err().message.contains("positive"));
        for (bad, what) in [
            ("A, 1, 2\nB, NaN, 0, 1\n", "x"),
            ("A, 1, 2\nB, 0, inf\n", "y"),
            ("A, 1, 2\nB, -inf, 0\n", "x"),
        ] {
            let e = parse_pop_csv(bad).unwrap_err();
            assert_eq!(e.line, 2, "{bad}");
            assert!(e.message.contains(&format!("{what} must be finite")), "{bad}: {e}");
            let csv = context_from_csv(bad, PopulationKind::default(), GravityModel::raw(), 0);
            assert_eq!(csv.unwrap_err(), e);
        }
    }

    #[test]
    fn context_uses_given_populations_and_fills_missing() {
        let (ctx, names) = context_from_csv(
            SAMPLE,
            PopulationKind::Constant { value: 9.0 },
            GravityModel::raw(),
            1,
        )
        .unwrap();
        assert_eq!(names, vec!["Adelaide", "Melbourne", "Sydney", "Perth"]);
        assert_eq!(ctx.populations[..3], [1.3, 5.0, 5.3]);
        assert_eq!(ctx.populations[3], 9.0, "fallback model fills the gap");
        // Gravity: Melbourne–Sydney demand = 5.0 · 5.3.
        assert!((ctx.traffic.demand(1, 2) - 26.5).abs() < 1e-9);
    }

    #[test]
    fn too_few_pops_rejected() {
        let e = context_from_csv("A, 1, 2, 3\n", PopulationKind::default(), GravityModel::raw(), 0)
            .unwrap_err();
        assert!(e.message.contains("at least 2"));
    }

    #[test]
    fn imported_context_distances_match_coordinates() {
        let (ctx, _) = context_from_csv(
            SAMPLE,
            PopulationKind::Constant { value: 2.0 },
            GravityModel::raw(),
            2,
        )
        .unwrap();
        for u in 0..ctx.n() {
            for v in 0..ctx.n() {
                let direct = ctx.positions[u].distance(&ctx.positions[v]);
                assert!((ctx.distance(u, v) - direct).abs() < 1e-12);
            }
        }
    }
}
