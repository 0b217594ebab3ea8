//! `compare A B`: one row per (end-to-end metric, workload) over two sets
//! of result files, and the check that `BENCHMARK.json` declares what
//! the benchmark measures.

use crate::json::{self, Json};
use crate::report::{load_dir, Loaded};
use crate::spec::{Better, EndToEnd, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::Summary;
use std::path::Path;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    /// The run-to-run spread is wider than the bound: the runs cannot
    /// show whether the metric held.
    Unresolved,
    Regressed,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "regressed",
        }
    }
}

/// Judges the change `b` against the parent `a` on one metric.
pub fn verdict(metric: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    let (sa, sb) = (Summary::of(a), Summary::of(b));
    // Positive when the change is worse, in the metric's own unit.
    let worse_by = match metric.better {
        Better::Lower => sb.median - sa.median,
        Better::Higher => sa.median - sb.median,
    };
    if metric.exact {
        // A simulated statistic repeats exactly or it changed.
        let same = a.iter().chain(b).all(|&v| v == sa.median);
        return match (same, worse_by > 0.0) {
            (true, _) => Verdict::Unchanged,
            (false, true) => Verdict::Regressed,
            (false, false) => Verdict::Improved,
        };
    }
    let separated = match metric.better {
        Better::Lower => max(b) < min(a),
        Better::Higher => min(b) > max(a),
    };
    if worse_by < 0.0 && -worse_by > sa.q3 - sa.q1 {
        return Verdict::Improved;
    }
    let resolved = sa.spread().max(sb.spread()) <= metric.bound || separated;
    let limit = (metric.bound * sa.median.abs()).max(metric.floor);
    match (resolved, worse_by > limit) {
        (false, _) => Verdict::Unresolved,
        (true, true) => Verdict::Regressed,
        (true, false) => Verdict::Unchanged,
    }
}

fn min(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

fn values(set: &[Loaded], workload: &str, metric: &str) -> Vec<f64> {
    set.iter()
        .filter(|r| r.workload == workload)
        .filter_map(|r| r.metrics.iter().find(|(n, _)| n == metric).map(|(_, v)| *v))
        .collect()
}

pub fn run(dir_a: &str, dir_b: &str) -> ExitCode {
    let (a, b) = match (load_dir(Path::new(dir_a)), load_dir(Path::new(dir_b))) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<15} {:<18} {:>5} {:>13} {:>13} {:>13} {:>13} {:>13} {:>13} {:>8}  verdict",
        "workload", "metric", "runs", "A q1", "A median", "A q3", "B q1", "B median", "B q3", "B/A"
    );
    let mut regressed = 0;
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (va, vb) = (values(&a, w.name, m.name), values(&b, w.name, m.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (sa, sb) = (Summary::of(&va), Summary::of(&vb));
            let v = verdict(m, &va, &vb);
            regressed += usize::from(v == Verdict::Regressed);
            println!(
                "{:<15} {:<18} {:>2}/{:<2} {:>13.6} {:>13.6} {:>13.6} {:>13.6} {:>13.6} {:>13.6} {:>8.4}  {} ({} {}, base A median {:.6} {})",
                w.name,
                m.name,
                va.len(),
                vb.len(),
                sa.q1,
                sa.median,
                sa.q3,
                sb.q1,
                sb.median,
                sb.q3,
                sb.median / sa.median,
                v.as_str(),
                m.better.as_str(),
                if m.exact { "exact".to_string() } else { format!("bound {}", m.bound) },
                sa.median,
                m.unit,
            );
        }
    }
    let failed: u64 = a.iter().chain(&b).map(|r| r.failed).sum();
    if failed > 0 {
        println!("failed operations across both sets: {failed}");
    }
    println!("{regressed} regressed");
    ExitCode::SUCCESS
}

/// `BENCHMARK.json` as [`crate::spec`] declares it.
pub fn manifest() -> Json {
    let rows =
        |items: Vec<Vec<(&str, Json)>>| Json::Arr(items.into_iter().map(Json::obj).collect());
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "run",
    ];
    Json::obj(vec![
        ("command", Json::Arr(command.map(Json::str).to_vec())),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(crate::spec::DEFAULT_SECONDS)),
        (
            "workloads",
            rows(
                WORKLOADS
                    .iter()
                    .map(|w| vec![("name", Json::str(w.name)), ("why", Json::str(w.why))])
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            rows(
                END_TO_END
                    .iter()
                    .map(|m| {
                        vec![
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ]
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            rows(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        vec![
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ]
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Checks that `BENCHMARK.json` is exactly [`manifest`]: the same
/// workloads and metrics with the same units, directions and bounds.
pub fn check_manifest(text: &str) -> Result<(), String> {
    let (got, want) = (json::parse(text)?, manifest());
    for (key, value) in want.as_obj().expect("the manifest is an object") {
        match (got.get(key), value) {
            (Some(g), w) if g == w => {}
            (Some(Json::Arr(g)), Json::Arr(w)) => {
                return Err(match g.iter().zip(w).find(|(g, w)| g != w) {
                    Some((g, w)) => format!(
                        "`{key}` has {}, the benchmark has {}",
                        g.to_line(),
                        w.to_line()
                    ),
                    None => format!(
                        "`{key}` has {} rows, the benchmark has {}",
                        g.len(),
                        w.len()
                    ),
                });
            }
            (g, w) => {
                return Err(format!(
                    "`{key}` is {}, the benchmark has {}",
                    g.map_or("missing".to_string(), Json::to_line),
                    w.to_line()
                ));
            }
        }
    }
    let extra = got.as_obj().map_or(0, <[_]>::len) != want.as_obj().map_or(0, <[_]>::len);
    if extra {
        return Err("unexpected extra keys".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    #[test]
    fn benchmark_json_declares_what_the_benchmark_measures() {
        check_manifest(include_str!("../../BENCHMARK.json")).unwrap();
        let mut renamed = manifest().to_line();
        renamed = renamed.replace("\"p99_us\"", "\"p999_us\"");
        assert!(check_manifest(&renamed).unwrap_err().contains("p999_us"));
    }

    #[test]
    fn the_contracts_limits_hold() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| name_ok(n)), "{names:?}");
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        assert!(END_TO_END
            .iter()
            .all(|m| unit_ok(m.unit) && m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.unit)));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!((2..=8).contains(&WORKLOADS.len()) && PER_LAYER.len() <= 128);
        let setup = metric("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }

    #[test]
    fn verdicts_follow_the_bounds() {
        let rps = metric("rps");
        let parent = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(
            verdict(rps, &parent, &[100.2, 99.8, 100.1, 99.9, 100.0]),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(rps, &parent, &[120.0, 121.0, 119.0, 120.5, 119.5]),
            Verdict::Improved
        );
        assert_eq!(
            verdict(rps, &parent, &[80.0, 81.0, 79.0, 80.5, 79.5]),
            Verdict::Regressed
        );
        // 30 % spread against a 10 % bound: the runs resolve nothing.
        assert_eq!(
            verdict(
                rps,
                &[100.0, 130.0, 85.0, 115.0, 70.0],
                &[95.0, 125.0, 80.0, 110.0, 65.0]
            ),
            Verdict::Unresolved
        );
        // … unless every run of the change beats every run of the parent.
        assert_eq!(
            verdict(
                rps,
                &[100.0, 130.0, 85.0, 115.0, 70.0],
                &[200.0, 260.0, 170.0, 230.0, 140.0]
            ),
            Verdict::Improved
        );
        let p50 = metric("p50_us");
        assert_eq!(
            verdict(p50, &[50.0, 51.0, 49.0], &[65.0, 66.0, 64.0]),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(p50, &[50.0, 51.0, 49.0], &[40.0, 41.0, 39.0]),
            Verdict::Improved
        );
    }

    #[test]
    fn exact_metrics_compare_exactly_and_floors_apply() {
        let gops = metric("sim_gops");
        assert_eq!(
            verdict(gops, &[3220.79, 3220.79], &[3220.79, 3220.79]),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(gops, &[3220.79, 3220.79], &[3220.78, 3220.78]),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(gops, &[3220.79, 3220.79], &[3220.80, 3220.80]),
            Verdict::Improved
        );
        // 0.02 s → 0.05 s is +150 % but under the 0.1 s floor.
        let setup = metric("setup_s");
        assert_eq!(
            verdict(setup, &[0.020, 0.021, 0.019], &[0.050, 0.051, 0.049]),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(setup, &[1.0, 1.01, 0.99], &[1.5, 1.51, 1.49]),
            Verdict::Regressed
        );
    }
}
