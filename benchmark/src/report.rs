//! What one run produces: named metrics, the operation count, and the
//! result file that makes the run reproducible.

use crate::json::Json;
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::Summary;
use crate::{host, json};
use std::path::{Path, PathBuf};

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Present when the value is the median of in-run samples.
    pub samples: Option<Summary>,
}

/// The unit a declared metric is reported in.
pub fn declared(name: &str) -> Option<(&'static str, &'static str)> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
}

#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Operations attempted: requests, inferences, build iterations.
    pub attempted: u64,
    /// Error frames, lost requests, output mismatches.
    pub failed: u64,
    /// The first few failures, for the operator.
    pub failures: Vec<String>,
    /// Measured phases and how long each ran, seconds.
    pub phases: Vec<(&'static str, f64)>,
    /// Sample summaries that are context, not declared metrics.
    pub context: Vec<(&'static str, Summary)>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        let (name, unit) = declared(name).unwrap_or_else(|| panic!("undeclared metric {name}"));
        assert!(
            self.metrics.iter().all(|m| m.name != name),
            "metric {name} set twice"
        );
        self.metrics.push(Metric {
            name,
            unit,
            value,
            samples: None,
        });
    }

    /// Sets a metric to the median of `samples` and records their spread.
    pub fn set_median(&mut self, name: &str, samples: &[f64]) {
        let summary = Summary::of(samples);
        self.set(name, summary.median);
        self.metrics.last_mut().expect("just pushed").samples = Some(summary);
    }

    /// Sets a metric to the trimmed mean of `samples` (see
    /// [`crate::stats::trimmed_mean`]) and records their spread.
    pub fn set_trimmed_mean(&mut self, name: &str, samples: &[f64]) {
        self.set(name, crate::stats::trimmed_mean(samples));
        self.metrics.last_mut().expect("just pushed").samples = Some(Summary::of(samples));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    pub fn ops(&mut self, n: u64) {
        self.attempted += n;
    }

    pub fn fail(&mut self, n: u64, why: impl FnOnce() -> String) {
        if n == 0 {
            return;
        }
        self.failed += n;
        if self.failures.len() < 8 {
            self.failures.push(why());
        }
    }

    /// A check outside the timed sections: a false `ok` is one failed
    /// operation.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.fail(u64::from(!ok), why);
    }

    pub fn phase(&mut self, name: &'static str, seconds: f64) {
        self.phases.push((name, seconds));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The contract's last line of standard output.
    pub fn result_line(&self) -> String {
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            let body = Json::obj(vec![
                                ("value", Json::Num(m.value)),
                                ("unit", Json::str(m.unit)),
                            ]);
                            (m.name.to_string(), body)
                        })
                        .collect(),
                ),
            ),
        ])
        .to_line()
    }

    fn summary_fields(s: &Summary) -> Vec<(&'static str, Json)> {
        vec![
            ("n", Json::Num(s.n as f64)),
            ("q1", Json::Num(s.q1)),
            ("median", Json::Num(s.median)),
            ("q3", Json::Num(s.q3)),
        ]
    }

    /// The stamped record of this run.
    pub fn record(&self, workload: &str, seed: u64, seconds: f64, trace: bool) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let mut fields = vec![("value", Json::Num(m.value)), ("unit", Json::str(m.unit))];
                if let Some(s) = &m.samples {
                    fields.extend(Self::summary_fields(s));
                }
                (m.name.to_string(), Json::obj(fields))
            })
            .collect();
        Json::obj(vec![
            ("workload", Json::str(workload)),
            ("seed", Json::Num(seed as f64)),
            ("seconds", Json::Num(seconds)),
            ("trace", Json::Bool(trace)),
            ("host", host::stamp()),
            (
                "phases_s",
                Json::Obj(
                    self.phases
                        .iter()
                        .map(|(n, s)| (n.to_string(), Json::Num(*s)))
                        .collect(),
                ),
            ),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "failures",
                Json::Arr(self.failures.iter().map(Json::str).collect()),
            ),
            ("metrics", Json::Obj(metrics)),
            (
                "context",
                Json::Obj(
                    self.context
                        .iter()
                        .map(|(n, s)| (n.to_string(), Json::obj(Self::summary_fields(s))))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Where result files go unless `--out` says otherwise: inside the
/// benchmark's own directory.
pub fn default_out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub fn result_path(dir: &Path, workload: &str, seed: u64, trace: bool) -> PathBuf {
    let kind = if trace { "trace" } else { "run" };
    dir.join(format!("{kind}-{workload}-seed{seed}.json"))
}

/// One untraced result file, as `compare` needs it.
pub struct Loaded {
    pub workload: String,
    pub metrics: Vec<(String, f64)>,
    pub failed: u64,
}

/// Reads every untraced result file in `dir`.
pub fn load_dir(dir: &Path) -> Result<Vec<Loaded>, String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    paths.sort();
    let mut loaded = Vec::new();
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let record = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if record.get("trace").and_then(Json::as_bool) != Some(false) {
            continue;
        }
        let field = |key: &str| {
            record
                .get(key)
                .ok_or_else(|| format!("{}: no `{key}`", path.display()))
        };
        let workload = field("workload")?.as_str().unwrap_or_default().to_string();
        let failed = field("failed")?.as_f64().unwrap_or(0.0) as u64;
        let metrics = field("metrics")?
            .as_obj()
            .unwrap_or_default()
            .iter()
            .filter_map(|(name, body)| {
                body.get("value")
                    .and_then(Json::as_f64)
                    .map(|v| (name.clone(), v))
            })
            .collect();
        loaded.push(Loaded {
            workload,
            metrics,
            failed,
        });
    }
    Ok(loaded)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.ops(1000);
        r.set_median("p50_us", &[3.0, 1.0, 2.0]);
        r.set("setup_s", 0.8127);
        let parsed = json::parse(&r.result_line()).unwrap();
        let keys: Vec<&str> = parsed
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(parsed.get("attempted"), Some(&Json::Num(1000.0)));
        let p50 = parsed.get("metrics").unwrap().get("p50_us").unwrap();
        assert_eq!(p50.get("value"), Some(&Json::Num(2.0)));
        assert_eq!(p50.get("unit"), Some(&Json::str("us")));
    }

    #[test]
    fn a_failed_check_is_a_failed_operation() {
        let mut r = Report::default();
        r.ops(2);
        r.check(true, || unreachable!());
        assert!(r.correct());
        r.check(false, || "output differs from the oracle".to_string());
        assert_eq!((r.failed, r.correct()), (1, false));
        assert_eq!(r.failures.len(), 1);
    }

    #[test]
    fn records_round_trip_through_a_directory() {
        let dir = default_out_dir().join(format!("selftest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut r = Report::default();
        r.ops(10);
        r.phase("closed", 1.5);
        r.set_median("rps", &[100.0, 110.0, 120.0]);
        let record = r.record("serve_light", 7, 16.0, false);
        for key in ["git_rev", "git_dirty", "nproc", "cpu_model", "rustc"] {
            assert!(record.get("host").unwrap().get(key).is_some(), "no {key}");
        }
        std::fs::write(
            result_path(&dir, "serve_light", 7, false),
            record.to_pretty(),
        )
        .unwrap();
        std::fs::write(
            result_path(&dir, "serve_light", 7, true),
            r.record("serve_light", 7, 16.0, true).to_pretty(),
        )
        .unwrap();
        let loaded = load_dir(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(loaded.len(), 1, "traced records are not compared");
        assert_eq!(loaded[0].workload, "serve_light");
        assert_eq!(loaded[0].metrics, [("rps".to_string(), 110.0)]);
    }
}
