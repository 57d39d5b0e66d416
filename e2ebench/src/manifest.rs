//! The repository's `BENCHMARK.json`, as far as the benchmark reads it: the
//! metric names, units and bounds a run must report, and the run length.

use serde_json::Value;

use crate::metric::Metric;
use crate::stats::Better;

/// One metric `BENCHMARK.json` declares.
#[derive(Clone, Debug, PartialEq)]
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// Unit the metric is reported in.
    pub unit: String,
    /// Which direction is an improvement.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the benchmark depends on.
#[derive(Clone, Debug)]
pub struct Manifest {
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// Seconds of timed work per run.
    pub run_seconds: f64,
    /// Metrics of an untraced run.
    pub end_to_end: Vec<Declared>,
    /// Metrics of a traced run.
    pub per_layer: Vec<Declared>,
}

impl Manifest {
    /// Reads `BENCHMARK.json` from the working directory, which is the
    /// repository root whenever the benchmark is run as documented.
    pub fn load() -> Result<Manifest, String> {
        let text = std::fs::read_to_string("BENCHMARK.json").map_err(|e| {
            format!("cannot read BENCHMARK.json (run from the repository root): {e}")
        })?;
        Manifest::parse(&text)
    }

    /// Parses the text of a `BENCHMARK.json`.
    pub fn parse(text: &str) -> Result<Manifest, String> {
        let doc: Value = serde_json::from_str(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| {
            doc[key]
                .as_array()
                .ok_or_else(|| format!("BENCHMARK.json has no `{key}` list"))
        };
        let text_of = |v: &Value, key: &str| {
            v[key]
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: an entry lacks `{key}`"))
        };
        let metrics = |key: &str| -> Result<Vec<Declared>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(Declared {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        better: Better::parse(&text_of(m, "better")?)
                            .ok_or("BENCHMARK.json: `better` is neither lower nor higher")?,
                        bound: m["bound"].as_f64(),
                    })
                })
                .collect()
        };
        Ok(Manifest {
            workloads: list("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            run_seconds: doc["run_seconds"]
                .as_f64()
                .ok_or("BENCHMARK.json has no `run_seconds`")?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// Checks that `reported` — a run's end-to-end metrics, or its layer
    /// metrics when `traced` — are exactly the ones declared, by name and
    /// unit and in order.
    pub fn check(&self, traced: bool, reported: &[Metric]) -> Result<(), String> {
        let declared = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let want: Vec<(&str, &str)> = declared
            .iter()
            .map(|d| (d.name.as_str(), d.unit.as_str()))
            .collect();
        let got: Vec<(&str, &str)> = reported.iter().map(|m| (m.name.as_str(), m.unit)).collect();
        if want == got {
            return Ok(());
        }
        let missing: Vec<_> = want.iter().filter(|w| !got.contains(w)).collect();
        let extra: Vec<_> = got.iter().filter(|g| !want.contains(g)).collect();
        Err(format!(
            "metrics drifted from BENCHMARK.json: declared but not reported {missing:?}, \
             reported but not declared {extra:?}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEXT: &str = r#"{
      "workloads": [{"name": "a", "why": "x"}, {"name": "b", "why": "y"}],
      "run_seconds": 10,
      "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}],
      "per_layer": [{"name": "io.bytes", "unit": "B", "better": "higher"}]
    }"#;

    #[test]
    fn parses_and_checks_names_and_units() {
        let m = Manifest::parse(TEXT).unwrap();
        assert_eq!(m.workloads, ["a", "b"]);
        assert_eq!(m.run_seconds, 10.0);
        assert_eq!(m.end_to_end[0].bound, Some(0.25));
        assert_eq!(m.per_layer[0].bound, None);
        assert_eq!(m.per_layer[0].better, Better::Higher);
        let setup = [Metric::new("setup_s", 1.0, "s", 3)];
        assert!(m.check(false, &setup).is_ok());
        assert!(m.check(true, &setup).is_err());
        let err = m
            .check(false, &[Metric::new("setup_s", 1.0, "ms", 3)])
            .unwrap_err();
        assert!(err.contains("setup_s"), "{err}");
        assert!(Manifest::parse("{}").is_err());
    }
}
