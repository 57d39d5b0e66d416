//! One reported number and its JSON line.

use serde_json::{Map, Number, Value};

/// A measured metric: value, unit, the sample count it rests on, and —
/// for a ratio — the numerator and denominator it was divided from.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, unique within its workload (`job_ms_p50`, `memsim.self_ms`).
    pub name: String,
    /// The value, with all its digits.
    pub value: f64,
    /// Unit (`s`, `ms`, `1/s`, `MiB`, `count`, `ratio`, ...).
    pub unit: &'static str,
    /// Samples or events the value was computed from.
    pub n: u64,
    /// `(numerator, denominator)` when the value is their quotient.
    pub base: Option<(f64, f64)>,
    /// The percentile a tail value sits at.
    pub percentile: Option<f64>,
    /// The value in wall time, before scaling to the host's reference
    /// speed.
    pub unscaled: Option<f64>,
}

impl Metric {
    /// A plain value over `n` samples.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, n: u64) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
            n,
            base: None,
            percentile: None,
            unscaled: None,
        }
    }

    /// `num / den`, printed with both (0 when the denominator is 0, which
    /// happens only for a layer the workload never entered).
    pub fn ratio(name: impl Into<String>, num: f64, den: f64, unit: &'static str, n: u64) -> Self {
        let value = if den == 0.0 { 0.0 } else { num / den };
        Self {
            base: Some((num, den)),
            ..Self::new(name, value, unit, n)
        }
    }

    /// Records the value's unscaled wall-time reading.
    pub fn unscaled(self, wall: f64) -> Self {
        Self {
            unscaled: Some(wall),
            ..self
        }
    }

    /// The metric as one JSON line tagged with its workload.
    pub fn to_line(&self, workload: &str) -> String {
        let mut o = Map::new();
        o.insert("workload", Value::String(workload.into()));
        o.insert("metric", Value::String(self.name.clone()));
        o.insert("value", float(self.value));
        o.insert("unit", Value::String(self.unit.into()));
        o.insert("n", Value::Number(Number::PosInt(self.n)));
        if let Some((num, den)) = self.base {
            o.insert("num", float(num));
            o.insert("den", float(den));
        }
        if let Some(p) = self.percentile {
            o.insert("percentile", float(p));
        }
        if let Some(w) = self.unscaled {
            o.insert("unscaled", float(w));
        }
        serde_json::to_string(&Value::Object(o)).expect("metric serialization cannot fail")
    }
}

/// A JSON float; non-finite values become 0 so every line stays valid.
pub fn float(v: f64) -> Value {
    Value::Number(Number::Float(if v.is_finite() { v } else { 0.0 }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_prints_its_base() {
        let m = Metric::ratio("engine.report_ratio", 3.0, 4.0, "ratio", 2);
        assert_eq!(m.value, 0.75);
        assert_eq!(
            m.to_line("analyze-large"),
            r#"{"workload":"analyze-large","metric":"engine.report_ratio","value":0.75,"unit":"ratio","n":2,"num":3.0,"den":4.0}"#
        );
        let empty = Metric::ratio("repair.validated_ratio", 0.0, 0.0, "ratio", 0);
        assert_eq!(empty.value, 0.0);
        assert!(empty.to_line("w").contains(r#""num":0.0,"den":0.0"#));
    }

    #[test]
    fn plain_values_keep_all_digits() {
        let m = Metric::new("job_ms_p50", 1.234_567_891_234, "ms", 80);
        assert_eq!(
            m.to_line("record-analyze"),
            r#"{"workload":"record-analyze","metric":"job_ms_p50","value":1.234567891234,"unit":"ms","n":80}"#
        );
        assert!(Metric::new("x", f64::NAN, "ms", 0)
            .to_line("w")
            .contains(r#""value":0.0"#));
    }
}
