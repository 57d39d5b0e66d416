//! Per-layer metrics of a traced run, from its spans and work counts.

use std::collections::HashMap;

use crate::metric::Metric;
use crate::spans::Span;
use crate::stats::{median, percentile, self_time, tail_percentile};
use crate::workloads::Run;

/// Span names that are layers, each after the module it enters.
const LAYERS: [&str; 9] = [
    "runtime", "io", "memsim", "engine", "analysis", "report", "repair", "pmrace", "serve",
];

/// Self time per layer (ns), span count per layer, Σ job wall (ns), and
/// Σ self time of layer spans inside jobs (ns).
struct SpanTotals {
    self_ns: HashMap<&'static str, u64>,
    count: HashMap<&'static str, u64>,
    job_ns: u64,
    covered_ns: u64,
}

fn totals(spans: &[Span]) -> SpanTotals {
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.span_id, s)).collect();
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent_id {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let in_job = |s: &Span| {
        let mut root = s;
        while let Some(&p) = root.parent_id.and_then(|p| by_id.get(&p)) {
            root = p;
        }
        root.name == "job"
    };
    let mut t = SpanTotals {
        self_ns: HashMap::new(),
        count: HashMap::new(),
        job_ns: 0,
        covered_ns: 0,
    };
    for s in spans {
        if s.name == "job" {
            t.job_ns += s.end_ns - s.start_ns;
            continue;
        }
        let own = self_time(
            (s.start_ns, s.end_ns),
            children.get(&s.span_id).map_or(&[][..], Vec::as_slice),
        );
        *t.self_ns.entry(s.name).or_default() += own;
        *t.count.entry(s.name).or_default() += 1;
        if in_job(s) {
            t.covered_ns += own;
        }
    }
    t
}

/// Every per-layer metric, in `BENCHMARK.json` order; a layer the workload
/// never entered reports zeros.
pub(crate) fn per_layer(spans: &[Span], run: &Run) -> Vec<Metric> {
    let t = totals(spans);
    let count = |k: &str| run.counts.get(k).copied().unwrap_or(0.0);
    let samples = |k: &str| run.samples.get(k).map_or(&[][..], Vec::as_slice);
    let self_ms = |l: &str| t.self_ns.get(l).copied().unwrap_or(0) as f64 / 1e6;
    let spans_of = |l: &str| t.count.get(l).copied().unwrap_or(0);
    let job_ms = t.job_ns as f64 / 1e6;
    let jobs = spans.iter().filter(|s| s.name == "job").count() as u64;
    let plain = |name: &str| Metric::new(name, count(name), "count", spans_of(layer_of(name)));

    let mut out = Vec::new();
    for l in LAYERS {
        out.push(Metric::new(
            format!("{l}.self_ms"),
            self_ms(l),
            "ms",
            spans_of(l),
        ));
        out.push(Metric::ratio(
            format!("{l}.share"),
            self_ms(l),
            job_ms,
            "ratio",
            jobs,
        ));
    }
    out.push(plain("runtime.events"));
    out.push(Metric::ratio(
        "runtime.events_per_s",
        count("runtime.events"),
        self_ms("runtime") / 1e3,
        "1/s",
        spans_of("runtime"),
    ));
    out.push(Metric::new(
        "io.bytes",
        count("io.bytes"),
        "B",
        spans_of("io"),
    ));
    out.push(Metric::ratio(
        "io.mb_per_s",
        count("io.bytes") / 1e6,
        self_ms("io") / 1e3,
        "MB/s",
        spans_of("io"),
    ));
    out.push(Metric::ratio(
        "memsim.events_per_s",
        count("memsim.events"),
        self_ms("memsim") / 1e3,
        "1/s",
        spans_of("memsim"),
    ));
    for name in [
        "memsim.windows_created",
        "memsim.windows_unpersisted",
        "memsim.irh_discarded",
        "memsim.distinct_locksets",
        "memsim.distinct_vclocks",
        "engine.candidate_pairs",
        "engine.pruned_hb",
        "engine.pruned_lockset",
        "engine.pairs_reported",
    ] {
        out.push(plain(name));
    }
    out.push(Metric::ratio(
        "engine.report_ratio",
        count("engine.pairs_reported"),
        count("engine.candidate_pairs"),
        "ratio",
        spans_of("engine"),
    ));
    out.push(plain("engine.races"));
    out.push(Metric::new(
        "report.json_bytes",
        count("report.json_bytes"),
        "B",
        spans_of("report"),
    ));
    out.push(plain("repair.fixes"));
    out.push(plain("repair.validated"));
    out.push(Metric::ratio(
        "repair.validated_ratio",
        count("repair.validated"),
        count("repair.fixes"),
        "ratio",
        spans_of("repair"),
    ));
    out.push(Metric::ratio(
        "repair.ms_per_fix",
        self_ms("repair"),
        count("repair.fixes"),
        "ms",
        spans_of("repair"),
    ));
    let rounds = samples("pmrace.round_ms");
    out.push(plain("pmrace.rounds"));
    out.push(p50("pmrace.round_ms_p50", rounds, "ms"));
    out.push(tail("pmrace.round_ms_tail", rounds));
    out.push(plain("pmrace.images_captured"));
    out.push(plain("pmrace.crash_points"));
    out.push(plain("pmrace.coverage_points"));
    out.push(p50(
        "pmrace.retained_mib",
        samples("pmrace.retained_mib"),
        "MiB",
    ));
    out.push(Metric::ratio(
        "pmrace.coverage_rounds_ratio",
        count("pmrace.corpus_rounds"),
        count("pmrace.rounds"),
        "ratio",
        rounds.len() as u64,
    ));
    let latency = samples("serve.latency_ms");
    let analyze = samples("serve.analyze_ms");
    out.push(p50("serve.analyze_ms_p50", analyze, "ms"));
    let overhead = if latency.is_empty() || analyze.is_empty() {
        0.0
    } else {
        median(latency) - median(analyze)
    };
    out.push(Metric::new(
        "serve.overhead_ms_p50",
        overhead,
        "ms",
        latency.len() as u64,
    ));
    out.push(tail("serve.latency_ms_tail", latency));
    for name in ["serve.checkpoints", "serve.shed", "serve.retries"] {
        out.push(plain(name));
    }
    out.push(Metric::new(
        "serve.db_bytes",
        count("serve.db_bytes"),
        "B",
        1,
    ));
    out.push(Metric::ratio(
        "trace.coverage",
        t.covered_ns as f64 / 1e6,
        job_ms,
        "ratio",
        jobs,
    ));
    out.push(Metric::new(
        "trace.spans",
        spans.len() as f64,
        "count",
        spans.len() as u64,
    ));
    out
}

fn layer_of(metric: &str) -> &str {
    metric.split('.').next().unwrap_or(metric)
}

/// Median, or 0 for a layer without samples.
fn p50(name: &str, values: &[f64], unit: &'static str) -> Metric {
    let v = if values.is_empty() {
        0.0
    } else {
        median(values)
    };
    Metric::new(name, v, unit, values.len() as u64)
}

/// The highest percentile with ten samples beyond it, or 0 below eleven.
fn tail(name: &str, values: &[f64]) -> Metric {
    let p = tail_percentile(values.len());
    Metric {
        percentile: p,
        ..Metric::new(
            name,
            p.map_or(0.0, |p| percentile(values, p)),
            "ms",
            values.len() as u64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, s: u64, e: u64) -> Span {
        Span {
            job_id: 1,
            span_id: id,
            parent_id: parent,
            name,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn self_times_shares_and_coverage() {
        let spans = [
            span(1, None, "job", 0, 1_000_000),
            span(2, Some(1), "runtime", 0, 400_000),
            span(3, Some(1), "analysis", 400_000, 900_000),
            span(4, Some(3), "memsim", 400_000, 700_000),
            span(5, Some(3), "engine", 700_000, 850_000),
            // Outside the job: counted for its layer, not for coverage.
            span(6, None, "io", 1_000_000, 1_200_000),
        ];
        let mut run = Run::default();
        run.counts.insert("runtime.events", 1000.0);
        let m = per_layer(&spans, &run);
        let get = |n: &str| m.iter().find(|x| x.name == n).unwrap();
        assert!((get("runtime.self_ms").value - 0.4).abs() < 1e-12);
        assert!((get("analysis.self_ms").value - 0.05).abs() < 1e-12);
        assert!((get("io.self_ms").value - 0.2).abs() < 1e-12);
        assert!((get("memsim.share").value - 0.3).abs() < 1e-12);
        assert!((get("trace.coverage").value - 0.9).abs() < 1e-12);
        assert_eq!(get("trace.coverage").base, Some((0.9, 1.0)));
        assert!((get("runtime.events_per_s").value - 2_500_000.0).abs() < 1e-3);
        assert_eq!(get("repair.validated_ratio").value, 0.0);
        assert_eq!(get("serve.latency_ms_tail").percentile, None);
    }
}
