//! Metric bookkeeping, order statistics, and the result line.

use crate::json::escape;

/// End-to-end metrics every workload reports (the untraced run's result
/// line). `op` is the workload's own unit of work: one index build on
/// `build`, one CLUSTER round trip on `explore`, one read on `serve`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (the traced run's result line). A workload that
/// never calls into a layer reports 0 for that layer's metrics.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.edges", "count"),
    ("graph.io.read_s", "s"),
    ("core.similarity_exact.busy_s", "s"),
    ("core.similarity_exact.par_eff", "ratio"),
    ("core.similarity_exact.breakpoints_s", "s"),
    ("core.neighbor_order.busy_s", "s"),
    ("core.neighbor_order.par_eff", "ratio"),
    ("core.core_order.busy_s", "s"),
    ("core.core_order.par_eff", "ratio"),
    ("core.core_order.cores_us", "us"),
    ("core.persist.encode_s", "s"),
    ("core.persist.write_s", "s"),
    ("core.persist.read_s", "s"),
    ("core.persist.decode_s", "s"),
    ("core.persist.snapshot_bytes", "bytes"),
    ("core.index.memory_bytes", "bytes"),
    ("core.query.cluster_p50_ms", "ms"),
    ("core.query.cluster_p90_ms", "ms"),
    ("core.query.empty_ms", "ms"),
    ("core.query.prefix_edges", "count"),
    ("core.query.ns_per_prefix_edge", "ns"),
    ("core.dynamic.apply_ms", "ms"),
    ("store.open_ms", "ms"),
    ("store.audit_us", "us"),
    ("server.registry.install_ms", "ms"),
    ("server.registry.get_us", "us"),
    ("server.protocol.parse_us", "us"),
    ("server.protocol.render_us", "us"),
    ("server.engine.miss_ms", "ms"),
    ("server.engine.hit_us", "us"),
    ("server.engine.probe_us", "us"),
    ("server.engine.hits", "count"),
    ("server.engine.misses", "count"),
    ("server.engine.invalidated", "count"),
    ("server.engine.coalesced_waits", "count"),
    ("server.reactor.residual_us", "us"),
    ("server.reactor.shed", "count"),
    ("server.reactor.deadline_expired", "count"),
    ("loadgen.sent", "count"),
    ("loadgen.completed", "count"),
    ("loadgen.late_max_ms", "ms"),
    ("trace.spans", "count"),
    ("trace.overhead", "fraction"),
    ("trace.accounting_gap", "fraction"),
];

#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, String)>,
    checks: Vec<(String, bool, String)>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    /// Record a metric (a later value for the same name replaces it).
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.retain(|(n, _, _)| n != name);
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    /// Record an output check; any failed check makes the run incorrect.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push((name.to_string(), ok, detail.into()));
    }

    pub fn correct(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|(_, ok, _)| *ok)
    }

    /// Human-readable lines: every metric with its unit, then the checks.
    pub fn print(&self) {
        for (name, value, unit) in &self.metrics {
            println!("metric {name:<38} {value:>16.6} {unit}");
        }
        for (name, ok, detail) in &self.checks {
            println!(
                "check  {name:<38} {} {detail}",
                if *ok { "ok  " } else { "FAIL" }
            );
        }
    }

    /// The result line: `wanted` metrics in order, 0 for any this run did
    /// not measure.
    pub fn result_line(&self, wanted: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = wanted
            .iter()
            .map(|&(name, unit)| {
                let v = self.get(name).unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!(
                    r#""{}":{{"value":{},"unit":"{}"}}"#,
                    escape(name),
                    v,
                    escape(unit)
                )
            })
            .collect();
        format!(
            r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank quantile of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The `q` quantile, only when at least ten samples lie beyond it.
pub fn tail(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = (q * n as f64).ceil() as usize;
    (n >= rank + 10).then(|| quantile(sorted, q))
}

/// Record `{prefix}_p50_{unit}` and, when the sample supports it,
/// `{prefix}_p{99|90}_{unit}`, plus the sample count.
pub fn latency(r: &mut Report, prefix: &str, unit: &str, samples: &[f64], tails: &[(f64, &str)]) {
    let s = sorted(samples.to_vec());
    r.metric(&format!("{prefix}_samples"), s.len() as f64, "count");
    if s.is_empty() {
        return;
    }
    r.metric(&format!("{prefix}_p50_{unit}"), median(&s), unit);
    for &(q, label) in tails {
        if let Some(v) = tail(&s, q) {
            r.metric(&format!("{prefix}_{label}_{unit}"), v, unit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v, 0.99), Some(990.0));
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&v, 0.99), None);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn result_line_has_every_wanted_metric() {
        let mut r = Report::default();
        r.metric("setup_s", 0.5, "s");
        r.check("x", true, "");
        let line = r.result_line(&[("setup_s", "s"), ("op_p50_ms", "ms")]);
        let v = crate::json::parse(&line).unwrap();
        assert_eq!(v.path_num(&["metrics", "setup_s", "value"]), Some(0.5));
        assert_eq!(v.path_num(&["metrics", "op_p50_ms", "value"]), Some(0.0));
        assert_eq!(v.boolean("correct"), Some(true));
    }
}
