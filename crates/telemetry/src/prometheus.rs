//! Prometheus text exposition (format 0.0.4) of a [`MetricsSnapshot`].
//!
//! Dotted hdpm metric names become underscore-separated Prometheus
//! names (`server.request_ns` → `server_request_ns`); labels rendered
//! into the series key by [`crate::metric_key`] pass through as-is.
//! Counters map to
//! `counter`, gauges to `gauge`, and latency histograms to `summary`
//! series (`_count`, `_sum` approximated as `mean × count`, plus
//! `quantile` series for p50/p95/p99) — the registry keeps log-scale
//! buckets, so pre-computed quantiles are the honest exposition.
//!
//! Output is deterministic: snapshot maps are sorted, series group by
//! base name, and every group carries exactly one `# TYPE` line — so CI
//! can diff a names-and-types skeleton across runs.

use std::collections::BTreeMap;

use crate::metrics::{HistogramSummary, MetricsSnapshot};

/// One metric series split into its parts.
struct Series<'a, T> {
    /// `name{labels}` suffix starting at `{`, or empty when unlabeled.
    labels: &'a str,
    value: T,
}

/// Split a registry key into `(base_name, label_block)` where the label
/// block is `{…}` or empty.
fn split_key(key: &str) -> (&str, &str) {
    match key.find('{') {
        Some(brace) => (&key[..brace], &key[brace..]),
        None => (key, ""),
    }
}

/// `a.b.c` → `a_b_c`, and any other character Prometheus rejects also
/// becomes `_`.
fn sanitize(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.starts_with(|c: char| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

fn group<'a, T: Copy>(map: &'a BTreeMap<String, T>) -> BTreeMap<String, Vec<Series<'a, T>>> {
    let mut groups: BTreeMap<String, Vec<Series<'a, T>>> = BTreeMap::new();
    for (key, value) in map {
        let (base, labels) = split_key(key);
        groups.entry(sanitize(base)).or_default().push(Series {
            labels,
            value: *value,
        });
    }
    groups
}

fn write_f64(out: &mut String, v: f64) {
    if v.is_nan() {
        out.push_str("NaN");
    } else if v == f64::INFINITY {
        out.push_str("+Inf");
    } else if v == f64::NEG_INFINITY {
        out.push_str("-Inf");
    } else {
        out.push_str(&format!("{v}"));
    }
}

/// Insert (or append) a `quantile="…"` label into an existing label
/// block (`{…}` or empty).
fn with_quantile(labels: &str, q: &str) -> String {
    if labels.is_empty() {
        format!("{{quantile=\"{q}\"}}")
    } else {
        // labels = "{k=\"v\",...}" — splice before the closing brace.
        format!("{},quantile=\"{q}\"}}", &labels[..labels.len() - 1])
    }
}

/// Render the snapshot as Prometheus text exposition. Deterministic for
/// a given snapshot; ends with a trailing newline when non-empty.
pub fn render(snap: &MetricsSnapshot) -> String {
    let mut out = String::with_capacity(4096);

    for (base, series) in group(&snap.counters) {
        out.push_str(&format!("# TYPE {base} counter\n"));
        for s in series {
            out.push_str(&format!("{base}{} {}\n", s.labels, s.value));
        }
    }

    for (base, series) in group(&snap.gauges) {
        out.push_str(&format!("# TYPE {base} gauge\n"));
        for s in series {
            out.push_str(&format!("{base}{} ", s.labels));
            write_f64(&mut out, s.value);
            out.push('\n');
        }
    }

    for (base, series) in group::<HistogramSummary>(&snap.histograms) {
        out.push_str(&format!("# TYPE {base} summary\n"));
        for s in &series {
            let h = s.value;
            for (q, v) in [("0.5", h.p50_ns), ("0.95", h.p95_ns), ("0.99", h.p99_ns)] {
                out.push_str(&format!("{base}{} ", with_quantile(s.labels, q)));
                write_f64(&mut out, v);
                out.push('\n');
            }
            out.push_str(&format!("{base}_count{} {}\n", s.labels, h.count));
            out.push_str(&format!("{base}_sum{} ", s.labels));
            write_f64(&mut out, h.mean_ns * h.count as f64);
            out.push('\n');
            out.push_str(&format!("{base}_max{} {}\n", s.labels, h.max_ns));
        }
    }

    out
}

/// Reduce an exposition to its stable skeleton: the `# TYPE` lines plus
/// each series' name-and-labels part (values stripped). This is what
/// the CI admin-smoke job diffs against a golden file — series
/// identities and types must not drift silently, while values may.
pub fn skeleton(exposition: &str) -> String {
    let mut out = String::with_capacity(exposition.len());
    for line in exposition.lines() {
        if line.starts_with("# TYPE ") {
            out.push_str(line);
            out.push('\n');
        } else if !line.is_empty() && !line.starts_with('#') {
            // Value is everything after the last space outside braces —
            // series names/labels never contain a trailing space, so
            // rsplitting once on ' ' is exact.
            let name = line.rsplit_once(' ').map(|(n, _)| n).unwrap_or(line);
            out.push_str(name);
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::HistogramSummary;

    fn sample_snapshot() -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("server.request.ok".into(), 12);
        snap.counters
            .insert("server.stage.count{stage=\"decode\"}".into(), 5);
        snap.counters
            .insert("server.stage.count{stage=\"estimate\"}".into(), 7);
        snap.gauges.insert("server.queue.depth".into(), 3.0);
        snap.histograms.insert(
            "server.request_ns".into(),
            HistogramSummary {
                count: 4,
                mean_ns: 250.0,
                p50_ns: 192.0,
                p95_ns: 768.0,
                p99_ns: 768.0,
                max_ns: 900,
            },
        );
        snap
    }

    #[test]
    fn counters_group_under_one_type_line() {
        let text = render(&sample_snapshot());
        assert!(text.contains("# TYPE server_stage_count counter\n"));
        assert_eq!(text.matches("# TYPE server_stage_count").count(), 1);
        assert!(text.contains("server_stage_count{stage=\"decode\"} 5\n"));
        assert!(text.contains("server_stage_count{stage=\"estimate\"} 7\n"));
        assert!(text.contains("server_request_ok 12\n"));
    }

    #[test]
    fn gauges_and_summaries_render() {
        let text = render(&sample_snapshot());
        assert!(text.contains("# TYPE server_queue_depth gauge\nserver_queue_depth 3\n"));
        assert!(text.contains("# TYPE server_request_ns summary\n"));
        assert!(text.contains("server_request_ns{quantile=\"0.5\"} 192\n"));
        assert!(text.contains("server_request_ns_count 4\n"));
        assert!(text.contains("server_request_ns_sum 1000\n"));
        assert!(text.contains("server_request_ns_max 900\n"));
    }

    #[test]
    fn quantile_label_splices_into_existing_labels() {
        assert_eq!(with_quantile("", "0.5"), "{quantile=\"0.5\"}");
        assert_eq!(
            with_quantile("{stage=\"decode\"}", "0.99"),
            "{stage=\"decode\",quantile=\"0.99\"}"
        );
    }

    #[test]
    fn names_are_sanitized() {
        assert_eq!(sanitize("a.b-c/d"), "a_b_c_d");
        assert_eq!(sanitize("9lives"), "_9lives");
    }

    #[test]
    fn rendering_is_deterministic() {
        let snap = sample_snapshot();
        assert_eq!(render(&snap), render(&snap));
    }

    #[test]
    fn skeleton_strips_values_only() {
        let text = render(&sample_snapshot());
        let skel = skeleton(&text);
        assert!(skel.contains("# TYPE server_request_ok counter\n"));
        assert!(skel.contains("server_stage_count{stage=\"decode\"}\n"));
        assert!(skel.contains("server_request_ns{quantile=\"0.5\"}\n"));
        assert!(!skel.contains(" 12"), "{skel}");
        // Skeleton is insensitive to values.
        let mut other = sample_snapshot();
        other.counters.insert("server.request.ok".into(), 99);
        assert_eq!(skel, skeleton(&render(&other)));
    }

    #[test]
    fn empty_snapshot_renders_empty() {
        assert_eq!(render(&MetricsSnapshot::default()), "");
        assert_eq!(skeleton(""), "");
    }
}
