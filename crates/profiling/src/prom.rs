//! Prometheus text-exposition builder (public path:
//! [`trace::PromText`](crate::trace::PromText)).

use std::fmt::Write as _;

/// Incremental builder of a Prometheus text-format exposition
/// (`# HELP` / `# TYPE` headers plus sample lines). Purely textual —
/// callers bring their own counter values, so the exposition works on
/// any snapshot without a live registry.
#[derive(Debug, Default)]
pub struct PromText {
    out: String,
}

impl PromText {
    /// An empty exposition.
    pub fn new() -> Self {
        PromText::default()
    }

    fn header(&mut self, name: &str, help: &str, typ: &str) {
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} {typ}");
    }

    fn scalar(&mut self, name: &str, help: &str, typ: &str, value: u64) {
        self.header(name, help, typ);
        let _ = writeln!(self.out, "{name} {value}");
    }

    /// One unlabeled counter metric (header + sample).
    pub fn counter(&mut self, name: &str, help: &str, value: u64) {
        self.scalar(name, help, "counter", value);
    }

    /// One unlabeled gauge metric (header + sample).
    pub fn gauge(&mut self, name: &str, help: &str, value: u64) {
        self.scalar(name, help, "gauge", value);
    }

    /// One metric with a labeled sample per entry. `label` is the
    /// label key; entries are `(label value, sample)`.
    pub fn counter_vec(&mut self, name: &str, help: &str, label: &str, entries: &[(&str, u64)]) {
        self.header(name, help, "counter");
        for (lv, v) in entries {
            let _ = writeln!(self.out, "{name}{{{label}=\"{lv}\"}} {v}");
        }
    }

    /// One fixed-bucket histogram series under a single label pair.
    /// `buckets` are the upper bounds (in ascending order) matching
    /// `counts`, which hold *cumulative* observation counts per bucket
    /// (`counts[i]` = observations ≤ `buckets[i]`); a `+Inf` bucket,
    /// `_sum` and `_count` lines complete the series. Emit the
    /// `# HELP`/`# TYPE` header once via
    /// [`histogram_header`](Self::histogram_header) before the first labeled series.
    #[allow(clippy::too_many_arguments)]
    pub fn histogram_series(
        &mut self,
        name: &str,
        label: &str,
        label_value: &str,
        buckets: &[f64],
        counts: &[u64],
        sum: f64,
        count: u64,
    ) {
        debug_assert_eq!(buckets.len(), counts.len());
        for (le, c) in buckets.iter().zip(counts) {
            let _ = writeln!(
                self.out,
                "{name}_bucket{{{label}=\"{label_value}\",le=\"{le}\"}} {c}"
            );
        }
        let _ = writeln!(
            self.out,
            "{name}_bucket{{{label}=\"{label_value}\",le=\"+Inf\"}} {count}"
        );
        let _ = writeln!(self.out, "{name}_sum{{{label}=\"{label_value}\"}} {sum}");
        let _ = writeln!(
            self.out,
            "{name}_count{{{label}=\"{label_value}\"}} {count}"
        );
    }

    /// The `# HELP`/`# TYPE histogram` header for a histogram metric
    /// (once per metric name, before its labeled series).
    pub fn histogram_header(&mut self, name: &str, help: &str) {
        self.header(name, help, "histogram");
    }

    /// The accumulated exposition text.
    pub fn finish(self) -> String {
        self.out
    }
}
