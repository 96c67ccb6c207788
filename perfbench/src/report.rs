//! Named metrics, the human-readable report and the final JSON line.

use std::fmt::Write as _;

/// One measured value with its unit and, for the report, how it was taken.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub note: String,
}

/// An ordered set of metrics.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.0.push(Metric { name: name.to_string(), value, unit, note: note.into() });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// The report lines, one metric each.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for m in &self.0 {
            let _ = writeln!(out, "{:<30} {:>14.6} {:<6} {}", m.name, m.value, m.unit, m.note);
        }
        out
    }
}

/// The result line: `names` picks, in order, the metrics it carries.
pub fn json_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &Metrics,
    names: &[&str],
) -> String {
    let mut body = String::new();
    for (k, name) in names.iter().enumerate() {
        let (value, unit) = match metrics.0.iter().find(|m| m.name == *name) {
            Some(m) => (m.value, m.unit),
            None => (f64::NAN, ""),
        };
        // JSON has no NaN; a missing value is reported as 0 and the caller
        // marks the run incorrect.
        let value = if value.is_finite() { value } else { 0.0 };
        let sep = if k == 0 { "" } else { ", " };
        let _ = write!(body, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
    }
    format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_shape() {
        let mut m = Metrics::default();
        m.add("setup_s", 0.25, "s", "");
        m.add("p50_ms", 1.5, "ms", "");
        let line = json_line(true, 10, 1, &m, &["setup_s", "p50_ms"]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": {\"setup_s\": {\"value\": 0.25, \
             \"unit\": \"s\"}, \"p50_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
    }
}
