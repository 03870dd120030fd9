//! A run's result and the one place it is printed.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::spec;

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric name → value, as measured.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Timings of `spec::REPORTED` this run measured: printed above the
    /// result line, not part of it.
    pub reported: BTreeMap<&'static str, f64>,
    /// Operations checked by the correctness gate (deliveries expected,
    /// plus one per structural check).
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
    /// One line per failed check, printed to stderr.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Sets to 0 the per-layer metrics that come from a workload's own
    /// window and that this workload has none of (no flood trees under
    /// Bracha, no load generator on the simulator): a value measured on
    /// another workload is not printed under this one's name.
    pub fn none_of(&mut self, names: &[&'static str]) {
        for name in names {
            self.set(name, 0.0);
        }
    }

    /// Records a timing of `spec::REPORTED`.
    pub fn report(&mut self, name: &'static str, value: f64) {
        self.reported.insert(name, value);
    }

    /// Counts one checked operation; `ok == false` counts it as failed
    /// and keeps `why` for the report.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(1, why());
        }
    }

    /// Counts `ops` checked operations at once.
    pub fn attempted(&mut self, ops: u64) {
        self.attempted += ops;
    }

    /// Counts `ops` failed operations with one explanatory line.
    pub fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        if self.notes.len() < 20 {
            self.notes.push(why);
        }
    }

    /// Moves every metric and check of `other` into `self`.
    pub fn absorb(&mut self, other: Outcome) {
        self.metrics.extend(other.metrics);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
    }
}

/// Renders the result line: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`, the metrics being
/// exactly those of `table` in its order.
///
/// # Errors
///
/// Names the metric when the outcome lacks one of `table`, holds one that
/// is not in `table`, or holds a value that is not finite: a run that
/// cannot report its contract must not print a result.
pub fn result_line(outcome: &Outcome, table: &[(&str, &str)]) -> Result<String, String> {
    if let Some(extra) = outcome
        .metrics
        .keys()
        .find(|k| !table.iter().any(|(name, _)| name == *k))
    {
        return Err(format!("metric {extra} is not in the benchmark's tables"));
    }
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed
    );
    for (i, (name, unit)) in table.iter().enumerate() {
        let value = outcome
            .metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        if i > 0 {
            line.push_str(", ");
        }
        // `{:?}` prints an f64 with every digit needed to read it back.
        let _ = write!(
            line,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    line.push_str("}}");
    Ok(line)
}

/// Prints the human-readable table and the reported timings, then the
/// result line last.
///
/// # Errors
///
/// As [`result_line`], or when a reported timing is not in
/// `spec::REPORTED`; nothing is printed then.
pub fn emit(workload: &str, outcome: &Outcome, table: &[(&str, &str)]) -> Result<(), String> {
    let line = result_line(outcome, table)?;
    if let Some(stray) = outcome
        .reported
        .keys()
        .find(|k| !spec::REPORTED.iter().any(|(name, _)| name == *k))
    {
        return Err(format!("timing {stray} is not in spec::REPORTED"));
    }
    for note in &outcome.notes {
        eprintln!("FAILED CHECK: {note}");
    }
    println!("workload {workload}");
    for (name, unit) in table {
        println!("{name:<40} {:>16.4} {unit}", outcome.metrics[name]);
    }
    for (name, unit) in spec::REPORTED {
        if let Some(value) = outcome.reported.get(name) {
            println!("reported {name} {value:?} {unit}");
        }
    }
    println!("ops_attempted {}", outcome.attempted);
    println!("ops_failed {}", outcome.failed);
    println!("{line}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const TABLE: [(&str, &str); 2] = [("a_ms", "ms"), ("b", "count")];

    fn outcome() -> Outcome {
        let mut o = Outcome::default();
        o.set("a_ms", 1.203_456_789);
        o.set("b", 3.0);
        o.attempted(10);
        o
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(&outcome(), &TABLE).expect("complete");
        let doc = serde_json::parse(&line).expect("valid JSON");
        let serde::Value::Obj(fields) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.field("correct"), Some(&serde::Value::Bool(true)));
        let a = doc
            .field("metrics")
            .and_then(|m| m.field("a_ms"))
            .expect("a_ms");
        assert_eq!(a.field("value"), Some(&serde::Value::F64(1.203_456_789)));
        assert_eq!(a.field("unit").and_then(serde::Value::as_str), Some("ms"));
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut o = outcome();
        o.check(false, || "node 3 missed id 9".to_owned());
        let line = result_line(&o, &TABLE).expect("complete");
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 11, \"failed\": 1,"));
    }

    #[test]
    fn missing_extra_and_non_finite_metrics_are_refused() {
        let mut o = outcome();
        o.metrics.remove("b");
        assert!(result_line(&o, &TABLE)
            .unwrap_err()
            .contains("b was not measured"));
        let mut o = outcome();
        o.set("stray", 1.0);
        assert!(result_line(&o, &TABLE).unwrap_err().contains("stray"));
        let mut o = outcome();
        o.set("b", f64::NAN);
        assert!(result_line(&o, &TABLE).unwrap_err().contains("NaN"));
    }
}
