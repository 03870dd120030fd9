//! The noise gate: the same code measured as two interleaved sets of runs
//! must agree with itself within the bounds `BENCHMARK.json` fixes.
//!
//! Each run is a child process (peak RSS and lazy initialisation are per
//! process), with another seed per run and the same seeds in both sets —
//! the way the benchmark is judged. Per workload and end-to-end metric it
//! prints, for each set, (max − min) ÷ median and (Q3 − Q1) ÷ median, and
//! the difference between the two sets' medians. The range and the
//! difference are gated against the bound (the quartile spread, which the
//! range contains, is what the benchmark's acceptance rule looks at). The
//! timings of `spec::REPORTED` get the same rows against the bound the
//! issue wanted for them, marked `unresolved` instead of failing the gate.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};

use crate::spec;
use crate::stats::{iqr_over_median, median, range_over_median};

/// `run_seconds` of `BENCHMARK.json`, and the default of `--seconds`.
pub const RUN_SECONDS: u32 = 20;
/// The bound the issue asked for on every timing metric. `spec::REPORTED`
/// is judged against it, without failing the gate.
const REPORTED_BOUND: f64 = 0.10;

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `true` if lower is better.
    pub lower_is_better: bool,
    /// Share of the median by which it may get worse; per-layer metrics
    /// have none.
    pub bound: Option<f64>,
}

/// What `BENCHMARK.json` declares.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// `run_seconds`.
    pub run_seconds: u64,
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics.
    pub end_to_end: Vec<Declared>,
    /// Per-layer metrics.
    pub per_layer: Vec<Declared>,
}

/// Reads `BENCHMARK.json` from the directory above this package.
///
/// # Errors
///
/// Names the missing or mistyped key.
pub fn manifest() -> Result<Manifest, String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = serde_json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let array = |key: &str| {
        doc.field(key)
            .and_then(serde::Value::as_array)
            .ok_or_else(|| format!("BENCHMARK.json: no array {key:?}"))
    };
    let text_of = |v: &serde::Value, key: &str| {
        v.field(key)
            .and_then(serde::Value::as_str)
            .map(str::to_owned)
            .ok_or_else(|| format!("BENCHMARK.json: entry without {key:?}"))
    };
    let declared = |key: &str| -> Result<Vec<Declared>, String> {
        array(key)?
            .iter()
            .map(|m| {
                Ok(Declared {
                    name: text_of(m, "name")?,
                    unit: text_of(m, "unit")?,
                    lower_is_better: text_of(m, "better")? == "lower",
                    bound: match m.field("bound") {
                        Some(serde::Value::F64(b)) => Some(*b),
                        _ => None,
                    },
                })
            })
            .collect()
    };
    Ok(Manifest {
        run_seconds: doc
            .field("run_seconds")
            .and_then(serde::Value::as_u64)
            .ok_or("BENCHMARK.json: no run_seconds")?,
        workloads: array("workloads")?
            .iter()
            .map(|w| text_of(w, "name"))
            .collect::<Result<_, _>>()?,
        end_to_end: declared("end_to_end")?,
        per_layer: declared("per_layer")?,
    })
}

/// The values a child printed: every metric of its result line, and
/// every `reported <name> <value> <unit>` line above it. `Err` if it
/// reported failed operations or printed no result.
fn parse_result(stdout: &str) -> Result<BTreeMap<String, f64>, String> {
    let line = stdout.lines().last().ok_or("child printed nothing")?;
    let doc = serde_json::parse(line).map_err(|e| format!("result line: {e:?}"))?;
    if doc.field("correct") != Some(&serde::Value::Bool(true)) {
        return Err(format!("child reported failed operations: {line}"));
    }
    let Some(serde::Value::Obj(metrics)) = doc.field("metrics") else {
        return Err("result line has no metrics".to_owned());
    };
    let mut values = metrics
        .iter()
        .map(|(name, m)| match m.field("value") {
            Some(serde::Value::F64(v)) => Ok((name.clone(), *v)),
            Some(serde::Value::U64(v)) => Ok((name.clone(), *v as f64)),
            _ => Err(format!("metric {name} has no numeric value")),
        })
        .collect::<Result<BTreeMap<_, _>, _>>()?;
    for l in stdout.lines() {
        let mut words = l.split_whitespace();
        if let (Some("reported"), Some(name), Some(v)) = (words.next(), words.next(), words.next())
        {
            let v: f64 = v.parse().map_err(|_| format!("cannot read {l:?}"))?;
            values.insert(name.to_owned(), v);
        }
    }
    Ok(values)
}

fn run_child(workload: &str, seed: u64, seconds: u64) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    // `output` waits for the child to end, so none outlives this process.
    let out = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed}: exit {}\n{stdout}",
            out.status
        ));
    }
    parse_result(&stdout)
}

/// `metric → values`, one per run.
type Set = BTreeMap<String, Vec<f64>>;

/// A metric the gate judges: against its bound of `BENCHMARK.json`, or —
/// the timings of `spec::REPORTED`, `gated == false` — against
/// [`REPORTED_BOUND`].
#[derive(Debug, Clone, Copy)]
struct Metric<'a> {
    name: &'a str,
    unit: &'a str,
    bound: f64,
    gated: bool,
}

/// One row of the report.
struct Row {
    workload: String,
    name: String,
    unit: String,
    bound: f64,
    /// `false` for the timings of `spec::REPORTED`: shown, never failing.
    gated: bool,
    medians: [f64; 2],
    range: [f64; 2],
    iqr: [f64; 2],
    between: f64,
    ok: bool,
}

/// A row is within its bound when neither set's range nor the difference
/// of the two medians exceeds it — the same rule for every metric.
fn judge(workload: &str, metric: &Metric<'_>, a: &[f64], b: &[f64]) -> Row {
    let Metric {
        name,
        unit,
        bound,
        gated,
    } = *metric;
    let medians = [median(a), median(b)];
    let range = [range_over_median(a), range_over_median(b)];
    let iqr = [iqr_over_median(a), iqr_over_median(b)];
    let between = (medians[1] - medians[0]).abs() / medians[0];
    Row {
        workload: workload.to_owned(),
        name: name.to_owned(),
        unit: unit.to_owned(),
        bound,
        gated,
        medians,
        range,
        iqr,
        between,
        ok: range.iter().all(|s| *s <= bound) && between <= bound,
    }
}

fn render(rows: &[Row], runs: usize, seconds: u64) -> String {
    let pct = |v: f64| format!("{:.2} %", v * 100.0);
    let base_seed = crate::DEFAULT_SEED;
    let mut out = String::new();
    let _ = writeln!(out, "# A/A noise gate\n");
    let _ = writeln!(
        out,
        "Two interleaved sets (A, B) of {runs} runs per workload, `--seconds {seconds}`, seeds \
         {base_seed}..{} (the same in both sets), on {} CPUs. Spread is per set, as a share of \
         the set's median: range = (max − min), IQR = (Q3 − Q1) by \
         `statistics.quantiles(n=4)`. `A↔B` is the difference of the two medians as a share of \
         A's. A row is `ok` when both ranges and `A↔B` are within the bound of \
         `BENCHMARK.json`. The rows in parentheses are the timings every run reports but \
         `BENCHMARK.json` does not gate, judged the same way against the {} the issue wanted \
         for them: `within` or `unresolved`, never failing the gate.\n",
        base_seed + runs as u64 - 1,
        std::thread::available_parallelism().map_or(0, usize::from),
        pct(REPORTED_BOUND),
    );
    let mut current = "";
    for r in rows {
        if r.workload != current {
            current = &r.workload;
            let _ = writeln!(out, "\n## {current}\n");
            let _ = writeln!(
                out,
                "| metric | unit | median A | median B | range A | range B | IQR A | IQR B | A↔B | bound | |"
            );
            let _ = writeln!(out, "|---|---|---:|---:|---:|---:|---:|---:|---:|---:|---|");
        }
        let name = if r.gated {
            format!("`{}`", r.name)
        } else {
            format!("(`{}`)", r.name)
        };
        let _ = writeln!(
            out,
            "| {name} | {} | {:.6} | {:.6} | {} | {} | {} | {} | {} | {} | {} |",
            r.unit,
            r.medians[0],
            r.medians[1],
            pct(r.range[0]),
            pct(r.range[1]),
            pct(r.iqr[0]),
            pct(r.iqr[1]),
            pct(r.between),
            pct(r.bound),
            match (r.gated, r.ok) {
                (true, true) => "ok",
                (true, false) => "**FAIL**",
                (false, true) => "within",
                (false, false) => "unresolved",
            },
        );
    }
    let gated: Vec<&Row> = rows.iter().filter(|r| r.gated).collect();
    let failed = gated.iter().filter(|r| !r.ok).count();
    // What the benchmark itself is accepted by looks at the quartile
    // spread, not the range: one run in ten that met a bad minute of the
    // host widens the second and not the first.
    let by_quartiles = gated
        .iter()
        .filter(|r| r.iqr.iter().all(|s| *s <= r.bound) && r.between <= r.bound)
        .count();
    let reported = rows.len() - gated.len();
    let unresolved = rows.iter().filter(|r| !r.gated && !r.ok).count();
    let _ = writeln!(
        out,
        "\n{} of {} gated rows within their bounds{} Judged by IQR instead of range: {by_quartiles} \
         of {}. {unresolved} of {reported} reported timings unresolved.",
        gated.len() - failed,
        gated.len(),
        if failed == 0 {
            "."
        } else {
            ": **gate failed**."
        },
        gated.len(),
    );
    out
}

/// `aa [--runs n]`: every workload of `spec::WORKLOADS`, `run_seconds` of
/// `BENCHMARK.json` per run, seeds from [`crate::DEFAULT_SEED`] up. Prints
/// the report as Markdown; `Ok(false)` when a gated row is out of bounds.
///
/// # Errors
///
/// A child that fails, or a manifest that cannot be read.
pub fn run(args: &[String]) -> Result<bool, String> {
    let manifest = manifest()?;
    let runs: usize = crate::parse(args, "--runs", 5)?;
    if runs < 2 {
        return Err("--runs must be at least 2".to_owned());
    }

    let mut sets: BTreeMap<&str, [Set; 2]> = BTreeMap::new();
    for run in 0..runs {
        for set in 0..2 {
            for (w, _) in spec::WORKLOADS {
                let seed = crate::DEFAULT_SEED + run as u64;
                eprintln!(
                    "aa: run {} of {runs}, set {}, {w}, seed {seed}",
                    run + 1,
                    ["A", "B"][set]
                );
                let values = run_child(w, seed, manifest.run_seconds)?;
                eprintln!("aa:   {values:?}");
                for (metric, value) in values {
                    sets.entry(w).or_default()[set]
                        .entry(metric)
                        .or_default()
                        .push(value);
                }
            }
        }
    }

    let gated = manifest.end_to_end.iter().map(|m| Metric {
        name: &m.name,
        unit: &m.unit,
        bound: m.bound.unwrap_or(f64::INFINITY),
        gated: true,
    });
    let reported = spec::REPORTED.iter().map(|&(name, unit)| Metric {
        name,
        unit,
        bound: REPORTED_BOUND,
        gated: false,
    });
    let metrics: Vec<Metric<'_>> = gated.chain(reported).collect();
    let mut rows = Vec::new();
    for (w, _) in spec::WORKLOADS {
        let [a, b] = &sets[w];
        for metric in &metrics {
            match (a.get(metric.name), b.get(metric.name)) {
                (Some(va), Some(vb)) => rows.push(judge(w, metric, va, vb)),
                // A reported timing a workload has none of (the delivery
                // rate of an open loop is its offered rate).
                _ if !metric.gated => {}
                _ => return Err(format!("{w} did not report {}", metric.name)),
            }
        }
    }
    print!("{}", render(&rows, runs, manifest.run_seconds));
    Ok(rows.iter().all(|r| r.ok || !r.gated))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str, bound: f64) -> Metric<'_> {
        Metric {
            name,
            unit: "ms",
            bound,
            gated: true,
        }
    }

    #[test]
    fn names_in_benchmark_json_equal_the_printed_names_both_ways() {
        let m = manifest().expect("BENCHMARK.json");
        let names = |t: &[(&str, &str)]| t.iter().map(|e| e.0.to_owned()).collect::<Vec<_>>();
        let declared = |d: &[Declared]| d.iter().map(|e| e.name.clone()).collect::<Vec<_>>();
        assert_eq!(m.workloads, names(&spec::WORKLOADS));
        assert_eq!(declared(&m.end_to_end), names(&spec::END_TO_END));
        assert_eq!(declared(&m.per_layer), names(&spec::PER_LAYER));
        let units = |d: &[Declared]| d.iter().map(|e| e.unit.clone()).collect::<Vec<_>>();
        let spec_units = |t: &[(&str, &str)]| t.iter().map(|e| e.1.to_owned()).collect::<Vec<_>>();
        assert_eq!(units(&m.end_to_end), spec_units(&spec::END_TO_END));
        assert_eq!(units(&m.per_layer), spec_units(&spec::PER_LAYER));
        assert_eq!(m.run_seconds, u64::from(RUN_SECONDS));
        for (name, _) in spec::REPORTED {
            assert!(!names(&spec::END_TO_END).contains(&name.to_owned()));
        }
    }

    #[test]
    fn benchmark_json_keeps_the_contract_limits() {
        let m = manifest().expect("BENCHMARK.json");
        assert!(m
            .end_to_end
            .iter()
            .any(|e| e.name == "setup_s" && e.unit == "s" && e.lower_is_better));
        for e in &m.end_to_end {
            let bound = e.bound.expect("every end-to-end metric has a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: {bound}", e.name);
        }
        assert!(m.per_layer.iter().all(|e| e.bound.is_none()));
        assert!(m.per_layer.len() <= 128 && m.end_to_end.len() <= 16);
        assert!((2..=8).contains(&m.workloads.len()));
        for (name, why) in spec::WORKLOADS {
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: why is {} chars",
                why.len()
            );
        }
    }

    #[test]
    fn a_steady_metric_passes_and_a_noisy_or_shifted_one_fails() {
        let steady = [100.0, 101.0, 99.0, 100.5, 100.0];
        assert!(judge("w", &metric("m", 0.05), &steady, &steady).ok);
        let noisy = [100.0, 120.0, 90.0, 110.0, 95.0];
        assert!(!judge("w", &metric("m", 0.05), &noisy, &steady).ok);
        // One stalled run in ten leaves the quartiles alone but not the
        // range, and the range is what is gated.
        let one_outlier = [
            100.0, 101.0, 99.0, 100.5, 100.0, 99.5, 100.2, 99.8, 100.7, 160.0,
        ];
        let row = judge("w", &metric("m", 0.05), &one_outlier, &steady);
        assert!(row.iqr[0] <= 0.05 && row.range[0] > 0.05 && !row.ok);
        let shifted = steady.map(|v| v * 1.08);
        assert!(!judge("w", &metric("m", 0.05), &steady, &shifted).ok);
        assert!(judge("w", &metric("m", 0.10), &steady, &shifted).ok);
    }

    #[test]
    fn no_metric_is_judged_by_its_name() {
        let noisy = [100.0, 160.0, 70.0, 100.0, 100.0];
        for name in ["setup_s", "frames_per_delivery"] {
            assert!(!judge("w", &metric(name, 0.25), &noisy, &noisy).ok);
        }
    }

    #[test]
    fn a_reported_timing_out_of_bounds_is_unresolved_not_a_failure() {
        let noisy = [100.0, 160.0, 70.0, 100.0, 100.0];
        let reported = Metric {
            gated: false,
            ..metric("cpu_us_per_delivery", REPORTED_BOUND)
        };
        let rows = [
            judge("w", &metric("m", 0.05), &[1.0, 1.0], &[1.0, 1.0]),
            judge("w", &reported, &noisy, &noisy),
        ];
        let text = render(&rows, 5, 20);
        assert!(text.contains("| (`cpu_us_per_delivery`) |") && text.contains("| unresolved |"));
        assert!(text.contains(
            "1 of 1 gated rows within their bounds. Judged by IQR instead of range: 1 of 1. 1 of \
             1 reported timings unresolved."
        ));
    }

    #[test]
    fn result_lines_parse_and_incorrect_runs_are_refused() {
        let ok = "noise\nreported cpu_us_per_delivery 112.5 us\n{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 2, \"unit\": \"count\"}}}";
        let m = parse_result(ok).expect("parses");
        assert_eq!((m["a"], m["b"]), (1.5, 2.0));
        assert_eq!(m["cpu_us_per_delivery"], 112.5);
        let bad = ok.replace("true", "false");
        assert!(parse_result(&bad).is_err());
        assert!(parse_result("").is_err());
    }
}
