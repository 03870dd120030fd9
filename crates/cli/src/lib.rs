//! # lhg-cli
//!
//! Command-line tools for the LHG library. The `lhg` binary exposes:
//!
//! ```text
//! lhg generate  --constraint ktree|kdiamond|jd|harary --n N --k K [--format dot|edges|summary]
//! lhg validate  --k K [--file PATH]           # reads an edge list
//! lhg plan      --n N --f F                   # topology recommendation
//! lhg flood     --n N --k K [--failures F] [--trials T] [--constraint C]
//! lhg census    --k K [--max-n N]             # EX/REG table
//! lhg cluster   --nodes N --k K [--kill F]    # real-socket self-healing run
//! lhg observe   --nodes N --k K [--kill F]    # traced run: timeline + hop report
//! lhg chaos     --seeds N [--engine E]        # seeded fault-injection sweep
//! lhg byzantine --nodes N --k K [--traitor B] # Bracha broadcast vs. a live traitor
//! lhg top       --nodes N --k K [--json]      # live cluster telemetry by message class
//! ```
//!
//! All logic lives in [`run`], which writes to any `io::Write` — the tests
//! drive it with string buffers; the binary passes stdout.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt;
use std::io::Write;

use lhg_baselines::harary::{harary_exists, harary_graph};
use lhg_core::existence::{ex_jd, ex_ktree};
use lhg_core::jd::build_jd;
use lhg_core::kdiamond::build_kdiamond;
use lhg_core::ktree::build_ktree;
use lhg_core::planner::plan;
use lhg_core::properties::validate;
use lhg_core::regularity::{reg_kdiamond, reg_ktree};
use lhg_core::Constraint;
use lhg_flood::engine::Protocol;
use lhg_flood::experiment::{run_trials, FailureMode};
use lhg_graph::io::{from_edge_list, to_dot, to_edge_list};
use lhg_graph::Graph;

/// A CLI failure: message plus suggested exit code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

fn err(message: impl Into<String>) -> CliError {
    CliError {
        message: message.into(),
    }
}

/// Parsed `--key value` options plus positional arguments.
#[derive(Debug, Default)]
struct Options {
    flags: BTreeMap<String, String>,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, CliError> {
        Options::parse_with_switches(args, &[])
    }

    /// Like [`Options::parse`], but keys listed in `switches` are bare
    /// boolean flags (`--quick`) that take no value and parse as `true`.
    fn parse_with_switches(args: &[String], switches: &[&str]) -> Result<Options, CliError> {
        let mut flags = BTreeMap::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            // `--key value` canonically; a single-dash short form (`-k 3`)
            // is accepted as the same key.
            let Some(key) = arg.strip_prefix("--").or_else(|| arg.strip_prefix('-')) else {
                return Err(err(format!("unexpected positional argument {arg:?}")));
            };
            if switches.contains(&key) {
                flags.insert(key.to_string(), "true".to_string());
                continue;
            }
            let value = it
                .next()
                .ok_or_else(|| err(format!("--{key} requires a value")))?;
            flags.insert(key.to_string(), value.clone());
        }
        Ok(Options { flags })
    }

    fn required<T: std::str::FromStr>(&self, key: &str) -> Result<T, CliError> {
        let raw = self
            .flags
            .get(key)
            .ok_or_else(|| err(format!("missing required option --{key}")))?;
        raw.parse()
            .map_err(|_| err(format!("invalid value {raw:?} for --{key}")))
    }

    fn optional<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| err(format!("invalid value {raw:?} for --{key}"))),
        }
    }

    fn string(&self, key: &str, default: &str) -> String {
        self.flags
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }
}

fn build_topology(constraint: &str, n: usize, k: usize) -> Result<Graph, CliError> {
    match constraint {
        "ktree" => Ok(build_ktree(n, k)
            .map_err(|e| err(e.to_string()))?
            .into_graph()),
        "kdiamond" => Ok(build_kdiamond(n, k)
            .map_err(|e| err(e.to_string()))?
            .into_graph()),
        "jd" => Ok(build_jd(n, k).map_err(|e| err(e.to_string()))?.into_graph()),
        "harary" => {
            if !harary_exists(n, k) {
                return Err(err(format!("H({k},{n}) is not defined")));
            }
            Ok(harary_graph(n, k))
        }
        other => Err(err(format!(
            "unknown constraint {other:?} (expected ktree, kdiamond, jd or harary)"
        ))),
    }
}

/// The usage text printed by `lhg help`.
pub const USAGE: &str = "\
lhg — Logarithmic Harary Graph tools

USAGE:
  lhg generate --constraint ktree|kdiamond|jd|harary --n N --k K [--format dot|edges|summary]
  lhg validate --k K [--file PATH]    (omit --file to read stdin)
  lhg plan     --n N --f F
  lhg flood    --n N --k K [--failures F] [--trials T] [--constraint C] [--seed S]
  lhg census   --k K [--max-n N]
  lhg cluster  --nodes N --k K [--kill F] [--constraint ktree|kdiamond|jd] [--metrics full|summary|off]
  lhg observe  --nodes N --k K [--kill F] [--broadcasts B] [--constraint C] [--format human|json] [--events PATH]
  lhg chaos    [--seeds N] [--seed BASE] [--engine sim|tcp|both]
               [--family crash|partition|lossy|byzantine|mixed] [--k 3..5] [--traitors T]
               [--quick] [--events PATH] [--json PATH]
  lhg byzantine --nodes N --k K [--traitor none|equivocate|forge|silent|replay|frame_crash|suppress_heartbeat]
               [--seed S] [--constraint C]
  lhg top      --nodes N --k K [--broadcasts B] [--duration-ms D] [--interval-ms I] [--constraint C] [--json]
  lhg help
";

/// Executes one CLI invocation (`args` excludes the program name), writing
/// results to `out`.
///
/// # Errors
///
/// Returns a [`CliError`] for unknown commands, malformed options, or
/// out-of-domain parameters; the binary prints it to stderr and exits 1.
pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let Some((command, rest)) = args.split_first() else {
        return Err(err(format!("no command given\n{USAGE}")));
    };
    let io_err = |e: std::io::Error| err(format!("write failed: {e}"));
    match command.as_str() {
        "help" | "--help" | "-h" => {
            out.write_all(USAGE.as_bytes()).map_err(io_err)?;
            Ok(())
        }
        "generate" => {
            let opts = Options::parse(rest)?;
            let n: usize = opts.required("n")?;
            let k: usize = opts.required("k")?;
            let constraint = opts.string("constraint", "kdiamond");
            let g = build_topology(&constraint, n, k)?;
            match opts.string("format", "edges").as_str() {
                "dot" => {
                    write!(out, "{}", to_dot(&g, &format!("{constraint}_{n}_{k}"))).map_err(io_err)
                }
                "edges" => write!(out, "{}", to_edge_list(&g)).map_err(io_err),
                "summary" => {
                    let report = validate(&g, k);
                    writeln!(
                        out,
                        "{constraint} (n={n}, k={k}): {} edges (bound {}), diameter {:?}, \
                         LHG={}, regular={}",
                        report.edge_count,
                        report.edge_lower_bound,
                        report.diameter,
                        report.is_lhg(),
                        report.regular
                    )
                    .map_err(io_err)
                }
                other => Err(err(format!("unknown format {other:?}"))),
            }
        }
        "validate" => {
            let opts = Options::parse(rest)?;
            let k: usize = opts.required("k")?;
            let text = match opts.flags.get("file") {
                Some(path) => std::fs::read_to_string(path)
                    .map_err(|e| err(format!("cannot read {path}: {e}")))?,
                None => {
                    let mut buf = String::new();
                    std::io::Read::read_to_string(&mut std::io::stdin(), &mut buf)
                        .map_err(|e| err(format!("cannot read stdin: {e}")))?;
                    buf
                }
            };
            let g = from_edge_list(&text).map_err(|e| err(e.to_string()))?;
            let report = validate(&g, k);
            writeln!(
                out,
                "n={} edges={} | P1 node-connectivity: {} | P2 link-connectivity: {} | \
                 P3 minimality: {} | P4 log-diameter: {} (d={:?} bound={:.1}) | \
                 P5 regular: {} | LHG: {}",
                report.n,
                report.edge_count,
                report.node_connectivity_ok,
                report.link_connectivity_ok,
                report.link_minimal,
                report.logarithmic_diameter,
                report.diameter,
                report.diameter_bound,
                report.regular,
                report.is_lhg()
            )
            .map_err(io_err)
        }
        "plan" => {
            let opts = Options::parse(rest)?;
            let n: usize = opts.required("n")?;
            let f: usize = opts.required("f")?;
            let (p, _) = plan(n, f).map_err(|e| err(e.to_string()))?;
            writeln!(
                out,
                "plan for n={n}, f={f}: use {} at k={} — {} edges ({} over the ⌈kn/2⌉ bound), \
                 regular={}; nearest regular sizes: {} and {}",
                p.constraint,
                p.k,
                p.edges,
                p.edge_overhead(),
                p.regular,
                p.nearest_regular.0,
                p.nearest_regular.1
            )
            .map_err(io_err)
        }
        "flood" => {
            let opts = Options::parse(rest)?;
            let n: usize = opts.required("n")?;
            let k: usize = opts.required("k")?;
            let failures: usize = opts.optional("failures", k - 1)?;
            let trials: usize = opts.optional("trials", 50)?;
            let seed: u64 = opts.optional("seed", 42)?;
            let constraint = opts.string("constraint", "kdiamond");
            let g = build_topology(&constraint, n, k)?;
            let mode = if failures == 0 {
                FailureMode::None
            } else {
                FailureMode::RandomNodes { count: failures }
            };
            let stats = run_trials(&g, Protocol::Flood, mode, trials, seed);
            writeln!(
                out,
                "flooding {constraint} (n={n}, k={k}) with {failures} random crashes, \
                 {trials} trials: reliability {:.3}, mean rounds {:.2}, mean messages {:.1}",
                stats.reliability, stats.mean_rounds, stats.mean_messages
            )
            .map_err(io_err)
        }
        "census" => {
            let opts = Options::parse(rest)?;
            let k: usize = opts.required("k")?;
            let max_n: usize = opts.optional("max-n", 4 * k + 10)?;
            writeln!(
                out,
                "n: EX(JD) EX(K-TREE/K-DIAMOND) REG(K-TREE) REG(K-DIAMOND)"
            )
            .map_err(io_err)?;
            for n in (k + 1)..=max_n {
                writeln!(
                    out,
                    "{n:>4}: {:>6} {:>21} {:>11} {:>14}",
                    ex_jd(n, k),
                    ex_ktree(n, k),
                    reg_ktree(n, k),
                    reg_kdiamond(n, k)
                )
                .map_err(io_err)?;
            }
            Ok(())
        }
        "cluster" => {
            let opts = Options::parse(rest)?;
            let n: usize = opts.required("nodes")?;
            let k: usize = opts.required("k")?;
            let kill: usize = opts.optional("kill", 0)?;
            let constraint = runtime_constraint(&opts.string("constraint", "kdiamond"))?;
            check_failure_model(n, k, kill)?;
            let metrics_mode = opts.string("metrics", "full");
            run_cluster(n, k, kill, constraint, &metrics_mode, out)
        }
        "observe" => {
            let opts = Options::parse(rest)?;
            let n: usize = opts.required("nodes")?;
            let k: usize = opts.required("k")?;
            let kill: usize = opts.optional("kill", 0)?;
            let broadcasts: usize = opts.optional("broadcasts", 1)?;
            let constraint = runtime_constraint(&opts.string("constraint", "kdiamond"))?;
            check_failure_model(n, k, kill)?;
            if broadcasts == 0 {
                return Err(err("--broadcasts must be at least 1"));
            }
            let format = opts.string("format", "human");
            if !matches!(format.as_str(), "human" | "json") {
                return Err(err(format!(
                    "unknown format {format:?} (expected human or json)"
                )));
            }
            let events_path = opts.flags.get("events").cloned();
            run_observe(
                n,
                k,
                kill,
                broadcasts,
                constraint,
                &format,
                events_path.as_deref(),
                out,
            )
        }
        "chaos" => {
            let opts = Options::parse_with_switches(rest, &["quick"])?;
            let seeds: u64 = opts.optional("seeds", 10)?;
            let base_seed: u64 = opts.optional("seed", 0)?;
            let quick: bool = opts.optional("quick", false)?;
            if seeds == 0 {
                return Err(err("--seeds must be at least 1"));
            }
            let engines: Vec<lhg_chaos::Engine> = match opts.string("engine", "both").as_str() {
                "sim" => vec![lhg_chaos::Engine::Sim],
                "tcp" => vec![lhg_chaos::Engine::Tcp],
                "both" => vec![lhg_chaos::Engine::Sim, lhg_chaos::Engine::Tcp],
                other => {
                    return Err(err(format!(
                        "unknown engine {other:?} (expected sim, tcp or both)"
                    )))
                }
            };
            let family = match opts.flags.get("family").map(String::as_str) {
                None => None,
                Some("crash") => Some(lhg_chaos::Family::Crash),
                Some("partition") => Some(lhg_chaos::Family::Partition),
                Some("lossy") => Some(lhg_chaos::Family::Lossy),
                Some("byzantine") => Some(lhg_chaos::Family::Byzantine),
                Some("mixed") => Some(lhg_chaos::Family::Mixed),
                Some(other) => {
                    return Err(err(format!(
                        "unknown family {other:?} \
                         (expected crash, partition, lossy, byzantine or mixed)"
                    )))
                }
            };
            // Sweep-shape overrides, read by the byzantine/mixed plan
            // generators: pin k (and thus the f budget) and the planted
            // traitor count, e.g. `--family mixed --k 5 --traitors 2`.
            let mut overrides = lhg_chaos::PlanOverrides::default();
            if opts.flags.contains_key("k") {
                let k: usize = opts.required("k")?;
                if !(3..=5).contains(&k) {
                    return Err(err(
                        "--k must be in 3..=5 (below 3 the traitor budget is zero, \
                         above 5 cluster sizes get slow)",
                    ));
                }
                overrides.k = Some(k);
            }
            if opts.flags.contains_key("traitors") {
                let t: usize = opts.required("traitors")?;
                if t == 0 {
                    return Err(err("--traitors must be at least 1"));
                }
                overrides.traitors = Some(t);
            }
            let events_path = opts.flags.get("events").cloned();
            let json_path = opts.flags.get("json").cloned();
            run_chaos(
                &engines,
                base_seed,
                seeds,
                quick,
                family,
                &overrides,
                events_path.as_deref(),
                json_path.as_deref(),
                out,
            )
        }
        "byzantine" => {
            let opts = Options::parse(rest)?;
            let n: usize = opts.required("nodes")?;
            let k: usize = opts.required("k")?;
            let seed: u64 = opts.optional("seed", 42)?;
            let traitor = opts.string("traitor", "forge");
            let constraint = opts.string("constraint", "kdiamond");
            run_byzantine_demo(n, k, &traitor, seed, &constraint, out)
        }
        "top" => {
            let opts = Options::parse_with_switches(rest, &["json"])?;
            let n: usize = opts.required("nodes")?;
            let k: usize = opts.required("k")?;
            let broadcasts: usize = opts.optional("broadcasts", 4)?;
            let duration_ms: u64 = opts.optional("duration-ms", 500)?;
            let interval_ms: u64 = opts.optional("interval-ms", 100)?;
            let constraint = runtime_constraint(&opts.string("constraint", "kdiamond"))?;
            let json: bool = opts.optional("json", false)?;
            check_failure_model(n, k, 0)?;
            if interval_ms == 0 {
                return Err(err("--interval-ms must be at least 1"));
            }
            run_top(
                n,
                k,
                broadcasts,
                duration_ms,
                interval_ms,
                constraint,
                json,
                out,
            )
        }
        other => Err(err(format!("unknown command {other:?}\n{USAGE}"))),
    }
}

/// Drives one `lhg chaos` sweep: `seeds` fault plans starting at
/// `base_seed` (consecutive, or — with `--family` — scanning upward for
/// seeds of that family), each executed on every requested engine under
/// the invariant oracle. Prints one summary line per run; `--json PATH`
/// additionally writes one machine-readable JSON object per run (JSONL),
/// appended and flushed as each run finishes — so an oracle-violation
/// abort or a killed process still leaves every completed run's record
/// on disk, never a truncated object. On any violation it lists the
/// details, dumps the captured event timeline to `--events` (when given),
/// and fails with the exact command line that reproduces the first
/// failing run.
#[allow(clippy::too_many_arguments)]
fn run_chaos(
    engines: &[lhg_chaos::Engine],
    base_seed: u64,
    seeds: u64,
    quick: bool,
    family: Option<lhg_chaos::Family>,
    overrides: &lhg_chaos::PlanOverrides,
    events_path: Option<&str>,
    json_path: Option<&str>,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let io_err = |e: std::io::Error| err(format!("write failed: {e}"));
    let mut write_err: Option<std::io::Error> = None;
    let mut json_err: Option<std::io::Error> = None;
    let mut json_file = match json_path {
        Some(path) => Some(
            std::fs::File::create(path).map_err(|e| err(format!("cannot write {path}: {e}")))?,
        ),
        None => None,
    };
    let outcome = lhg_chaos::run_suite(
        engines,
        base_seed,
        seeds,
        quick,
        family,
        overrides,
        |report| {
            // One complete object + newline per run, flushed immediately:
            // a later abort can cut the sweep short, never a JSON line.
            if let Some(f) = json_file.as_mut() {
                if json_err.is_none() {
                    json_err = writeln!(f, "{}", report.to_json_line())
                        .and_then(|()| f.flush())
                        .err();
                }
            }
            if write_err.is_none() {
                if let Err(e) = writeln!(out, "{}", report.summary()) {
                    write_err = Some(e);
                }
            }
        },
    );
    if let Some(e) = write_err {
        return Err(io_err(e));
    }
    if let Some(path) = json_path {
        if let Some(e) = json_err {
            return Err(err(format!("cannot write {path}: {e}")));
        }
        writeln!(out, "per-run JSON summaries written to {path}").map_err(io_err)?;
    }

    if outcome.passed() {
        writeln!(
            out,
            "chaos: all {} run(s) over {} seed(s) passed",
            outcome.reports.len(),
            seeds
        )
        .map_err(io_err)?;
        return Ok(());
    }

    for failure in outcome.failures() {
        writeln!(
            out,
            "chaos violation at seed={} engine={} family={}:",
            failure.seed,
            failure.engine,
            failure.family.name()
        )
        .map_err(io_err)?;
        for v in &failure.violations {
            writeln!(out, "  - {v}").map_err(io_err)?;
        }
    }
    if let Some(path) = events_path {
        if let Some(dump) = outcome.failures().find_map(|f| f.events_jsonl.as_ref()) {
            std::fs::write(path, dump).map_err(|e| err(format!("cannot write {path}: {e}")))?;
            writeln!(out, "event timeline of the failing run written to {path}").map_err(io_err)?;
        }
    }
    let first = outcome
        .failures()
        .next()
        .expect("failures is non-empty when the outcome did not pass");
    Err(err(format!(
        "{} of {} chaos run(s) violated an invariant; reproduce with: \
         lhg chaos --seed {} --seeds 1 --engine {}{}{}{}",
        outcome.failures().count(),
        outcome.reports.len(),
        first.seed,
        first.engine,
        if quick { " --quick" } else { "" },
        overrides.k.map(|k| format!(" --k {k}")).unwrap_or_default(),
        overrides
            .traitors
            .map(|t| format!(" --traitors {t}"))
            .unwrap_or_default(),
    )))
}

/// Parses a runtime-capable constraint name. kdiamond is the recommended
/// default (like generate/flood): it exists at every n ≥ 2k, so healing
/// never lands on a non-constructible size — JD sizes have gaps.
fn runtime_constraint(name: &str) -> Result<Constraint, CliError> {
    match name {
        "jd" => Ok(Constraint::Jd),
        "ktree" => Ok(Constraint::KTree),
        "kdiamond" => Ok(Constraint::KDiamond),
        other => Err(err(format!(
            "unknown constraint {other:?} (expected ktree, kdiamond or jd)"
        ))),
    }
}

/// Rejects runs outside the paper's fail-stop model: at most k−1 crashes,
/// and enough membership left for the overlay to heal.
fn check_failure_model(n: usize, k: usize, kill: usize) -> Result<(), CliError> {
    if k >= 2 && kill >= k {
        return Err(err(format!(
            "--kill {kill} violates the fail-stop model: an LHG at k={k} \
             tolerates at most k-1 = {} crashes",
            k - 1
        )));
    }
    if n < 2 * k + kill {
        return Err(err(format!(
            "--nodes {n} too small: healing after {kill} crashes needs \
             n - {kill} ≥ 2k = {}",
            2 * k
        )));
    }
    Ok(())
}

/// Drives one `lhg cluster` run: boot a real-socket cluster, broadcast,
/// fail-stop `kill` nodes, await detection + self-healing, verify the healed
/// topology, broadcast again, and dump metrics.
fn run_cluster(
    n: usize,
    k: usize,
    kill: usize,
    constraint: Constraint,
    metrics_mode: &str,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    use std::time::Duration;

    use lhg_graph::connectivity::is_k_vertex_connected;
    use lhg_runtime::{Cluster, RuntimeConfig};

    if !matches!(metrics_mode, "full" | "summary" | "off") {
        return Err(err(format!(
            "unknown metrics mode {metrics_mode:?} (expected full, summary or off)"
        )));
    }
    let io_err = |e: std::io::Error| err(format!("write failed: {e}"));
    let delivery_window = Duration::from_secs(15);
    let heal_window = Duration::from_secs(30);

    writeln!(
        out,
        "launching {n}-node {constraint} cluster at k={k} on loopback TCP"
    )
    .map_err(io_err)?;
    let mut c = Cluster::launch(constraint, n, k, RuntimeConfig::default())
        .map_err(|e| err(format!("launch failed: {e}")))?;
    writeln!(out, "mesh up: every overlay link has a live TCP connection").map_err(io_err)?;

    let id = c
        .broadcast(0, bytes::Bytes::from_static(b"cluster payload #1"))
        .map_err(|e| err(e.to_string()))?;
    if !c.await_delivery(id, delivery_window) {
        return Err(err("initial broadcast was not delivered everywhere"));
    }
    writeln!(out, "broadcast {id:#x}: delivered by all {n} nodes").map_err(io_err)?;

    // Fail-stop the highest member ids (never 0, the broadcast origin).
    let victims: Vec<_> = c.members().into_iter().rev().take(kill).collect();
    for &v in &victims {
        c.kill(v).map_err(|e| err(e.to_string()))?;
        writeln!(out, "killed node {v} (fail-stop, no goodbye)").map_err(io_err)?;
    }

    if kill > 0 {
        if !c.await_heal(heal_window) {
            return Err(err(
                "survivors did not converge on a healed overlay in time",
            ));
        }
        let survivors = c.survivors();
        let all_flagged = survivors.iter().all(|&s| {
            let applied = c.node(s).map(|h| h.crashes_applied()).unwrap_or_default();
            victims.iter().all(|v| applied.contains(v))
        });
        if !all_flagged {
            return Err(err("failure detector missed a crash on some survivor"));
        }
        writeln!(
            out,
            "failure detector: all {} survivors flagged crashed nodes {victims:?}",
            survivors.len()
        )
        .map_err(io_err)?;
        if !c.overlays_agree() {
            return Err(err("survivor overlay replicas diverged"));
        }
        let g = c
            .survivor_graph()
            .ok_or_else(|| err("no survivors left to inspect"))?;
        if !is_k_vertex_connected(&g, k) {
            return Err(err(format!(
                "healed overlay is NOT {k}-node-connected (n={})",
                g.node_count()
            )));
        }
        writeln!(
            out,
            "healed overlay: n={}, agreed by all survivors, {k}-node-connected: true",
            g.node_count()
        )
        .map_err(io_err)?;

        let id2 = c
            .broadcast(0, bytes::Bytes::from_static(b"cluster payload #2"))
            .map_err(|e| err(e.to_string()))?;
        if !c.await_delivery(id2, delivery_window) {
            return Err(err(
                "post-heal broadcast was not delivered to every survivor",
            ));
        }
        writeln!(
            out,
            "broadcast {id2:#x}: delivered by all {} survivors",
            survivors.len()
        )
        .map_err(io_err)?;
    }

    match metrics_mode {
        "off" => {}
        "full" => writeln!(out, "{}", c.metrics_json()).map_err(io_err)?,
        _ => {
            let lat = c
                .metrics()
                .histogram("runtime.delivery_latency_us")
                .summary();
            let rec = c.metrics().histogram("runtime.reconnect_time_us").summary();
            writeln!(
                out,
                "metrics: deliveries={} messages={} bytes={} suspects={} heals={} \
                 dials={} | delivery latency µs p50≈{} p99≈{} | reconnect µs p50≈{} max≈{}",
                c.metrics().counter("runtime.deliveries").get(),
                c.metrics().counter("runtime.messages_sent").get(),
                c.metrics().counter("runtime.bytes_sent").get(),
                c.metrics().counter("runtime.suspects").get(),
                c.metrics().counter("runtime.heals").get(),
                c.metrics().counter("runtime.dials").get(),
                lat.p50,
                lat.p99,
                rec.p50,
                rec.max
            )
            .map_err(io_err)?;
        }
    }
    c.shutdown();
    Ok(())
}

/// Drives one `lhg observe` run: a traced real-socket cluster lifecycle
/// (broadcasts, fail-stop crashes, healing, a post-heal broadcast), then
/// renders the flight-recorder timeline and the per-broadcast hop report.
/// Fails — the binary exits 1 — when any broadcast's realized dissemination
/// tree does not span the survivors or exceeds the theoretical hop bound.
#[allow(clippy::too_many_arguments)]
fn run_observe(
    n: usize,
    k: usize,
    kill: usize,
    broadcasts: usize,
    constraint: Constraint,
    format: &str,
    events_path: Option<&str>,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    use std::collections::BTreeSet;
    use std::time::Duration;

    use lhg_core::properties::p4_diameter_bound;
    use lhg_runtime::{Cluster, RuntimeConfig};

    let io_err = |e: std::io::Error| err(format!("write failed: {e}"));
    let delivery_window = Duration::from_secs(15);
    let heal_window = Duration::from_secs(30);

    let mut c = Cluster::launch(constraint, n, k, RuntimeConfig::default())
        .map_err(|e| err(format!("launch failed: {e}")))?;
    let members = c.members();

    // Pre-crash broadcasts rotate origins so traces exercise distinct trees;
    // each must span the full membership within the n-node bound.
    let mut expectations: Vec<(u64, BTreeSet<u32>, f64)> = Vec::new();
    let all: BTreeSet<u32> = members.iter().map(|&m| m as u32).collect();
    for b in 0..broadcasts {
        let origin = members[b % members.len()];
        let id = c
            .broadcast(origin, bytes::Bytes::from(format!("observe #{b}")))
            .map_err(|e| err(e.to_string()))?;
        if !c.await_delivery(id, delivery_window) {
            return Err(err(format!(
                "broadcast {id:#x} was not delivered everywhere"
            )));
        }
        expectations.push((id, all.clone(), p4_diameter_bound(n, k)));
    }

    // Fail-stop the highest member ids (never 0, the post-heal origin).
    let victims: Vec<_> = members.iter().rev().copied().take(kill).collect();
    for &v in &victims {
        c.kill(v).map_err(|e| err(e.to_string()))?;
    }
    if kill > 0 {
        if !c.await_heal(heal_window) {
            return Err(err(
                "survivors did not converge on a healed overlay in time",
            ));
        }
        // The post-heal broadcast must span exactly the survivors, within
        // the bound at the smaller membership.
        let survivors: BTreeSet<u32> = c.survivors().iter().map(|&m| m as u32).collect();
        let id = c
            .broadcast(0, bytes::Bytes::from_static(b"observe post-heal"))
            .map_err(|e| err(e.to_string()))?;
        if !c.await_delivery(id, delivery_window) {
            return Err(err(
                "post-heal broadcast was not delivered to every survivor",
            ));
        }
        expectations.push((id, survivors, p4_diameter_bound(n - kill, k)));
    }

    let events = c.events();
    let reports: Vec<lhg_trace::HopReport> = expectations
        .iter()
        .map(|(id, expected, bound)| {
            c.tracer().trace(*id).map_or_else(
                || lhg_trace::BroadcastTrace::empty(*id).report(expected, *bound),
                |t| t.report(expected, *bound),
            )
        })
        .collect();

    if let Some(path) = events_path {
        c.dump_events(std::path::Path::new(path))
            .map_err(|e| err(format!("cannot write {path}: {e}")))?;
    }

    match format {
        "json" => {
            let events_json: Vec<String> = events.iter().map(|e| e.to_json()).collect();
            let reports_json: Vec<String> = reports.iter().map(|r| r.to_json()).collect();
            // Per-broadcast wire cost from the codec-level accountant:
            // how many data frames (and bytes) each broadcast actually
            // put on the cluster's links, fan-out retransmits included.
            let wire_json: Vec<String> = c
                .metrics()
                .wire()
                .broadcast_costs()
                .into_iter()
                .map(|(id, frames, bytes)| {
                    format!("{{\"id\":{id},\"frames\":{frames},\"bytes\":{bytes}}}")
                })
                .collect();
            writeln!(
                out,
                "{{\"nodes\":{n},\"k\":{k},\"killed\":[{}],\"events\":[{}],\"reports\":[{}],\
                 \"wire\":[{}]}}",
                victims
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join(","),
                events_json.join(","),
                reports_json.join(","),
                wire_json.join(",")
            )
            .map_err(io_err)?;
        }
        _ => {
            writeln!(
                out,
                "timeline ({} events recorded; frame/heartbeat traffic hidden):",
                events.len()
            )
            .map_err(io_err)?;
            for e in events.iter().filter(|e| !e.kind.is_traffic()) {
                writeln!(out, "{e}").map_err(io_err)?;
            }
            writeln!(out, "\nper-broadcast hop report:").map_err(io_err)?;
            writeln!(out, "{}", lhg_trace::HopReport::table_header()).map_err(io_err)?;
            for r in &reports {
                writeln!(out, "{}", r.table_row()).map_err(io_err)?;
            }
        }
    }
    c.shutdown();

    let violations: Vec<u64> = reports
        .iter()
        .filter(|r| !r.within_bound())
        .map(|r| r.trace_id)
        .collect();
    if violations.is_empty() {
        Ok(())
    } else {
        Err(err(format!(
            "{} broadcast(s) violated the spanning/hop-bound check: {violations:#x?}",
            violations.len()
        )))
    }
}

/// Drives one `lhg byzantine` demo on the discrete-event simulator: build
/// the overlay, print the Bracha quorum parameters at the full traitor
/// budget f = ⌊(k−1)/2⌋, plant one traitor (unless `--traitor none`), run
/// a broadcast from a correct origin, and report what every correct node
/// delivered. Exits non-zero if the run itself violates agreement,
/// validity, integrity or exactly-once — the demo doubles as a smoke
/// check of the protocol.
fn run_byzantine_demo(
    n: usize,
    k: usize,
    traitor: &str,
    seed: u64,
    constraint: &str,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    use std::collections::BTreeSet;

    use lhg_byzantine::{
        max_traitors, run_sim_byzantine, BrachaConfig, ScheduledByzBroadcast, TraitorBehavior,
        EQUIVOCATE_NONCE_BASE, FORGE_NONCE_BASE,
    };
    use lhg_graph::NodeId;
    use lhg_net::sim::LinkModel;

    let io_err = |e: std::io::Error| err(format!("write failed: {e}"));
    let behavior = match traitor {
        "none" => None,
        "equivocate" => Some(TraitorBehavior::Equivocate),
        "forge" => Some(TraitorBehavior::Forge),
        "silent" => Some(TraitorBehavior::Silent),
        "replay" => Some(TraitorBehavior::Replay),
        // The failure-detector attacks. On the sim demo they reduce to
        // vote-withholding (there is no heartbeat plane to lie to); their
        // forged crash waves and heartbeat suppression bite on the TCP
        // runtime, where the mixed chaos family exercises them.
        "frame_crash" => Some(TraitorBehavior::FrameCrash),
        "suppress_heartbeat" => Some(TraitorBehavior::SuppressHeartbeat),
        other => {
            return Err(err(format!(
                "unknown traitor behavior {other:?} (expected none, equivocate, \
                 forge, silent, replay, frame_crash or suppress_heartbeat)"
            )))
        }
    };
    let f = max_traitors(k);
    if behavior.is_some() && f == 0 {
        return Err(err(format!(
            "k={k} tolerates no traitors (f = ⌊(k−1)/2⌋ = 0); \
             raise --k to 3 or pass --traitor none"
        )));
    }
    let g = build_topology(constraint, n, k)?;
    let cfg = BrachaConfig::for_overlay(n, k).map_err(|e| err(e.to_string()))?;
    writeln!(
        out,
        "bracha broadcast over a {constraint} overlay: n={n} k={k} f={f} | \
         echo quorum {} | ready amplify {} | delivery quorum {}",
        cfg.echo_quorum(),
        cfg.ready_amplify(),
        cfg.delivery_quorum()
    )
    .map_err(io_err)?;

    // The traitor is the highest node id; the origin is node 0.
    let traitors: Vec<(NodeId, TraitorBehavior)> =
        behavior.iter().map(|&b| (NodeId(n - 1), b)).collect();
    if let Some(b) = behavior {
        writeln!(out, "traitor: node {} plays {}", n - 1, b.name()).map_err(io_err)?;
    }
    const NONCE: u64 = 1;
    let schedules = vec![(
        NodeId(0),
        vec![ScheduledByzBroadcast {
            nonce: NONCE,
            payload: bytes::Bytes::from_static(b"byzantine demo payload"),
            at_us: 10_000,
        }],
    )];
    let report = run_sim_byzantine(
        &g,
        k,
        &schedules,
        &traitors,
        LinkModel::default(),
        seed,
        2_000_000,
    );

    // Group correct-node deliveries by instance nonce; `trace` carries the
    // certified payload digest.
    let is_correct = |v: usize| behavior.is_none() || v != n - 1;
    let mut per_instance: BTreeMap<u64, Vec<(u32, Option<u64>)>> = BTreeMap::new();
    for d in &report.deliveries {
        if is_correct(d.node.index()) {
            per_instance
                .entry(d.broadcast_id)
                .or_default()
                .push((d.node.index() as u32, d.trace));
        }
    }
    for (nonce, recs) in &per_instance {
        let nodes: BTreeSet<u32> = recs.iter().map(|&(v, _)| v).collect();
        if nodes.len() != recs.len() {
            return Err(err(format!(
                "exactly-once broken: a node delivered instance {nonce:#x} twice"
            )));
        }
    }

    let correct_total = n - traitors.len();
    let delivered = per_instance.get(&NONCE).map_or(0, Vec::len);
    writeln!(
        out,
        "instance {NONCE:#x} from correct origin 0: delivered by {delivered} of \
         {correct_total} correct nodes"
    )
    .map_err(io_err)?;
    if delivered < correct_total {
        return Err(err(format!(
            "validity broken: {} correct node(s) never delivered instance {NONCE:#x}",
            correct_total - delivered
        )));
    }

    match behavior {
        Some(TraitorBehavior::Equivocate) => {
            let nonce = EQUIVOCATE_NONCE_BASE + (n - 1) as u64;
            match per_instance.get(&nonce) {
                None => writeln!(
                    out,
                    "equivocated instance {nonce:#x}: no face reached a delivery quorum"
                )
                .map_err(io_err)?,
                Some(recs) => {
                    let digests: BTreeSet<Option<u64>> = recs.iter().map(|&(_, d)| d).collect();
                    if digests.len() > 1 {
                        return Err(err(format!(
                            "agreement broken: correct nodes certified both faces of \
                             instance {nonce:#x}"
                        )));
                    }
                    writeln!(
                        out,
                        "equivocated instance {nonce:#x}: {} correct node(s) certified \
                         the same single face — agreement holds",
                        recs.len()
                    )
                    .map_err(io_err)?;
                }
            }
        }
        Some(TraitorBehavior::Forge) => {
            let nonce = FORGE_NONCE_BASE + (n - 1) as u64;
            if per_instance.contains_key(&nonce) {
                return Err(err(format!(
                    "integrity broken: a correct node delivered forged instance {nonce:#x}"
                )));
            }
            writeln!(
                out,
                "forged instance {nonce:#x}: rejected by every correct node \
                 (echo quorum unreachable on one traitor's word)"
            )
            .map_err(io_err)?;
        }
        _ => {}
    }

    writeln!(
        out,
        "byzantine broadcast ok: agreement, validity, integrity and exactly-once all hold \
         ({} messages, {} µs virtual time)",
        report.messages_sent, report.end_time
    )
    .map_err(io_err)
}

/// Drives one `lhg top` run: launch a TCP cluster, start the background
/// telemetry sampler, rotate a few broadcasts through it for
/// `duration_ms`, then render one screenful of cluster telemetry — wire
/// cost decomposed by message class (frames, bytes, per-second rates),
/// delivery latency percentiles, and gauge levels. Totals are read
/// *after* shutdown, when no node thread can still bump a counter, so
/// the per-class sums reconcile exactly with the engine counters
/// (`runtime.messages_sent` / `runtime.bytes_sent`).
#[allow(clippy::too_many_arguments)]
fn run_top(
    n: usize,
    k: usize,
    broadcasts: usize,
    duration_ms: u64,
    interval_ms: u64,
    constraint: Constraint,
    json: bool,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    use std::time::{Duration, Instant};

    use lhg_runtime::{Cluster, RuntimeConfig};

    let io_err = |e: std::io::Error| err(format!("write failed: {e}"));
    // A telemetry viewer should never perturb what it watches: keep the
    // suspicion timeout generous so scheduler stalls on a loaded machine
    // (big debug clusters, parallel test suites) can't excommunicate a
    // healthy node mid-observation.
    let config = RuntimeConfig {
        heartbeat_timeout: Duration::from_secs(5),
        ..RuntimeConfig::default()
    };
    let mut c = Cluster::launch(constraint, n, k, config)
        .map_err(|e| err(format!("launch failed: {e}")))?;
    c.start_telemetry(Duration::from_millis(interval_ms));
    let started = Instant::now();
    let members = c.members();
    for b in 0..broadcasts {
        let origin = members[b % members.len()];
        let id = c
            .broadcast(origin, bytes::Bytes::from(format!("top #{b}")))
            .map_err(|e| err(e.to_string()))?;
        // Generous window: `top` runs on live clusters of any size, and a
        // loaded machine should cost latency, never a spurious abort.
        if !c.await_delivery(id, Duration::from_secs(60)) {
            return Err(err(format!(
                "broadcast {id:#x} was not delivered everywhere"
            )));
        }
    }
    let window = Duration::from_millis(duration_ms);
    while started.elapsed() < window {
        std::thread::sleep(Duration::from_millis(10));
    }
    let metrics = c.shared_metrics();
    let timeline = c
        .stop_telemetry()
        .ok_or_else(|| err("telemetry sampler vanished"))?;
    c.shutdown();

    let wire = metrics.wire();
    let span_us = started.elapsed().as_micros() as u64;
    let span_secs = span_us as f64 / 1e6;
    let totals = wire.class_totals();
    let lat = metrics.histogram("runtime.delivery_latency_us").summary();

    if json {
        let per_sec = |v: u64| {
            if span_secs > 0.0 {
                v as f64 / span_secs
            } else {
                0.0
            }
        };
        let classes: Vec<(String, serde::Value)> = totals
            .iter()
            .filter(|t| t.frames > 0)
            .map(|t| {
                (
                    t.class.name().to_owned(),
                    serde::Value::Obj(vec![
                        ("frames".to_owned(), serde::Value::U64(t.frames)),
                        ("bytes".to_owned(), serde::Value::U64(t.bytes)),
                        (
                            "frames_per_sec".to_owned(),
                            serde::Value::F64(per_sec(t.frames)),
                        ),
                        (
                            "bytes_per_sec".to_owned(),
                            serde::Value::F64(per_sec(t.bytes)),
                        ),
                    ]),
                )
            })
            .collect();
        let counters: Vec<(String, serde::Value)> = metrics
            .counters()
            .into_iter()
            .map(|(name, ctr)| (name, serde::Value::U64(ctr.get())))
            .collect();
        let gauges: Vec<(String, serde::Value)> = metrics
            .gauges()
            .into_iter()
            .map(|(name, g)| (name, serde::Value::I64(g.get())))
            .collect();
        let doc = serde::Value::Obj(vec![
            ("nodes".to_owned(), serde::Value::U64(n as u64)),
            ("k".to_owned(), serde::Value::U64(k as u64)),
            ("span_us".to_owned(), serde::Value::U64(span_us)),
            (
                "samples".to_owned(),
                serde::Value::U64(timeline.samples().len() as u64),
            ),
            (
                "total_frames".to_owned(),
                serde::Value::U64(wire.total_frames()),
            ),
            (
                "total_bytes".to_owned(),
                serde::Value::U64(wire.total_bytes()),
            ),
            ("classes".to_owned(), serde::Value::Obj(classes)),
            (
                "delivery_latency_us".to_owned(),
                serde::Value::Obj(vec![
                    ("p50".to_owned(), serde::Value::U64(lat.p50)),
                    ("p99".to_owned(), serde::Value::U64(lat.p99)),
                ]),
            ),
            ("counters".to_owned(), serde::Value::Obj(counters)),
            ("gauges".to_owned(), serde::Value::Obj(gauges)),
        ]);
        writeln!(
            out,
            "{}",
            serde_json::to_string(&doc).expect("Value serialization is infallible")
        )
        .map_err(io_err)?;
        return Ok(());
    }

    writeln!(
        out,
        "cluster n={n} k={k} | span {:.2}s | {} samples | {} broadcasts",
        span_secs,
        timeline.samples().len(),
        broadcasts
    )
    .map_err(io_err)?;
    writeln!(
        out,
        "{:<10} {:>10} {:>12} {:>12} {:>14}",
        "CLASS", "FRAMES", "BYTES", "FRAMES/S", "BYTES/S"
    )
    .map_err(io_err)?;
    for t in totals.iter().filter(|t| t.frames > 0) {
        writeln!(
            out,
            "{:<10} {:>10} {:>12} {:>12.1} {:>14.1}",
            t.class.name(),
            t.frames,
            t.bytes,
            t.frames as f64 / span_secs.max(1e-9),
            t.bytes as f64 / span_secs.max(1e-9)
        )
        .map_err(io_err)?;
    }
    writeln!(
        out,
        "{:<10} {:>10} {:>12}",
        "total",
        wire.total_frames(),
        wire.total_bytes()
    )
    .map_err(io_err)?;
    writeln!(
        out,
        "delivery latency µs: p50≈{} p99≈{} | suspects={} heals={} links={}",
        lat.p50,
        lat.p99,
        metrics.counter("runtime.suspects").get(),
        metrics.counter("runtime.heals").get(),
        wire.link_totals().len()
    )
    .map_err(io_err)?;
    // Most acks ride on data frames: the `ack` class above counts only the
    // ones that needed a frame of their own.
    writeln!(
        out,
        "acks: frames={} piggybacked={}",
        metrics.counter("runtime.acks_sent").get(),
        metrics.counter("runtime.acks_piggybacked").get(),
    )
    .map_err(io_err)?;
    // The rejoin-under-fire ledger: how often the SYNC handshake and byz
    // catch-up had to re-arm, and whether any schedule ran dry. All zeros
    // on a calm cluster; nonzero retries with zero exhaustion is the
    // designed degradation under loss.
    writeln!(
        out,
        "rejoin: sync_retries={} catchup_solicits={} catchup_retries={} \
         catchup_ingests={} exhausted={}",
        metrics.counter("runtime.sync_retries").get(),
        metrics.counter("runtime.catchup_solicits").get(),
        metrics.counter("runtime.catchup_retries").get(),
        metrics.counter("runtime.catchup_ingests").get(),
        metrics.counter("runtime.sync_retry_exhausted").get()
            + metrics.counter("runtime.catchup_exhausted").get(),
    )
    .map_err(io_err)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_to_string(args: &[&str]) -> Result<String, CliError> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut buf = Vec::new();
        run(&args, &mut buf)?;
        Ok(String::from_utf8(buf).expect("utf8 output"))
    }

    #[test]
    fn help_prints_usage() {
        let out = run_to_string(&["help"]).unwrap();
        assert!(out.contains("USAGE"));
        assert!(out.contains("generate"));
    }

    #[test]
    fn generate_edges_round_trips() {
        let out =
            run_to_string(&["generate", "--constraint", "ktree", "--n", "10", "--k", "3"]).unwrap();
        let g = from_edge_list(&out).unwrap();
        assert_eq!(g.node_count(), 10);
        assert_eq!(g.edge_count(), 15);
    }

    #[test]
    fn generate_dot_and_summary() {
        let dot = run_to_string(&[
            "generate",
            "--constraint",
            "kdiamond",
            "--n",
            "8",
            "--k",
            "3",
            "--format",
            "dot",
        ])
        .unwrap();
        assert!(dot.starts_with("graph kdiamond_8_3"));

        let sum = run_to_string(&[
            "generate",
            "--constraint",
            "kdiamond",
            "--n",
            "8",
            "--k",
            "3",
            "--format",
            "summary",
        ])
        .unwrap();
        assert!(sum.contains("LHG=true"), "{sum}");
        assert!(sum.contains("regular=true"), "{sum}");
    }

    #[test]
    fn generate_harary_works() {
        let out = run_to_string(&[
            "generate",
            "--constraint",
            "harary",
            "--n",
            "9",
            "--k",
            "3",
            "--format",
            "summary",
        ])
        .unwrap();
        assert!(out.contains("14 edges"), "{out}");
    }

    #[test]
    fn generate_rejects_bad_inputs() {
        assert!(run_to_string(&["generate", "--n", "10"]).is_err());
        assert!(run_to_string(&["generate", "--n", "x", "--k", "3"]).is_err());
        assert!(
            run_to_string(&["generate", "--constraint", "nope", "--n", "10", "--k", "3"]).is_err()
        );
        assert!(
            run_to_string(&["generate", "--n", "5", "--k", "3"]).is_err(),
            "below 2k"
        );
    }

    #[test]
    fn validate_reads_a_file() {
        let g = build_ktree(10, 3).unwrap().into_graph();
        let path = std::env::temp_dir().join("lhg_cli_validate_test.edges");
        std::fs::write(&path, to_edge_list(&g)).unwrap();
        let out =
            run_to_string(&["validate", "--k", "3", "--file", path.to_str().unwrap()]).unwrap();
        assert!(out.contains("LHG: true"), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn plan_recommends_kdiamond() {
        let out = run_to_string(&["plan", "--n", "30", "--f", "2"]).unwrap();
        assert!(out.contains("K-DIAMOND"), "{out}");
        assert!(out.contains("regular=true"), "{out}");
        assert!(run_to_string(&["plan", "--n", "5", "--f", "2"]).is_err());
    }

    #[test]
    fn flood_reports_full_reliability_at_k_minus_1() {
        let out = run_to_string(&[
            "flood",
            "--n",
            "20",
            "--k",
            "3",
            "--failures",
            "2",
            "--trials",
            "10",
        ])
        .unwrap();
        assert!(out.contains("reliability 1.000"), "{out}");
    }

    #[test]
    fn census_prints_the_table() {
        let out = run_to_string(&["census", "--k", "3", "--max-n", "12"]).unwrap();
        assert!(out.lines().count() >= 9);
        assert!(out.contains("REG(K-DIAMOND)"));
    }

    #[test]
    fn cluster_runs_end_to_end_with_one_crash() {
        let out = run_to_string(&[
            "cluster",
            "--nodes",
            "7",
            "-k",
            "2",
            "--kill",
            "1",
            "--metrics",
            "summary",
        ])
        .unwrap();
        assert!(out.contains("delivered by all 7 nodes"), "{out}");
        assert!(out.contains("killed node 6"), "{out}");
        assert!(out.contains("2-node-connected: true"), "{out}");
        assert!(out.contains("delivered by all 6 survivors"), "{out}");
        assert!(out.contains("metrics:"), "{out}");
    }

    #[test]
    fn observe_reports_spanning_broadcasts_with_one_crash() {
        let events = std::env::temp_dir().join("lhg_cli_observe_test.jsonl");
        let out = run_to_string(&[
            "observe",
            "--nodes",
            "7",
            "-k",
            "2",
            "--kill",
            "1",
            "--events",
            events.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("timeline"), "{out}");
        assert!(out.contains("broadcast_accept"), "{out}");
        assert!(out.contains("suspicion"), "{out}");
        assert!(out.contains("heal_end"), "{out}");
        assert!(out.contains("per-broadcast hop report"), "{out}");
        // Two report rows: one pre-crash, one post-heal; both spanning.
        let rows = out
            .lines()
            .filter(|l| l.trim_start().starts_with("0x"))
            .count();
        assert_eq!(rows, 2, "{out}");
        assert!(!out.contains("false"), "no spanning violations: {out}");
        // The --events dump holds the full unfiltered timeline.
        let dump = std::fs::read_to_string(&events).unwrap();
        assert!(dump.lines().count() > 50, "traffic included");
        assert!(dump.contains("\"event\":\"heartbeat\""));
        std::fs::remove_file(&events).ok();
    }

    #[test]
    fn observe_json_emits_events_and_reports() {
        let out = run_to_string(&[
            "observe",
            "--nodes",
            "6",
            "-k",
            "2",
            "--format",
            "json",
            "--broadcasts",
            "2",
        ])
        .unwrap();
        assert!(
            out.starts_with("{\"nodes\":6,\"k\":2,\"killed\":[]"),
            "{out}"
        );
        assert!(out.contains("\"events\":[{"), "{out}");
        assert!(out.contains("\"reports\":[{"), "{out}");
        assert_eq!(out.matches("\"max_hops\"").count(), 2, "{out}");
        assert!(out.contains("\"spanning\":true"), "{out}");
        assert!(!out.contains("\"spanning\":false"), "{out}");
        // Per-broadcast wire accounting: one cost record per broadcast,
        // each with a positive frame count.
        assert!(out.contains("\"wire\":[{"), "{out}");
        assert_eq!(out.matches("\"frames\":").count(), 2, "{out}");
        assert!(!out.contains("\"frames\":0"), "{out}");
    }

    #[test]
    fn observe_rejects_bad_options() {
        let e = run_to_string(&["observe", "--nodes", "8", "-k", "2", "--kill", "2"]).unwrap_err();
        assert!(e.message.contains("fail-stop model"), "{e}");
        let e =
            run_to_string(&["observe", "--nodes", "6", "-k", "2", "--format", "xml"]).unwrap_err();
        assert!(e.message.contains("unknown format"), "{e}");
        let e = run_to_string(&["observe", "--nodes", "6", "-k", "2", "--broadcasts", "0"])
            .unwrap_err();
        assert!(e.message.contains("at least 1"), "{e}");
    }

    #[test]
    fn cluster_rejects_model_violations() {
        let e = run_to_string(&["cluster", "--nodes", "8", "-k", "2", "--kill", "2"]).unwrap_err();
        assert!(e.message.contains("fail-stop model"), "{e}");
        let e = run_to_string(&["cluster", "--nodes", "5", "-k", "3"]).unwrap_err();
        assert!(e.message.contains("too small"), "{e}");
    }

    #[test]
    fn chaos_sim_sweep_passes_and_prints_summaries() {
        let out = run_to_string(&["chaos", "--seeds", "3", "--engine", "sim", "--quick"]).unwrap();
        assert_eq!(out.matches("engine=sim").count(), 3, "{out}");
        assert_eq!(out.matches(" ok").count(), 3, "{out}");
        assert!(out.contains("all 3 run(s) over 3 seed(s) passed"), "{out}");
    }

    #[test]
    fn chaos_both_engines_run_one_seed() {
        let out = run_to_string(&["chaos", "--seeds", "1", "--quick"]).unwrap();
        assert!(out.contains("engine=sim"), "{out}");
        assert!(out.contains("engine=tcp"), "{out}");
        assert!(out.contains("all 2 run(s) over 1 seed(s) passed"), "{out}");
    }

    #[test]
    fn chaos_rejects_bad_options() {
        let e = run_to_string(&["chaos", "--engine", "quantum"]).unwrap_err();
        assert!(e.message.contains("unknown engine"), "{e}");
        let e = run_to_string(&["chaos", "--seeds", "0"]).unwrap_err();
        assert!(e.message.contains("at least 1"), "{e}");
        let e = run_to_string(&["chaos", "--family", "cosmic-rays"]).unwrap_err();
        assert!(e.message.contains("unknown family"), "{e}");
        assert!(e.message.contains("byzantine"), "{e}");
    }

    #[test]
    fn chaos_family_filter_runs_only_that_family() {
        let out = run_to_string(&[
            "chaos", "--seeds", "2", "--engine", "sim", "--family", "lossy", "--quick",
        ])
        .unwrap();
        assert_eq!(out.matches("family=lossy").count(), 2, "{out}");
        assert!(!out.contains("family=crash"), "{out}");
        assert!(!out.contains("family=partition"), "{out}");
        assert!(out.contains("all 2 run(s) over 2 seed(s) passed"), "{out}");
    }

    #[test]
    fn chaos_byzantine_family_filter_runs_on_sim() {
        let out = run_to_string(&[
            "chaos",
            "--seeds",
            "2",
            "--engine",
            "sim",
            "--family",
            "byzantine",
            "--quick",
        ])
        .unwrap();
        assert_eq!(out.matches("family=byzantine").count(), 2, "{out}");
        assert!(out.contains("all 2 run(s) over 2 seed(s) passed"), "{out}");
    }

    #[test]
    fn chaos_mixed_family_with_overrides_runs_on_sim() {
        let out = run_to_string(&[
            "chaos",
            "--seeds",
            "1",
            "--engine",
            "sim",
            "--family",
            "mixed",
            "--k",
            "5",
            "--traitors",
            "2",
            "--quick",
        ])
        .unwrap();
        assert!(out.contains("family=mixed"), "{out}");
        assert!(out.contains("k=5"), "{out}");
        assert!(out.contains("all 1 run(s) over 1 seed(s) passed"), "{out}");
    }

    #[test]
    fn chaos_rejects_bad_overrides() {
        let e = run_to_string(&["chaos", "--family", "mixed", "--k", "2"]).unwrap_err();
        assert!(e.message.contains("--k must be in 3..=5"), "{e}");
        let e = run_to_string(&["chaos", "--family", "mixed", "--traitors", "0"]).unwrap_err();
        assert!(e.message.contains("at least 1"), "{e}");
    }

    #[test]
    fn byzantine_demo_survives_every_traitor_behavior() {
        for traitor in [
            "none",
            "equivocate",
            "forge",
            "silent",
            "replay",
            "frame_crash",
            "suppress_heartbeat",
        ] {
            let out = run_to_string(&[
                "byzantine",
                "--nodes",
                "8",
                "--k",
                "3",
                "--traitor",
                traitor,
            ])
            .unwrap_or_else(|e| panic!("traitor {traitor}: {e}"));
            assert!(out.contains("n=8 k=3 f=1"), "{traitor}: {out}");
            assert!(
                out.contains("delivered by 7 of 7 correct nodes")
                    || out.contains("delivered by 8 of 8 correct nodes"),
                "{traitor}: {out}"
            );
            assert!(out.contains("byzantine broadcast ok"), "{traitor}: {out}");
        }
    }

    #[test]
    fn byzantine_demo_rejects_bad_options() {
        let e = run_to_string(&["byzantine", "--nodes", "8", "--k", "2"]).unwrap_err();
        assert!(e.message.contains("tolerates no traitors"), "{e}");
        let e = run_to_string(&[
            "byzantine",
            "--nodes",
            "8",
            "--k",
            "3",
            "--traitor",
            "gremlin",
        ])
        .unwrap_err();
        assert!(e.message.contains("unknown traitor behavior"), "{e}");
        // k=2 with no traitor is legal: f=0, plain quorum broadcast.
        let out =
            run_to_string(&["byzantine", "--nodes", "6", "--k", "2", "--traitor", "none"]).unwrap();
        assert!(out.contains("f=0"), "{out}");
    }

    #[test]
    fn chaos_json_writes_one_object_per_run() {
        let path =
            std::env::temp_dir().join(format!("lhg-chaos-json-{}.jsonl", std::process::id()));
        let path_str = path.to_str().unwrap().to_string();
        let out = run_to_string(&[
            "chaos", "--seeds", "2", "--engine", "sim", "--quick", "--json", &path_str,
        ])
        .unwrap();
        assert!(out.contains("JSON summaries written"), "{out}");
        let body = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 2, "{body}");
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains("\"engine\":\"sim\""), "{line}");
            assert!(line.contains("\"passed\":true"), "{line}");
            assert!(line.contains("\"violations\":[]"), "{line}");
            // Each record embeds the run's telemetry summary with the
            // per-class wire decomposition.
            assert!(line.contains("\"telemetry\":{"), "{line}");
            assert!(line.contains("\"wire\":{"), "{line}");
        }
    }

    /// The acceptance check for wire-cost accounting: every frame the TCP
    /// engine writes is classified, and the per-class totals reconcile
    /// with the codec-level counters *exactly* — not approximately.
    #[test]
    fn top_json_per_class_totals_match_engine_counters_exactly() {
        let out = run_to_string(&[
            "top",
            "--nodes",
            "64",
            "-k",
            "3",
            "--broadcasts",
            "3",
            "--duration-ms",
            "400",
            "--json",
        ])
        .unwrap();
        let doc: serde::Value = serde_json::from_str(&out).unwrap();
        let get_u64 = |v: &serde::Value, name: &str| {
            v.field(name)
                .and_then(serde::Value::as_u64)
                .unwrap_or_else(|| panic!("missing {name}: {out}"))
        };
        let serde::Value::Obj(classes) = doc.field("classes").expect("classes") else {
            panic!("classes is not an object: {out}");
        };
        let mut frames = 0u64;
        let mut bytes = 0u64;
        for (_, v) in classes {
            frames += get_u64(v, "frames");
            bytes += get_u64(v, "bytes");
        }
        // A live cluster speaks more than one dialect: data floods plus
        // at least heartbeats and hello handshakes.
        assert!(classes.len() >= 3, "classes seen: {out}");
        assert!(classes.iter().any(|(name, _)| name == "data"), "{out}");
        assert!(classes.iter().any(|(name, _)| name == "heartbeat"), "{out}");
        let counters = doc.field("counters").expect("counters");
        assert_eq!(frames, get_u64(counters, "runtime.messages_sent"), "{out}");
        assert_eq!(bytes, get_u64(counters, "runtime.bytes_sent"), "{out}");
        // Acks that rode on data frames are no frames of their own.
        get_u64(counters, "runtime.acks_piggybacked");
        assert_eq!(frames, get_u64(&doc, "total_frames"), "{out}");
        assert_eq!(bytes, get_u64(&doc, "total_bytes"), "{out}");
        assert!(get_u64(&doc, "samples") >= 2, "{out}");
    }

    #[test]
    fn top_human_renders_the_class_table() {
        let out = run_to_string(&[
            "top",
            "--nodes",
            "6",
            "-k",
            "2",
            "--broadcasts",
            "2",
            "--duration-ms",
            "250",
            "--interval-ms",
            "50",
        ])
        .unwrap();
        assert!(out.contains("cluster n=6 k=2"), "{out}");
        assert!(out.contains("CLASS"), "{out}");
        assert!(out.contains("data"), "{out}");
        assert!(out.contains("heartbeat"), "{out}");
        assert!(out.contains("delivery latency"), "{out}");
        assert!(out.contains("acks: frames="), "{out}");
    }

    #[test]
    fn top_rejects_bad_options() {
        let e =
            run_to_string(&["top", "--nodes", "6", "-k", "2", "--interval-ms", "0"]).unwrap_err();
        assert!(e.message.contains("interval"), "{e}");
    }

    #[test]
    fn unknown_command_fails_with_usage() {
        let e = run_to_string(&["frobnicate"]).unwrap_err();
        assert!(e.message.contains("USAGE"));
        let e = run_to_string(&[]).unwrap_err();
        assert!(e.message.contains("no command"));
    }

    #[test]
    fn option_parser_rejects_positional_and_dangling() {
        assert!(run_to_string(&["generate", "positional"]).is_err());
        assert!(run_to_string(&["generate", "--n"]).is_err());
    }
}
