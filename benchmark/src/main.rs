//! The repo benchmark. See README.md.
//!
//! ```text
//! lhg-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! lhg-benchmark list
//! lhg-benchmark aa [--runs <n>]
//! ```

mod aa;
mod alloc;
mod budget;
mod inputs;
mod layers;
mod report;
mod simwl;
mod spans;
mod spec;
mod stats;
mod sut;
mod sys;
mod tcp;

use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// Flags of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Workload name, one of `spec::WORKLOADS`.
    pub workload: String,
    /// Seed the inputs derive from.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

/// A workload and its parameters.
pub enum Workload {
    /// A fixed-rate flood over TCP.
    Flood(tcp::FloodParams),
    /// Paced Bracha epochs over TCP.
    Bracha(tcp::BrachaParams),
    /// Identical passes on the simulator.
    Sim(simwl::SimParams),
}

impl Workload {
    /// The workload `spec::WORKLOADS` lists under `name`.
    pub fn named(name: &str) -> Option<Self> {
        Some(match name {
            "tcp_flood_small" => Workload::Flood(tcp::flood_small()),
            "tcp_flood_bulk" => Workload::Flood(tcp::flood_bulk()),
            "tcp_bracha" => Workload::Bracha(tcp::bracha()),
            "sim_bracha" => Workload::Sim(simwl::bracha()),
            "sim_reliable_lossy" => Workload::Sim(simwl::reliable_lossy()),
            _ => return None,
        })
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .map(|v| Some(v.as_str()))
            .ok_or_else(|| format!("{name} needs a value")),
    }
}

fn parse<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name)? {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("{name}: cannot read {v:?}")),
    }
}

/// Reads `--workload --seed --seconds --trace`; `default_seconds` applies
/// when `--seconds` is absent.
pub fn parse_run(args: &[String], default_seconds: f64) -> Result<RunArgs, String> {
    let workload = flag(args, "--workload")?
        .ok_or("--workload <name> is required; `list` names the workloads")?
        .to_owned();
    if Workload::named(&workload).is_none() {
        return Err(format!(
            "unknown workload {workload:?}; `list` names the workloads"
        ));
    }
    let seconds: f64 = parse(args, "--seconds", default_seconds)?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], got {seconds}"));
    }
    let trace = match parse::<u8>(args, "--trace", 0)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace is 0 or 1, got {other}")),
    };
    Ok(RunArgs {
        workload,
        seed: parse(args, "--seed", DEFAULT_SEED)?,
        seconds,
        trace,
    })
}

fn run(args: &RunArgs) -> Result<bool, String> {
    let workload = Workload::named(&args.workload)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    let (seed, s) = (args.seed, args.seconds);
    let (outcome, table): (report::Outcome, &[(&str, &str)]) = if args.trace {
        (
            layers::traced_run(&args.workload, &workload, seed, s)?,
            &spec::PER_LAYER,
        )
    } else {
        let outcome = match &workload {
            Workload::Flood(p) => tcp::run_flood(p, seed, s)?,
            Workload::Bracha(p) => tcp::run_bracha(p, seed, s)?,
            Workload::Sim(p) => simwl::run(p, seed, s)?,
        };
        (outcome, &spec::END_TO_END)
    };
    report::emit(&args.workload, &outcome, table)?;
    Ok(outcome.failed == 0)
}

fn list() {
    println!("workloads:");
    for (name, why) in spec::WORKLOADS {
        println!("  {name:<20} {why}");
    }
    println!("end-to-end metrics (--trace 0):");
    for (name, unit) in spec::END_TO_END {
        println!("  {name} [{unit}]");
    }
    println!("per-layer metrics (--trace 1):");
    for (name, unit) in spec::PER_LAYER {
        println!("  {name} [{unit}]");
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("list") => {
            list();
            Ok(true)
        }
        Some("aa") => aa::run(&args[1..]),
        _ => parse_run(&args, f64::from(aa::RUN_SECONDS)).and_then(|a| run(&a)),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("lhg-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn every_listed_workload_has_parameters_and_no_other_name_does() {
        for (name, _) in spec::WORKLOADS {
            assert!(Workload::named(name).is_some(), "{name}");
        }
        assert!(Workload::named("tcp_flood").is_none());
    }

    #[test]
    fn the_driver_form_parses() {
        let a = parse_run(
            &args("--workload sim_bracha --seed 42 --seconds 10 --trace 1"),
            20.0,
        )
        .expect("parses");
        assert_eq!(
            a,
            RunArgs {
                workload: "sim_bracha".to_owned(),
                seed: 42,
                seconds: 10.0,
                trace: true
            }
        );
    }

    #[test]
    fn defaults_apply_and_bad_input_is_named() {
        let a = parse_run(&args("--workload tcp_bracha"), 20.0).expect("parses");
        assert_eq!((a.seed, a.seconds, a.trace), (DEFAULT_SEED, 20.0, false));
        assert!(parse_run(&args("--seed 1"), 20.0)
            .unwrap_err()
            .contains("--workload"));
        assert!(parse_run(&args("--workload nope"), 20.0)
            .unwrap_err()
            .contains("nope"));
        assert!(parse_run(&args("--workload tcp_bracha --seed x"), 20.0)
            .unwrap_err()
            .contains("--seed"));
        assert!(parse_run(&args("--workload tcp_bracha --trace 2"), 20.0)
            .unwrap_err()
            .contains("--trace"));
        assert!(parse_run(&args("--workload tcp_bracha --seconds 0"), 20.0)
            .unwrap_err()
            .contains("--seconds"));
        assert!(parse_run(&args("--workload tcp_bracha --seed"), 20.0)
            .unwrap_err()
            .contains("needs a value"));
    }
}
