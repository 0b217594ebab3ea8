//! One benchmark for the whole stack.
//!
//! ```text
//! benchmark run --workload W --seed N [--seconds S] [--trace [0|1]] [--out DIR]
//! benchmark run --all --seed N [--smoke] [--out DIR]
//! benchmark list
//! benchmark compare DIR_A DIR_B
//! ```
//!
//! `run --workload` measures one workload, checks its outputs, prints
//! every metric by name with its unit, writes a stamped result file and
//! ends with the one-line JSON result. `run --all` runs every workload
//! untraced and traced, each in a process of its own. See `README.md`.

mod compare;
mod design_flow;
mod host;
mod json;
mod loadgen;
mod report;
mod serving;
mod sim_functional;
mod spec;
mod stats;
mod subject;
mod trace;

use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

/// The state one workload run threads through its phases.
pub struct Run {
    pub seed: u64,
    /// `--seconds`: what the phase shares in [`spec::share`] divide.
    pub seconds: f64,
    pub tracer: Tracer,
    pub report: Report,
}

impl Run {
    /// The budget of a phase given its share of `--seconds`.
    pub fn budget(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }

    /// Sets the workload up several times and reports the median as
    /// `setup_s`. `once` receives the previous set-up to dismantle off
    /// the clock and returns the new one with the seconds it took.
    pub fn set_up<T>(&mut self, mut once: impl FnMut(&mut Run, Option<T>) -> (T, f64)) -> T {
        let started = Instant::now();
        let mut samples = Vec::new();
        let mut current = None;
        while samples.len() < spec::SETUP_MIN_REPEATS
            || (samples.len() < spec::SETUP_MAX_REPEATS
                && started.elapsed().as_secs_f64() < spec::SETUP_MIN_S)
        {
            let (next, seconds) = once(self, current.take());
            samples.push(seconds);
            current = Some(next);
        }
        self.report.set_median("setup_s", &samples);
        current.expect("set-up ran")
    }
}

struct RunArgs {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: benchmark run --workload W --seed N [--seconds S] [--trace [0|1]] [--out DIR]\n\
         \x20      benchmark run --all --seed N [--smoke] [--seconds S] [--out DIR]\n\
         \x20      benchmark list\n\
         \x20      benchmark compare DIR_A DIR_B"
    );
    ExitCode::from(2)
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        all: false,
        seed: 1,
        seconds: spec::DEFAULT_SECONDS,
        trace: false,
        out: report::default_out_dir(),
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value("--workload")?),
            "--all" => parsed.all = true,
            "--smoke" => parsed.seconds = spec::SMOKE_SECONDS,
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                parsed.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--out" => parsed.out = PathBuf::from(value("--out")?),
            // `--trace`, `--trace 1` and `--trace 0` are all accepted.
            "--trace" => {
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if parsed.all == parsed.workload.is_some() {
        return Err("give exactly one of --workload W and --all".to_string());
    }
    Ok(parsed)
}

/// Runs one workload in this process.
fn run_one(workload: &str, args: &RunArgs) -> ExitCode {
    if !spec::WORKLOADS.iter().any(|w| w.name == workload) {
        eprintln!("unknown workload `{workload}`; see `benchmark list`");
        return ExitCode::from(2);
    }
    // The fixed host budget: worker count, not the work pool, decides
    // core use. Only the `par.t2_speedup` probe raises it, locally.
    hybriddnn::par::set_default_threads(1);
    let mut run = Run {
        seed: args.seed,
        seconds: args.seconds,
        tracer: Tracer::new(args.trace),
        report: Report::default(),
    };
    match workload {
        "design_flow" => design_flow::run(&mut run),
        "sim_functional" => sim_functional::run(&mut run),
        _ => serving::run(
            &mut run,
            spec::serving(workload).expect("a serving workload"),
        ),
    }
    finish(workload, args, run)
}

/// Completes the declared metric set, prints it, writes the result file
/// (and the trace), and ends with the result line.
fn finish(workload: &str, args: &RunArgs, mut run: Run) -> ExitCode {
    if args.trace {
        // A per-layer metric this workload does not exercise reads 0:
        // that layer did no work on this workload's path.
        for m in &spec::PER_LAYER {
            if run.report.get(m.name).is_none() {
                run.report.set(m.name, 0.0);
            }
        }
        // … and the traced run reports per-layer metrics only.
        let order = |name: &str| spec::PER_LAYER.iter().position(|m| m.name == name);
        run.report.metrics.retain(|m| order(m.name).is_some());
        run.report.metrics.sort_by_key(|m| order(m.name));
    } else {
        for m in &spec::END_TO_END {
            let value = run.report.get(m.name);
            let present = value.is_some_and(|v| v != 0.0 && !v.is_nan());
            run.report.check(present, || {
                format!("end-to-end metric {} missing or zero ({value:?})", m.name)
            });
        }
    }

    println!(
        "# {workload} seed {} seconds {} trace {}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (phase, seconds) in &run.report.phases {
        println!("# phase {phase:<24} {seconds:>10.3} s");
    }
    for m in &run.report.metrics {
        match &m.samples {
            Some(s) => println!(
                "{:<30} {:>16.6} {:<8} n={} q1={:.6} q3={:.6}",
                m.name, m.value, m.unit, s.n, s.q1, s.q3
            ),
            None => println!("{:<30} {:>16.6} {:<8}", m.name, m.value, m.unit),
        }
    }
    if args.trace {
        println!("# per-layer self time (span duration minus child spans)");
        for (layer, (spans, total_ns, self_ns)) in run.tracer.self_times() {
            println!(
                "# layer {layer:<10} spans {spans:>8} total {:>12.3} ms self {:>12.3} ms",
                total_ns as f64 / 1e6,
                self_ns as f64 / 1e6
            );
        }
    }
    for failure in &run.report.failures {
        eprintln!("FAILED: {failure}");
    }
    println!(
        "# ops attempted {} failed {}",
        run.report.attempted, run.report.failed
    );

    let written = std::fs::create_dir_all(&args.out).and_then(|()| {
        let record = run
            .report
            .record(workload, args.seed, args.seconds, args.trace);
        std::fs::write(
            report::result_path(&args.out, workload, args.seed, args.trace),
            record.to_pretty(),
        )?;
        if args.trace {
            std::fs::write(
                args.out.join(format!("trace-{workload}.jsonl")),
                run.tracer.to_jsonl(),
            )?;
        }
        Ok(())
    });
    if let Err(e) = written {
        eprintln!("cannot write results under {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }

    println!("{}", run.report.result_line());
    if run.report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload, untraced then traced, each in a child process so
/// that peak memory, threads and allocator state start fresh.
fn run_all(args: &RunArgs) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = Vec::new();
    for w in &spec::WORKLOADS {
        for trace in ["0", "1"] {
            let status = std::process::Command::new(&exe)
                .args(["run", "--workload", w.name, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .arg("--out")
                .arg(&args.out)
                .status();
            if !matches!(status, Ok(s) if s.success()) {
                failed.push(format!("{} --trace {trace}: {status:?}", w.name));
            }
        }
    }
    for f in &failed {
        eprintln!("FAILED: {f}");
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Prints the declared names and checks them against `BENCHMARK.json`.
fn list() -> ExitCode {
    println!("workloads:");
    for w in &spec::WORKLOADS {
        println!("  {:<16} {}", w.name, w.why);
    }
    println!("end_to_end:");
    for m in &spec::END_TO_END {
        println!(
            "  {:<30} {:<8} better {:<6} bound {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        );
    }
    println!("per_layer:");
    for m in &spec::PER_LAYER {
        println!(
            "  {:<30} {:<8} better {}",
            m.name,
            m.unit,
            m.better.as_str()
        );
    }
    match compare::check_manifest(include_str!("../../BENCHMARK.json")) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("BENCHMARK.json disagrees with the benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    host::pin_allocator();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => match parse_run_args(&args[1..]) {
            Ok(parsed) if parsed.all => run_all(&parsed),
            Ok(parsed) => {
                let workload = parsed.workload.clone().expect("checked by the parser");
                run_one(&workload, &parsed)
            }
            Err(e) => {
                eprintln!("{e}");
                usage()
            }
        },
        Some("list") => list(),
        Some("compare") if args.len() == 3 => compare::run(&args[1], &args[2]),
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_argument_order_parses() {
        let a = parse_run_args(&args(
            "--workload serve_light --seed 9 --seconds 16 --trace 0",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("serve_light"));
        assert_eq!((a.seed, a.seconds, a.trace), (9, 16.0, false));
        assert!(
            parse_run_args(&args("--workload x --seed 9 --trace 1"))
                .unwrap()
                .trace
        );
        assert!(
            parse_run_args(&args("--workload x --trace --seed 9"))
                .unwrap()
                .trace
        );
        assert!(parse_run_args(&args("--all --smoke")).unwrap().all);
        assert!(parse_run_args(&args("--all --workload x")).is_err());
        assert!(parse_run_args(&args("--seed 1")).is_err());
        assert!(parse_run_args(&args("--workload x --seconds 0")).is_err());
    }
}
