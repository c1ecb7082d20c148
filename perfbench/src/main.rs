//! `relaxed-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! --serviced <path> --scratch <dir>`
//!
//! Sets the workload up several times, runs closed-loop ops for the given
//! number of seconds, and prints one line per metric followed by a JSON
//! result line. `perfbench/run.py` builds this binary and the workspace's
//! `relaxed-serviced`, then runs it with the last two arguments filled in.

use relaxed_perfbench::layers::Layers;
use relaxed_perfbench::measure::{children, median, quantile, settled_sample, tail};
use relaxed_perfbench::workloads::{
    run_ops, Bench, Workload, END_TO_END, RSS_AFTER_OPS, SETUP_REPS,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    serviced: PathBuf,
    scratch: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut flags = std::collections::HashMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let mut take = |flag: &str| flags.remove(flag).ok_or(format!("missing {flag}"));
    let number = |flag: &str, value: String| {
        value
            .parse::<u64>()
            .map_err(|_| format!("{flag} needs an unsigned integer, got {value:?}"))
    };
    let name = take("--workload")?;
    let args = Args {
        workload: Workload::from_name(&name).ok_or(format!("unknown workload {name:?}"))?,
        seed: number("--seed", take("--seed")?)?,
        seconds: number("--seconds", take("--seconds")?)?,
        trace: match take("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace needs 0 or 1, got {other:?}")),
        },
        serviced: PathBuf::from(take("--serviced")?),
        scratch: PathBuf::from(take("--scratch")?),
    };
    if let Some(flag) = flags.keys().next() {
        return Err(format!("unknown argument {flag}"));
    }
    Ok(args)
}

struct Outcome {
    attempted: usize,
    failed: usize,
    /// `(name, unit, value)` in output order.
    metrics: Vec<(&'static str, &'static str, f64)>,
    /// Human-readable context printed after a metric's line.
    notes: Vec<(&'static str, String)>,
}

fn run(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let mut layers = args.trace.then(Layers::default);
    let (mut setups, mut setups_wall) = (Vec::new(), Vec::new());
    let mut bench = None;
    for rep in 0..SETUP_REPS {
        // Each set-up starts from nothing: the previous one is torn down
        // first and a fresh directory holds its files.
        if let Some(previous) = bench.take() {
            Bench::teardown(previous)?;
        }
        let rep_dir = dir.join(format!("setup-{rep}"));
        std::fs::create_dir_all(&rep_dir).map_err(|e| e.to_string())?;
        let settle = args.workload.settle();
        let reference_before = settled_sample(settle);
        let started = Instant::now();
        let ready = Bench::setup(
            args.workload,
            args.seed,
            &rep_dir,
            &args.serviced,
            layers.as_mut(),
        )?;
        let wall_s = started.elapsed().as_secs_f64();
        let reference_after = settled_sample(settle);
        setups.push(wall_s * 2.0 / (reference_before + reference_after));
        setups_wall.push(wall_s);
        bench = Some(ready);
    }
    let mut bench = bench.expect("at least one set-up");

    let ops = run_ops(
        &mut bench,
        layers.as_mut(),
        Duration::from_secs(args.seconds),
    );
    let attempted = ops.latencies_ms.len();
    Bench::teardown(bench)?;
    if !children(std::process::id()).is_empty() {
        return Err("a child process outlived its workload".to_string());
    }

    let p50 = median(&ops.latencies_ms);
    let wall_p50 = median(&ops.wall_ms);
    if let Some(layers) = layers {
        return Ok(Outcome {
            attempted,
            failed: ops.failed,
            metrics: layers.finish(attempted, p50),
            notes: vec![(
                "trace.latency_p50",
                format!("median traced op of {attempted}; wall {wall_p50:.4} ms"),
            )],
        });
    }
    let (tail_ms, beyond) = tail(&ops.latencies_ms);
    let (p99, _) = quantile(&ops.latencies_ms, 0.99);
    let busy_s: f64 = ops.latencies_ms.iter().sum::<f64>() / 1e3;
    let completed = attempted - ops.failed;
    let (peak_kib, processes) = ops.peak_rss_kib;
    let values = [
        p50,
        tail_ms,
        completed as f64 / busy_s,
        median(&setups),
        peak_kib as f64 / 1024.0,
    ];
    Ok(Outcome {
        attempted,
        failed: ops.failed,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| (name, unit, value))
            .collect(),
        notes: vec![
            (
                "latency_p50",
                format!("median of {attempted} ops; wall {wall_p50:.4} ms"),
            ),
            (
                "latency_tail",
                format!("p90 of {attempted} ops, {beyond} beyond it; p99 {p99:.4} ms"),
            ),
            (
                "throughput",
                format!(
                    "one closed-loop caller; wall {:.4} ops/s over {:.3} s",
                    completed as f64 / ops.elapsed_s,
                    ops.elapsed_s
                ),
            ),
            (
                "setup_s",
                format!(
                    "median of {SETUP_REPS} set-ups; wall {:.4} s",
                    median(&setups_wall)
                ),
            ),
            (
                "peak_rss_mb",
                format!(
                    "VmHWM summed over {processes} processes after {} ops",
                    attempted.min(RSS_AFTER_OPS)
                ),
            ),
        ],
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("relaxed-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let dir = args.scratch.join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let result = std::fs::create_dir_all(&dir)
        .map_err(|e| format!("cannot create {}: {e}", dir.display()))
        .and_then(|()| run(&args, &dir));
    let _ = std::fs::remove_dir_all(&dir);
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("relaxed-perfbench: {}: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };

    println!(
        "workload={} seed={} trace={} attempted={} failed={} (times are reference-normalized)",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        outcome.attempted,
        outcome.failed
    );
    let mut json = Vec::new();
    for (name, unit, value) in &outcome.metrics {
        let note = outcome
            .notes
            .iter()
            .find(|(noted, _)| noted == name)
            .map_or(String::new(), |(_, note)| format!("  ({note})"));
        println!("{name} = {value} {unit}{note}");
        json.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        json.join(", ")
    );
    ExitCode::SUCCESS
}
