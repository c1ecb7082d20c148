//! Workspace automation tasks, invoked as `cargo xtask <task>`.
//!
//! `ci` runs the exact command sequence `.github/workflows/ci.yml` runs, so
//! local verification and CI cannot drift. `verify` runs only the ROADMAP
//! tier-1 gate (`cargo build --release && cargo test -q`). `bench-json`
//! runs the benchmark harness with machine-readable output enabled and
//! writes the `BENCH_<date>.json` perf-trajectory artifact CI uploads
//! (`BENCH_DATE=YYYY-MM-DD` overrides the date stamp). `bench-check`
//! compares a fresh `BENCH_<date>.json` against the committed
//! `BENCH_BASELINE.json` and fails on a >25% mean regression in any
//! regression-gated group.

use std::env;
use std::path::PathBuf;
use std::process::{exit, Command};

/// A named shell-free step: a program, its arguments, and extra
/// environment variables.
struct Step(
    &'static [&'static str],
    &'static [(&'static str, &'static str)],
);

const VERIFY: &[Step] = &[
    Step(&["cargo", "build", "--release"], &[]),
    Step(&["cargo", "test", "-q"], &[]),
];

const CI_LINT_BUILD_TEST: &[Step] = &[
    Step(&["cargo", "fmt", "--all", "--check"], &[]),
    Step(
        &[
            "cargo",
            "clippy",
            "--workspace",
            "--all-targets",
            "--",
            "-D",
            "warnings",
        ],
        &[],
    ),
    // `--workspace`: a plain release build covers only the root package,
    // and the service job below runs the worker and daemon binaries it
    // would not build.
    Step(&["cargo", "build", "--release", "--workspace"], &[]),
    // The public API documents itself: intra-doc links and examples must
    // stay valid.
    Step(
        &["cargo", "doc", "--workspace", "--no-deps"],
        &[("RUSTDOCFLAGS", "-D warnings")],
    ),
    // One of the four verification schedules: the fully sequential
    // discharge path. The other three need runtime temp paths and are
    // run by `ci()`: default engine parallelism (under a fresh TMPDIR, the
    // temp-dir gate), the persistent on-disk verdict cache, and the
    // traced engine suite.
    Step(
        &["cargo", "test", "-q", "--workspace"],
        &[("DISCHARGE_WORKERS", "1")],
    ),
];

const CI_EXAMPLES_BENCH: &[Step] = &[
    Step(
        &["cargo", "run", "--release", "--example", "quickstart"],
        &[],
    ),
    Step(
        &["cargo", "run", "--release", "--example", "swish_knobs"],
        &[],
    ),
    Step(
        &["cargo", "run", "--release", "--example", "water_parallel"],
        &[],
    ),
    Step(
        &["cargo", "run", "--release", "--example", "lu_approx"],
        &[],
    ),
    Step(
        &[
            "cargo",
            "run",
            "--release",
            "--example",
            "perforation_sweep",
        ],
        &[],
    ),
    // Corpus smoke: batch-verify every case study through one session
    // and assert cross-program cache reuse.
    Step(
        &["cargo", "run", "--release", "--example", "verify_corpus"],
        &[],
    ),
    // The benchmark's self-tests: known answers, and exact repetition of
    // the traced cold_corpus solver counters across ops, runs and seeds.
    Step(
        &[
            "cargo",
            "test",
            "--release",
            "--manifest-path",
            "perfbench/Cargo.toml",
        ],
        &[],
    ),
    // The edit-reverify job: patch one case-study spec against a warm
    // store and assert the solver re-ran exactly once per goal the edit
    // dirtied, with an untouched sibling replayed verbatim (the example
    // asserts all of this internally, plus verdict equivalence against
    // a full in-process run).
    Step(
        &[
            "cargo",
            "run",
            "--release",
            "--example",
            "verify_corpus",
            "--",
            "--edit-reverify",
        ],
        &[],
    ),
    Step(&["cargo", "bench", "--no-run", "--workspace"], &[]),
];

fn run_step(argv: &[&str], envs: &[(&str, &str)]) {
    run_step_without(argv, envs, &[]);
}

/// [`run_step`] with the `removed` variables taken out of the inherited
/// environment.
fn run_step_without(argv: &[&str], envs: &[(&str, &str)], removed: &[&str]) {
    let prefix: String = removed
        .iter()
        .map(|k| format!("-u {k} "))
        .chain(envs.iter().map(|(k, v)| format!("{k}={v} ")))
        .collect();
    eprintln!("xtask> {prefix}{}", argv.join(" "));
    let mut command = Command::new(argv[0]);
    for var in removed {
        command.env_remove(var);
    }
    let status = command
        .args(&argv[1..])
        .envs(envs.iter().copied())
        .status()
        .unwrap_or_else(|e| panic!("failed to spawn `{}`: {e}", argv[0]));
    if !status.success() {
        eprintln!("xtask: `{prefix}{}` failed ({status})", argv.join(" "));
        exit(status.code().unwrap_or(1));
    }
}

/// [`run_step`] that also returns the step's standard output, after
/// echoing it.
fn run_step_output(argv: &[&str], envs: &[(&str, &str)]) -> String {
    let prefix: String = envs.iter().map(|(k, v)| format!("{k}={v} ")).collect();
    eprintln!("xtask> {prefix}{}", argv.join(" "));
    let output = Command::new(argv[0])
        .args(&argv[1..])
        .envs(envs.iter().copied())
        .stderr(std::process::Stdio::inherit())
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn `{}`: {e}", argv[0]));
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    print!("{stdout}");
    if !output.status.success() {
        eprintln!(
            "xtask: `{prefix}{}` failed ({})",
            argv.join(" "),
            output.status
        );
        exit(output.status.code().unwrap_or(1));
    }
    stdout
}

fn run(steps: &[Step]) {
    for Step(argv, envs) in steps {
        run_step(argv, envs);
    }
}

/// A per-process scratch path under the OS temp dir.
fn temp_path(name: &str, extension: &str) -> String {
    let path = std::env::temp_dir().join(format!(
        "relaxed-xtask-ci-{name}-{}.{extension}",
        std::process::id()
    ));
    path.to_str().expect("temp path is unicode").to_string()
}

/// The programs of the paper's corpus, as `verify_corpus` names them.
const CORPUS_PROGRAMS: [&str; 6] = [
    "swish",
    "water",
    "lu",
    "swish_broken",
    "water_broken",
    "lu_broken",
];

/// Deletes a verdict store and its depmap sidecar.
fn remove_store(path: &str) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(format!("{path}.depmap"));
}

/// The full CI mirror, including the persistent-verdict-cache test
/// schedule (which needs a runtime temp path, so it cannot live in the
/// static step tables).
fn ci() {
    run(CI_LINT_BUILD_TEST);
    ci_test_leaves_no_temp_files();
    let cache = temp_path("verdicts", "jsonl");
    run_step(
        &["cargo", "test", "-q", "--workspace"],
        &[("DISCHARGE_CACHE", &cache)],
    );
    remove_store(&cache);
    // The traced schedule: the engine suite re-runs with every
    // env-opt-in session tracing into one shared Chrome trace file, so
    // the instrumented paths stay verdict-identical under concurrent
    // span collection.
    let trace = temp_path("trace", "json");
    run_step(
        &["cargo", "test", "-q", "--test", "engine"],
        &[("DISCHARGE_TRACE", &trace)],
    );
    let _ = std::fs::remove_file(&trace);
    run(CI_EXAMPLES_BENCH);
    ci_cache_persistence();
    // The trace-smoke job: a cold traced corpus run — the example
    // itself gates on ≥1 solve span landing in the written trace and
    // prints the machine-readable `trace:` counts.
    let smoke_trace = temp_path("trace-smoke", "json");
    run_step(
        &[
            "cargo",
            "run",
            "--release",
            "--example",
            "verify_corpus",
            "--",
            "--trace",
            &smoke_trace,
            "--slow",
            "5",
        ],
        &[],
    );
    let _ = std::fs::remove_file(&smoke_trace);
    ci_service();
}

/// The default test schedule, run with `TMPDIR` set to a fresh directory:
/// it fails if the suites leave any `relaxed-*` file there (a store, a
/// depmap sidecar or a trace a test forgot to remove).
fn ci_test_leaves_no_temp_files() {
    let dir = temp_path("tmpdir", "d");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the suite's temp dir");
    run_step(&["cargo", "test", "-q", "--workspace"], &[("TMPDIR", &dir)]);
    let left: Vec<String> = std::fs::read_dir(&dir)
        .expect("list the suite's temp dir")
        .filter_map(|entry| entry.ok())
        .map(|entry| entry.file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with("relaxed-"))
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    if !left.is_empty() {
        eprintln!("xtask: the test suites left files in the temp dir: {left:?}");
        exit(1);
    }
}

/// The cache-persistence job's local mirror: a cold corpus run persists a
/// fresh verdict store, and a warm rerun of the same binary on it must
/// report `disk_hits=` above 0 on its last such line.
fn ci_cache_persistence() {
    let store = temp_path("cache-persistence", "jsonl");
    remove_store(&store);
    let corpus = ["cargo", "run", "--release", "--example", "verify_corpus"];
    run_step(&corpus, &[("DISCHARGE_CACHE", &store)]);
    let warm = run_step_output(&corpus, &[("DISCHARGE_CACHE", &store)]);
    remove_store(&store);
    let hits: u64 = warm
        .lines()
        .rev()
        .find_map(|line| line.split("disk_hits=").nth(1))
        .and_then(|rest| {
            rest.split(|c: char| !c.is_ascii_digit())
                .next()?
                .parse()
                .ok()
        })
        .unwrap_or(0);
    if hits == 0 {
        eprintln!("xtask: the warm corpus rerun reported no disk hits");
        exit(1);
    }
    eprintln!("xtask: the warm corpus rerun reported {hits} disk hits");
}

/// The service-corpus CI job's local mirror: start a traced
/// `relaxed-serviced` daemon (warm two-worker fleet, fresh shared verdict
/// store, ephemeral port parsed from its startup line), run the
/// two-concurrent-client `verify_corpus --service` example against it —
/// once without a store, so the fleet solves cold and its workers record
/// every program in the store's depmap sidecar (checked right after),
/// then cold and warm on the shared store (the example asserts verdict
/// equivalence against its
/// in-process baseline and, on the shared store, zero solver runs and ≥1
/// cross-client disk hit) — then drain the daemon gracefully with a raw
/// `shutdown` frame and require a worker `solve` span in the trace the
/// drain wrote (the trace-smoke job's daemon gate); then run the fleet
/// fault-tolerance suite in release mode (the workspace release build
/// above produced the relaxed-shardd and relaxed-serviced binaries).
fn ci_service() {
    let cache = temp_path("service", "jsonl");
    let trace = temp_path("service-trace", "json");
    remove_store(&cache);
    let _ = std::fs::remove_file(&trace);
    let daemon_bin = "target/release/relaxed-serviced";
    eprintln!(
        "xtask> DISCHARGE_CACHE={cache} DISCHARGE_TRACE={trace} {daemon_bin} --fleet 2 --addr 127.0.0.1:0"
    );
    let mut daemon = Command::new(daemon_bin)
        .args(["--fleet", "2", "--addr", "127.0.0.1:0"])
        .env("DISCHARGE_CACHE", &cache)
        .env("DISCHARGE_TRACE", &trace)
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| panic!("failed to spawn {daemon_bin}: {e}"));
    let stdout = daemon.stdout.take().expect("piped daemon stdout");
    let mut line = String::new();
    std::io::BufRead::read_line(&mut std::io::BufReader::new(stdout), &mut line)
        .expect("read the daemon startup line");
    let addr = line
        .split_whitespace()
        .skip_while(|word| *word != "on")
        .nth(1)
        .unwrap_or_else(|| panic!("unexpected daemon startup line: {line:?}"))
        .to_string();
    eprintln!("xtask: relaxed-serviced is listening on {addr}");
    let control = |frame: &str| -> Result<String, String> {
        let reply = (|| -> std::io::Result<String> {
            use std::io::{BufRead, Write};
            let mut stream = std::net::TcpStream::connect(&addr)?;
            writeln!(stream, "{frame}")?;
            let mut reply = String::new();
            std::io::BufReader::new(stream).read_line(&mut reply)?;
            Ok(reply.trim().to_string())
        })();
        reply.map_err(|e| format!("relaxed-serviced did not answer {frame}: {e}"))
    };
    // The first number after `key` in `text`.
    let count = |text: &str, key: &str| -> Option<u64> {
        let at = text.find(key)? + key.len();
        text[at..]
            .split(|c: char| !c.is_ascii_digit())
            .next()?
            .parse()
            .ok()
    };
    let metrics = "{\"type\":\"metrics\"}";
    let probed = (|| -> Result<(), String> {
        // The daemon's counters exist from startup: a fresh daemon's
        // metrics frame already carries the rejected counter and the
        // latency histogram, at 0 (the text rides JSON-escaped, so its
        // lines end in `\n`).
        let fresh = control(metrics)?;
        for series in [
            "relaxed_requests_rejected_total 0\\n",
            "relaxed_request_latency_ms_count 0\\n",
        ] {
            if !fresh.contains(series) {
                return Err(format!(
                    "a fresh daemon's metrics frame lacks {series}: {fresh}"
                ));
            }
        }
        let service_example = [
            "cargo",
            "run",
            "--release",
            "--example",
            "verify_corpus",
            "--",
            "--service",
            &addr,
        ];
        eprintln!("xtask: service-corpus leg without a store (the fleet solves)");
        run_step_without(&service_example, &[], &["DISCHARGE_CACHE"]);
        // No client had a store, so only the fleet's workers can have
        // written the sidecar: one record per program they ran live.
        let sidecar = format!("{cache}.depmap");
        let records = std::fs::read_to_string(&sidecar).unwrap_or_default();
        for program in CORPUS_PROGRAMS {
            if !records.contains(&format!("{{\"program\":\"{program}\",")) {
                return Err(format!(
                    "the fleet recorded no depmap revision of {program} in {sidecar}"
                ));
            }
        }
        eprintln!("xtask: the fleet's workers recorded every program in {sidecar}");
        for leg in ["cold", "warm"] {
            eprintln!("xtask: service-corpus {leg} leg");
            run_step(&service_example, &[("DISCHARGE_CACHE", &cache)]);
        }
        // The trace-smoke job's metrics half: after the client legs the
        // frame carries the served counter and the latency histogram,
        // and its served count is the one the drain's `bye` reports.
        let frame = control(metrics)?;
        let served = count(&frame, "\\nrelaxed_requests_served_total ")
            .filter(|_| frame.contains("relaxed_request_latency_ms_bucket"))
            .ok_or(format!(
                "incomplete metrics frame from relaxed-serviced: {frame}"
            ))?;
        eprintln!("xtask: service metrics frame carries the served counter and latency histogram");
        let bye = control("{\"type\":\"shutdown\"}")?;
        eprintln!("xtask: daemon drained: {bye}");
        if count(&bye, "\"served\":") != Some(served) {
            return Err(format!(
                "the metrics frame counted {served} served jobs, the drain {bye}"
            ));
        }
        Ok(())
    })();
    if let Err(e) = probed {
        let _ = daemon.kill();
        let _ = daemon.wait();
        eprintln!("xtask: {e}");
        exit(1);
    }
    let status = daemon.wait().expect("reap relaxed-serviced");
    if !status.success() {
        eprintln!("xtask: relaxed-serviced exited with {status}");
        exit(1);
    }
    let solves = std::fs::read_to_string(&trace)
        .unwrap_or_default()
        .matches("\"name\":\"solve\",\"cat\":\"engine\"")
        .count();
    if solves == 0 {
        eprintln!("xtask: the traced daemon's trace {trace} holds no worker solve span");
        exit(1);
    }
    eprintln!("xtask: the daemon's trace holds {solves} worker solve spans");
    remove_store(&cache);
    let _ = std::fs::remove_file(&trace);
    run_step(
        &[
            "cargo",
            "test",
            "--release",
            "-p",
            "relaxed-bench",
            "--test",
            "shard",
        ],
        &[],
    );
}

/// Runs the bench harness with `BENCH_JSON=1`, collects the machine
/// lines, and writes `BENCH_<date>.json` (per-benchmark ns, per-group
/// mean ns, and the engine's cache-hit-rate gauges) in the workspace
/// root.
fn bench_json() {
    eprintln!("xtask> BENCH_JSON=1 cargo bench --workspace (capturing output)");
    let output = Command::new("cargo")
        .args(["bench", "--workspace"])
        .env("BENCH_JSON", "1")
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn `cargo`: {e}"));
    // The harness's human-readable report still goes to the terminal.
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    if !output.status.success() {
        eprintln!(
            "xtask: `cargo bench --workspace` failed ({})",
            output.status
        );
        exit(output.status.code().unwrap_or(1));
    }

    let records: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("BENCHJSON "))
        .collect();
    if records.is_empty() {
        eprintln!("xtask: no BENCHJSON records in bench output");
        exit(1);
    }

    // Per-group mean over the timed benchmarks ("group/rest" naming);
    // gauge records (cache-hit rates) carry `value` instead of `mean_ns`
    // and are kept verbatim but excluded from the timing means.
    let mut groups: Vec<(String, u128, u64)> = Vec::new();
    for record in &records {
        let Some(name) = extract_str(record, "name") else {
            continue;
        };
        let Some(mean_ns) = extract_u128(record, "mean_ns") else {
            continue;
        };
        let group = name.split('/').next().unwrap_or(&name).to_string();
        match groups.iter_mut().find(|(g, _, _)| *g == group) {
            Some((_, sum, n)) => {
                *sum += mean_ns;
                *n += 1;
            }
            None => groups.push((group, mean_ns, 1)),
        }
    }

    let date = bench_date();
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"date\": \"{date}\",\n"));
    out.push_str("  \"groups\": [\n");
    for (i, (group, sum, n)) in groups.iter().enumerate() {
        let sep = if i + 1 < groups.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"group\": \"{group}\", \"benchmarks\": {n}, \"mean_ns\": {}}}{sep}\n",
            sum / u128::from(*n)
        ));
    }
    out.push_str("  ],\n  \"benchmarks\": [\n");
    for (i, record) in records.iter().enumerate() {
        let sep = if i + 1 < records.len() { "," } else { "" };
        out.push_str(&format!("    {record}{sep}\n"));
    }
    out.push_str("  ]\n}\n");

    let path = PathBuf::from(format!("BENCH_{date}.json"));
    std::fs::write(&path, out).unwrap_or_else(|e| panic!("failed to write {path:?}: {e}"));
    eprintln!(
        "xtask: wrote {} ({} benchmarks, {} groups)",
        path.display(),
        records.len(),
        groups.len()
    );
}

/// Pulls the string field `key` out of a flat BENCHJSON record (the
/// harness writes these, so the simple scan is sound).
fn extract_str(record: &str, key: &str) -> Option<String> {
    let tag = format!("\"{key}\":\"");
    let start = record.find(&tag)? + tag.len();
    let rest = &record[start..];
    // Harness names never contain escaped quotes, but stay honest.
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => out.push(chars.next()?),
            c => out.push(c),
        }
    }
    None
}

fn extract_u128(record: &str, key: &str) -> Option<u128> {
    let tag = format!("\"{key}\":");
    let start = record.find(&tag)? + tag.len();
    let digits: String = record[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// The date stamp for `BENCH_<date>.json`: the `BENCH_DATE` environment
/// override when it is a plausible `YYYY-MM-DD`, else today's UTC date.
/// A malformed override warns and falls back — a bench artifact with a
/// system date beats no artifact at all.
fn bench_date() -> String {
    match env::var("BENCH_DATE") {
        Ok(date) if !date.is_empty() => {
            if is_iso_date(&date) {
                date
            } else {
                eprintln!(
                    "xtask: warning: BENCH_DATE {date:?} is not YYYY-MM-DD; using the system date"
                );
                utc_date()
            }
        }
        _ => utc_date(),
    }
}

/// Shape check for `YYYY-MM-DD` (digits and dashes in the right places —
/// calendar validity is the caller's business, filename hygiene is ours).
fn is_iso_date(s: &str) -> bool {
    s.len() == 10
        && s.char_indices().all(|(i, c)| match i {
            4 | 7 => c == '-',
            _ => c.is_ascii_digit(),
        })
}

/// Today's UTC date as `YYYY-MM-DD`, from the system clock (no chrono in
/// an offline build): days-since-epoch to civil date via the standard
/// Gregorian conversion.
fn utc_date() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("system clock before 1970")
        .as_secs();
    let days = (secs / 86_400) as i64;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

// ---------------------------------------------------------------------
// bench-check: the regression gate over the bench trajectory
// ---------------------------------------------------------------------

/// The regression-gated groups: a >[`BENCH_CHECK_TOLERANCE_PCT`]% mean
/// slowdown in any of these fails `bench-check`. Other groups appear in
/// the trajectory table for information only (they cover workloads whose
/// wall time is dominated by process spawns or the sampling floor).
const BENCH_CHECK_GROUPS: &[&str] = &[
    "check_corpus",
    "service_throughput",
    "persistent_cache",
    "telemetry_overhead",
];

/// Mean-regression tolerance, in percent over the baseline mean.
const BENCH_CHECK_TOLERANCE_PCT: u128 = 25;

/// Reads the `"groups"` section of a `BENCH_*.json` /
/// `BENCH_BASELINE.json` artifact as `(group, mean_ns)` pairs. The files
/// are written by `bench_json`, one group object per line.
fn read_bench_groups(path: &str) -> Vec<(String, u128)> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("bench-check: failed to read {path}: {e}"));
    let mut groups = Vec::new();
    for line in text.lines() {
        let Some(start) = line.find("{\"group\": \"") else {
            continue;
        };
        let rest = &line[start + "{\"group\": \"".len()..];
        let Some(end) = rest.find('"') else { continue };
        let group = rest[..end].to_string();
        let Some(mean_at) = rest.find("\"mean_ns\": ") else {
            continue;
        };
        let digits: String = rest[mean_at + "\"mean_ns\": ".len()..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        if let Ok(mean_ns) = digits.parse() {
            groups.push((group, mean_ns));
        }
    }
    if groups.is_empty() {
        panic!("bench-check: no group records in {path}");
    }
    groups
}

/// The pure core of `bench-check`: renders the trajectory table rows and
/// collects the failures. A group in `required` fails when its fresh
/// mean exceeds the baseline mean by more than `tolerance_pct` percent,
/// or when either side lacks it; every other group is informational.
fn compare_bench_groups(
    baseline: &[(String, u128)],
    fresh: &[(String, u128)],
    required: &[&str],
    tolerance_pct: u128,
) -> (Vec<String>, Vec<String>) {
    let mut rows = Vec::new();
    let mut failures = Vec::new();
    for (group, base_mean) in baseline {
        let gated = required.contains(&group.as_str());
        let Some((_, fresh_mean)) = fresh.iter().find(|(g, _)| g == group) else {
            if gated {
                failures.push(format!("{group}: missing from the fresh run"));
            }
            rows.push(format!("| {group} | {base_mean} | — | — | missing |"));
            continue;
        };
        let delta_pct =
            (*fresh_mean as f64 - *base_mean as f64) / (*base_mean as f64).max(1.0) * 100.0;
        let regressed = *fresh_mean * 100 > *base_mean * (100 + tolerance_pct);
        let status = match (gated, regressed) {
            (true, true) => "FAIL",
            (true, false) => "ok",
            (false, _) => "info",
        };
        rows.push(format!(
            "| {group} | {base_mean} | {fresh_mean} | {delta_pct:+.1}% | {status} |"
        ));
        if gated && regressed {
            failures.push(format!(
                "{group}: mean {fresh_mean}ns vs baseline {base_mean}ns \
                 ({delta_pct:+.1}% > +{tolerance_pct}%)"
            ));
        }
    }
    for group in required {
        if !baseline.iter().any(|(g, _)| g == group) {
            failures.push(format!("{group}: missing from the baseline"));
            rows.push(format!("| {group} | — | — | — | missing |"));
        }
    }
    (rows, failures)
}

/// Compares a fresh bench artifact (the argument, or the newest
/// `BENCH_*.json` in the workspace root) against `BENCH_BASELINE.json`,
/// prints the trajectory table (and appends it to the GitHub job summary
/// when `GITHUB_STEP_SUMMARY` is set), and exits nonzero on any gated
/// regression.
fn bench_check(fresh_path: Option<String>) {
    let fresh_path = fresh_path.unwrap_or_else(|| {
        let mut candidates: Vec<String> = std::fs::read_dir(".")
            .expect("read workspace root")
            .filter_map(|entry| entry.ok())
            .filter_map(|entry| entry.file_name().into_string().ok())
            .filter(|name| {
                name.starts_with("BENCH_")
                    && name.ends_with(".json")
                    && name != "BENCH_BASELINE.json"
            })
            .collect();
        candidates.sort();
        candidates.pop().unwrap_or_else(|| {
            eprintln!(
                "bench-check: no BENCH_<date>.json found (run `cargo xtask bench-json` first)"
            );
            exit(2);
        })
    });
    eprintln!("xtask> bench-check {fresh_path} vs BENCH_BASELINE.json");
    let baseline = read_bench_groups("BENCH_BASELINE.json");
    let fresh = read_bench_groups(&fresh_path);
    let (rows, failures) = compare_bench_groups(
        &baseline,
        &fresh,
        BENCH_CHECK_GROUPS,
        BENCH_CHECK_TOLERANCE_PCT,
    );

    let mut table = String::from("## Bench trajectory\n\n");
    table.push_str(&format!(
        "Baseline `BENCH_BASELINE.json` vs `{fresh_path}` \
         (gate: >{BENCH_CHECK_TOLERANCE_PCT}% mean regression in {})\n\n",
        BENCH_CHECK_GROUPS.join(", ")
    ));
    table.push_str("| group | baseline mean_ns | fresh mean_ns | delta | status |\n");
    table.push_str("|---|---:|---:|---:|---|\n");
    for row in &rows {
        table.push_str(row);
        table.push('\n');
    }
    println!("{table}");
    if let Ok(summary) = env::var("GITHUB_STEP_SUMMARY") {
        use std::io::Write;
        if let Ok(mut file) = std::fs::OpenOptions::new().append(true).open(&summary) {
            let _ = writeln!(file, "{table}");
        }
    }

    if failures.is_empty() {
        eprintln!("bench-check: all gated groups within tolerance");
    } else {
        for failure in &failures {
            eprintln!("bench-check: REGRESSION {failure}");
        }
        exit(1);
    }
}

fn main() {
    let task = env::args().nth(1).unwrap_or_default();
    match task.as_str() {
        "ci" => ci(),
        "verify" => run(VERIFY),
        "bench-json" => bench_json(),
        "bench-check" => bench_check(env::args().nth(2)),
        _ => {
            eprintln!("usage: cargo xtask <ci|verify|bench-json|bench-check>");
            eprintln!(
                "  ci          fmt + clippy + build --release --workspace + doc + test (4 schedules, the default one under a fresh TMPDIR that must stay free of relaxed-* files) + examples + cache-persistence + edit-reverify + trace-smoke + service corpus (with the release fault-tolerance suite) jobs + bench --no-run"
            );
            eprintln!("  verify      the ROADMAP tier-1 gate: build --release && test -q");
            eprintln!(
                "  bench-json  run the bench harness and write BENCH_<date>.json (perf trajectory; BENCH_DATE=YYYY-MM-DD overrides the stamp)"
            );
            eprintln!(
                "  bench-check compare BENCH_<date>.json (arg or newest) against BENCH_BASELINE.json; fail on >25% gated mean regression"
            );
            exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn groups(pairs: &[(&str, u128)]) -> Vec<(String, u128)> {
        pairs.iter().map(|(g, m)| (g.to_string(), *m)).collect()
    }

    /// The red path the gate exists for: a 2x slowdown in a gated group
    /// must fail, and the table row must say so.
    #[test]
    fn doubled_mean_in_a_gated_group_fails() {
        let baseline = groups(&[("check_corpus", 1_000_000), ("smt", 500)]);
        let fresh = groups(&[("check_corpus", 2_000_000), ("smt", 500)]);
        let (rows, failures) = compare_bench_groups(&baseline, &fresh, &["check_corpus"], 25);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("check_corpus"), "{failures:?}");
        assert!(failures[0].contains("+100.0%"), "{failures:?}");
        assert!(rows.iter().any(|r| r.contains("FAIL")), "{rows:?}");
    }

    /// Within tolerance (and any drift in ungated groups) passes.
    #[test]
    fn tolerated_drift_and_ungated_groups_pass() {
        let baseline = groups(&[("check_corpus", 1_000_000), ("smt", 500)]);
        // +20% gated (under the 25% gate), 10x ungated.
        let fresh = groups(&[("check_corpus", 1_200_000), ("smt", 5_000)]);
        let (rows, failures) = compare_bench_groups(&baseline, &fresh, &["check_corpus"], 25);
        assert!(failures.is_empty(), "{failures:?}");
        assert!(rows.iter().any(|r| r.contains("| ok |")), "{rows:?}");
        assert!(rows.iter().any(|r| r.contains("| info |")), "{rows:?}");
    }

    /// A gated group missing from either artifact is a failure, never a
    /// silent pass.
    #[test]
    fn missing_gated_groups_fail() {
        let both = groups(&[("check_corpus", 1_000)]);
        let empty = groups(&[("smt", 1)]);
        let (_, failures) = compare_bench_groups(&both, &empty, &["check_corpus"], 25);
        assert_eq!(failures.len(), 1, "{failures:?}");
        let (_, failures) = compare_bench_groups(&empty, &both, &["check_corpus"], 25);
        assert_eq!(failures.len(), 1, "{failures:?}");
    }

    /// Exactly-at-threshold is not a regression (the gate is strict-`>`).
    #[test]
    fn exactly_at_threshold_passes() {
        let baseline = groups(&[("check_corpus", 100)]);
        let fresh = groups(&[("check_corpus", 125)]);
        let (_, failures) = compare_bench_groups(&baseline, &fresh, &["check_corpus"], 25);
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn bench_date_shape_check() {
        assert!(is_iso_date("2026-08-08"));
        assert!(!is_iso_date("2026-8-8"));
        assert!(!is_iso_date("yesterday"));
        assert!(!is_iso_date("2026-08-08T00:00:00Z"));
    }
}
