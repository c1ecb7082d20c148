//! Criterion benchmarks regenerating the paper's evaluation artifacts:
//!
//! * `e1_swish_verify` / `e2_water_verify` / `e3_lu_verify` — end-to-end
//!   verification time of the three §5 case studies (the paper's analogue
//!   is Coq proof-checking of 330/310/315-line scripts);
//! * `e1_swish_execute` / `e2_water_execute` / `e3_lu_execute` — dynamic
//!   original+relaxed execution of the verified kernels on their
//!   workloads;
//! * `discharge_parallel` — the verification engine's 1-vs-N-worker
//!   discharge throughput over the combined case-study obligation set,
//!   with cache-hit rates;
//! * `check_corpus` — corpus-scale batch verification of all six
//!   case-study programs through one `Verifier` session;
//! * `telemetry_overhead` — the same cold corpus untraced (telemetry's
//!   disabled fast path, bench-check-gated) vs traced into a Chrome
//!   trace file, with a spans-per-corpus gauge;
//! * `persistent_cache` — warm corpus re-verification from the on-disk
//!   verdict store (session load + zero-solver discharge + persist);
//! * `edit_reverify` — incremental re-verification after a one-spec
//!   edit (goal-dependency-map replay of every untouched revision) vs a
//!   full warm rerun that regenerates every obligation;
//! * `service_throughput` — the networked verification service
//!   (`relaxed-serviced`): cold fleet spawn vs. warm pre-seeded-store
//!   requests, sustained requests/sec under concurrent clients, and a
//!   queue-depth gauge;
//! * `e5_tradeoff_perforation` — the §1 performance/accuracy sweep;
//! * `e6_metatheory_enumeration` — bounded model checking of a corpus
//!   program (the empirical soundness check);
//! * `smt_*` — microbenchmarks of the solver substrate.

use relaxed_bench::harness::{BenchmarkId, Criterion};
use relaxed_bench::{corpus_view, lu_state, run_pair, spec_variant_corpus, water_state};
use relaxed_bench::{criterion_group, criterion_main};
use relaxed_core::engine::{DischargeConfig, DischargeEngine};
use relaxed_core::Verifier;
use relaxed_interp::{run_all, run_relaxed, EnumConfig, ExtremalOracle, Mode};
use relaxed_lang::{parse_program, parse_stmt, State, Stmt};
use relaxed_programs::casestudies;
use relaxed_smt::ast::ITerm;
use relaxed_smt::Solver;
use relaxed_transforms::perforate_loop;

fn verification(c: &mut Criterion) {
    let mut group = c.benchmark_group("verify");
    group.sample_size(10);
    let (swish, swish_spec) = casestudies::swish();
    group.bench_function("e1_swish_verify", |b| {
        b.iter(|| {
            let report = Verifier::new().check(&swish, &swish_spec).unwrap();
            assert!(report.relaxed_progress());
        })
    });
    let (water, water_spec) = casestudies::water();
    group.bench_function("e2_water_verify", |b| {
        b.iter(|| {
            let report = Verifier::new().check(&water, &water_spec).unwrap();
            assert!(report.relaxed_progress());
        })
    });
    let (lu, lu_spec) = casestudies::lu();
    group.bench_function("e3_lu_verify", |b| {
        b.iter(|| {
            let report = Verifier::new().check(&lu, &lu_spec).unwrap();
            assert!(report.relaxed_progress());
        })
    });
    group.finish();
}

fn discharge_parallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("discharge_parallel");
    group.sample_size(10);
    // The combined ⊢o + ⊢r obligation set of all three §5 case studies —
    // the exact workload `verify_acceptability` hands the engine.
    let session = Verifier::new();
    let vcs: Vec<_> = casestudies::all()
        .into_iter()
        .flat_map(|(_, program, spec)| session.vcs(&program, &spec).unwrap())
        .collect();
    let auto = DischargeConfig::default().effective_parallelism().max(2);
    for workers in [1usize, auto] {
        group.bench_with_input(
            BenchmarkId::new("case_study_vcs", workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    // A fresh engine per iteration: this measures raw
                    // 1-vs-N discharge throughput, not cache reuse.
                    let engine =
                        DischargeEngine::with_config(DischargeConfig::with_workers(workers));
                    let report = engine.discharge(vcs.clone());
                    assert!(report.verified());
                    report
                })
            },
        );
    }
    group.finish();
    // Cache effectiveness on the same workload (reported once; dedup is
    // deterministic, so timing it adds nothing). Emitted as metrics so
    // the BENCH_<date>.json perf artifact tracks hit rates over time.
    let engine = DischargeEngine::with_config(DischargeConfig::sequential());
    let report = engine.discharge(vcs);
    eprintln!(
        "discharge_parallel: {} VCs, {} unique goals, {} cache hits, {} solver runs",
        report.len(),
        report.engine.unique_goals,
        report.engine.cache_hits,
        report.engine.cache_misses
    );
    let total = (report.engine.cache_hits + report.engine.cache_misses).max(1);
    c.report_metric(
        "discharge_parallel/cache_hit_rate",
        report.engine.cache_hits as f64 / total as f64,
    );
    c.report_metric(
        "discharge_parallel/unique_goals",
        report.engine.unique_goals as f64,
    );
}

fn corpus_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("check_corpus");
    group.sample_size(10);
    // Batch verification of the full six-program corpus (the three §5
    // case studies plus their must-fail mutations): programs fan out
    // across the session's worker budget and share its verdict cache.
    let corpus = casestudies::corpus();
    let auto = DischargeConfig::default().effective_parallelism().max(2);
    for workers in [1usize, auto] {
        group.bench_with_input(
            BenchmarkId::new("six_programs", workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    // A fresh session per iteration: this measures cold
                    // corpus throughput including cross-program reuse.
                    let verifier = Verifier::builder().workers(workers).build();
                    let report = verifier.check_corpus_named(&corpus);
                    assert_eq!(report.len(), 6);
                    report
                })
            },
        );
    }
    group.finish();
    let report = Verifier::builder()
        .workers(1)
        .build()
        .check_corpus_named(&corpus);
    eprintln!(
        "check_corpus: {} programs, {} cache hits ({} cross-program), {} solver runs",
        report.len(),
        report.engine.cache_hits,
        report.engine.cross_hits,
        report.engine.cache_misses
    );
    let total = (report.engine.cache_hits + report.engine.cache_misses).max(1);
    c.report_metric(
        "check_corpus/cache_hit_rate",
        report.engine.cache_hits as f64 / total as f64,
    );
    c.report_metric(
        "check_corpus/cross_program_hits",
        report.engine.cross_hits as f64,
    );
}

fn telemetry_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_overhead");
    group.sample_size(10);
    let corpus = casestudies::corpus();
    // The disabled fast path: no trace file configured, so every
    // instrumentation point is one relaxed atomic load. This benchmark
    // is in the bench-check gate, pinning the disabled-path cost of the
    // telemetry layer against the committed baseline.
    group.bench_function("untraced_corpus", |b| {
        b.iter(|| {
            let verifier = Verifier::builder().workers(1).build();
            let report = verifier.check_corpus_named(&corpus);
            assert_eq!(report.len(), 6);
            report
        })
    });
    // The same cold workload with span collection on: each iteration's
    // session owns the trace file, so its drop writes and resets the
    // sink (the write is part of the measured traced cost).
    let path =
        std::env::temp_dir().join(format!("relaxed-bench-trace-{}.json", std::process::id()));
    group.bench_function("traced_corpus", |b| {
        b.iter(|| {
            let verifier = Verifier::builder().workers(1).trace_file(&path).build();
            let report = verifier.check_corpus_named(&corpus);
            assert_eq!(report.len(), 6);
            report
        })
    });
    group.finish();
    // Span-count gauge: how many events one cold traced corpus run
    // records (a collapsing count flags instrumentation silently lost).
    let session = Verifier::builder().workers(1).trace_file(&path).build();
    session.check_corpus_named(&corpus);
    let spans = relaxed_core::telemetry::snapshot().len();
    drop(session);
    let _ = std::fs::remove_file(&path);
    eprintln!("telemetry_overhead: {spans} spans per cold corpus run");
    c.report_metric("telemetry_overhead/spans_per_corpus", spans as f64);
}

fn persistent_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("persistent_cache");
    group.sample_size(10);
    let corpus = casestudies::corpus();
    let path = std::env::temp_dir().join(format!(
        "relaxed-bench-verdicts-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    // Seed the on-disk store once; the benchmark then measures the full
    // warm path — session build (load + fingerprint check), corpus
    // discharge from disk verdicts, and the drop-time persist.
    let seed = Verifier::builder().workers(1).cache_file(&path).build();
    seed.check_corpus_named(&corpus);
    seed.persist().unwrap();
    drop(seed);
    group.bench_function("warm_corpus_from_disk", |b| {
        b.iter(|| {
            let session = Verifier::builder().workers(1).cache_file(&path).build();
            let report = session.check_corpus_named(&corpus);
            assert_eq!(report.engine.cache_misses, 0, "warm run must not solve");
            report
        })
    });
    group.finish();
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(relaxed_core::depmap::depmap_path(&path));
}

fn edit_reverify(c: &mut Criterion) {
    use relaxed_lang::parse_formula;
    use std::sync::atomic::{AtomicU64, Ordering};
    let mut group = c.benchmark_group("edit_reverify");
    group.sample_size(10);
    // A 73-revision corpus (24 spec variants of the three verified case
    // studies plus one small knob program) seeded into a persistent
    // store with its goal dependency map, then re-verified after a
    // one-spec edit to the knob program. The incremental path replays
    // every untouched revision from the store and re-proves only the
    // goals the edit dirtied; the full warm rerun (an in-memory session
    // warmed by one pass) regenerates and re-encodes every obligation
    // before its cache answers it. Each iteration applies a *fresh* edit
    // (a distinct conjunct), so the edited goals are never pre-cached;
    // sessions are built outside the timed body — this measures
    // re-verify latency against a loaded cache, not disk-load time.
    let mut corpus = spec_variant_corpus(24);
    corpus.push((
        "knob".to_string(),
        parse_program("x = 0; relax (x) st (0 <= x && x <= 2); relate l1 : x<o> <= x<r>;")
            .expect("knob program parses"),
        relaxed_core::Spec {
            pre: parse_formula("true").unwrap(),
            post: parse_formula("true").unwrap(),
            rel_pre: relaxed_lang::parse_rel_formula("x<o> == x<r>").unwrap(),
            rel_post: relaxed_lang::parse_rel_formula("true").unwrap(),
        },
    ));
    let path = std::env::temp_dir().join(format!(
        "relaxed-bench-edit-reverify-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(relaxed_core::depmap::depmap_path(&path));
    let session = || Verifier::builder().workers(1).cache_file(&path).build();
    let seed = session();
    seed.check_corpus_named(&corpus_view(&corpus));
    seed.persist().unwrap();
    drop(seed);

    let edits = AtomicU64::new(0);
    let knob = corpus.len() - 1;
    // One clone pass per iteration (the borrowed-view shape the API
    // takes), with a fresh knob precondition spliced in.
    let edited_view = |j: u64| {
        let mut view = corpus_view(&corpus);
        view[knob].2.pre = parse_formula(&format!("({}) && edit{j} >= 0", corpus[knob].2.pre))
            .expect("edited precondition parses");
        view
    };
    // One resident session per leg, shared across samples: this
    // measures steady-state re-verify latency, not store/sidecar loads
    // (the harness re-enters the outer closure once per sample).
    let incremental = session();
    group.bench_function("one_spec_edit_incremental", |b| {
        b.iter(|| {
            let edited = edited_view(edits.fetch_add(1, Ordering::Relaxed));
            let report = incremental.check_corpus_named(&edited);
            assert!(report.engine.cache_misses >= 1, "the dirty goal is solved");
            report
        })
    });
    drop(incremental);
    // In memory: a persistent session would record the dependency map on
    // its first sample and replay from then on.
    let full_warm = Verifier::builder().workers(1).build();
    full_warm.check_corpus_named(&corpus_view(&corpus));
    group.bench_function("one_spec_edit_full_warm", |b| {
        b.iter(|| {
            let edited = edited_view(edits.fetch_add(1, Ordering::Relaxed));
            let report = full_warm.check_corpus_named(&edited);
            assert!(report.engine.cache_misses >= 1, "the dirty goal is solved");
            report
        })
    });
    drop(full_warm);
    group.finish();
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(relaxed_core::depmap::depmap_path(&path));
}

fn service_throughput(c: &mut Criterion) {
    use relaxed_core::service::{service_status, shutdown_service};
    use relaxed_core::{Service, ServiceOptions};
    // The networked service (`relaxed-serviced` in-process): the same
    // six-program corpus submitted over TCP, cold (fleet spawn + solve
    // from scratch, per iteration) vs. warm (a long-lived daemon with a
    // pre-seeded verdict store), plus sustained requests/sec
    // and a queue-depth gauge under concurrent clients.
    let corpus = casestudies::corpus();
    let worker = relaxed_core::shard::locate_worker()
        .expect("relaxed-shardd must be built (cargo bench builds the workspace bins)");
    let fleet = DischargeConfig::default()
        .effective_parallelism()
        .clamp(2, corpus.len());
    let bind = |cache: Option<&std::path::Path>| {
        let mut builder = Verifier::builder().workers(1).shard_worker(&worker);
        if let Some(path) = cache {
            builder = builder.cache_file(path);
        }
        let service = Service::bind(ServiceOptions {
            fleet,
            config: builder.build().config().clone(),
            ..ServiceOptions::default()
        })
        .expect("failed to bind the bench service daemon");
        let addr = service.local_addr();
        (addr, std::thread::spawn(move || service.run()))
    };
    let client = |addr: &str| Verifier::builder().workers(1).service(addr).build();
    let stop = |addr: &str, daemon: std::thread::JoinHandle<u64>| {
        shutdown_service(addr, std::time::Duration::from_secs(60)).expect("graceful drain");
        daemon.join().expect("daemon thread");
    };

    let mut group = c.benchmark_group("service_throughput");
    group.sample_size(10);
    group.bench_function("cold_daemon_six_programs", |b| {
        b.iter(|| {
            let (addr, daemon) = bind(None);
            let report = client(&addr).check_corpus_named(&corpus);
            assert_eq!(report.len(), 6);
            stop(&addr, daemon);
            report
        })
    });
    // Seed the store once; the warm daemon's workers then answer every
    // request from their cached or on-disk verdicts without solving.
    let path = std::env::temp_dir().join(format!(
        "relaxed-bench-service-verdicts-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let seed = Verifier::builder().workers(1).cache_file(&path).build();
    seed.check_corpus_named(&corpus);
    seed.persist().unwrap();
    drop(seed);
    let (addr, daemon) = bind(Some(&path));
    group.bench_function("warm_resident_six_programs", |b| {
        b.iter(|| {
            let report = client(&addr).check_corpus_named(&corpus);
            assert_eq!(report.engine.cache_misses, 0, "warm service must not solve");
            report
        })
    });
    group.finish();

    // Sustained throughput: hammer the still-warm daemon from concurrent
    // clients, then read the lifetime gauges back off the status frame.
    const CLIENTS: usize = 4;
    let started = std::time::Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            let addr = addr.clone();
            let corpus = &corpus;
            scope.spawn(move || {
                let report = client(&addr).check_corpus_named(corpus);
                assert_eq!(report.engine.cache_misses, 0, "warm service must not solve");
            });
        }
    });
    let elapsed = started.elapsed();
    let requests = (CLIENTS * corpus.len()) as f64;
    let status = service_status(&addr, std::time::Duration::from_secs(10)).expect("status");
    stop(&addr, daemon);
    eprintln!(
        "service_throughput: {CLIENTS} warm clients sustained {:.1} requests/sec \
         (fleet={fleet}, peak queue depth {})",
        requests / elapsed.as_secs_f64(),
        status.peak_active
    );
    c.report_metric(
        "service_throughput/warm_requests_per_sec",
        requests / elapsed.as_secs_f64(),
    );
    c.report_metric(
        "service_throughput/peak_queue_depth",
        status.peak_active as f64,
    );
    c.report_metric("service_throughput/fleet", fleet as f64);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(relaxed_core::depmap::depmap_path(&path));
}

fn execution(c: &mut Criterion) {
    let mut group = c.benchmark_group("execute");
    let (swish, _) = casestudies::swish();
    for n in [10i64, 100, 1000] {
        group.bench_with_input(BenchmarkId::new("e1_swish_execute", n), &n, |b, &n| {
            let sigma = State::from_ints([("max_r", 40), ("N", n), ("num_r", 0)]);
            b.iter(|| run_pair(&swish, sigma.clone(), 7, 0, 100, "num_r"))
        });
    }
    let (water, _) = casestudies::water();
    for n in [16i64, 64, 256] {
        group.bench_with_input(BenchmarkId::new("e2_water_execute", n), &n, |b, &n| {
            let sigma = water_state(n);
            b.iter(|| run_pair(&water, sigma.clone(), 11, 0, 99, "K"))
        });
    }
    let (lu, _) = casestudies::lu();
    for n in [16i64, 64, 128] {
        group.bench_with_input(BenchmarkId::new("e3_lu_execute", n), &n, |b, &n| {
            let sigma = lu_state(n, 2);
            b.iter(|| run_pair(&lu, sigma.clone(), 13, -200, 200, "max"))
        });
    }
    group.finish();
}

fn tradeoff(c: &mut Criterion) {
    let mut group = c.benchmark_group("e5_tradeoff");
    let header = parse_stmt("i = 0; s = 0; n = 240;").unwrap();
    let work = parse_stmt("while (i < n) { s = s + i; i = i + 1; }").unwrap();
    for stride in [1i64, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("perforation", stride),
            &stride,
            |b, &stride| {
                let program = Stmt::seq([header.clone(), perforate_loop(&work, stride)]);
                b.iter(|| {
                    let mut oracle = ExtremalOracle::maximizing();
                    run_relaxed(&program, State::new(), &mut oracle, 1_000_000)
                })
            },
        );
    }
    group.finish();
}

fn metatheory(c: &mut Criterion) {
    let mut group = c.benchmark_group("e6_metatheory");
    group.sample_size(10);
    let program = parse_program(
        "x0 = x;
         relax (x) st (x0 <= x && x <= x0 + 2);
         assert x >= x0;
         relate drift : x<o> <= x<r> && x<r> - x<o> <= 2;",
    )
    .unwrap();
    group.bench_function("enumerate_all_executions", |b| {
        let config = EnumConfig {
            lo: -3,
            hi: 3,
            fuel: 10_000,
            max_outcomes: 100_000,
        };
        b.iter(|| {
            let o = run_all(
                program.body(),
                State::from_ints([("x", 0)]),
                Mode::Original,
                config,
            );
            let r = run_all(
                program.body(),
                State::from_ints([("x", 0)]),
                Mode::Relaxed,
                config,
            );
            assert!(!o.outcomes.iter().any(|x| x.is_err()));
            assert!(!r.outcomes.iter().any(|x| x.is_err()));
        })
    });
    group.finish();
}

fn smt_micro(c: &mut Criterion) {
    let mut group = c.benchmark_group("smt");
    group.bench_function("lia_valid_transitive_chain", |b| {
        // x1 ≤ x2 ≤ … ≤ x8 ⇒ x1 ≤ x8
        let mut hyp = relaxed_smt::BTerm::True;
        for i in 1..8 {
            hyp = hyp.and(ITerm::var(format!("x{i}")).le(ITerm::var(format!("x{}", i + 1))));
        }
        let goal = hyp.implies(ITerm::var("x1").le(ITerm::var("x8")));
        b.iter(|| {
            assert!(Solver::new().check_valid(&goal).is_valid());
        })
    });
    group.bench_function("lia_unsat_integer_cut", |b| {
        // 2x == 2y + 1 is integer-infeasible.
        let phi = ITerm::Const(2)
            .mul(ITerm::var("x"))
            .eq_term(ITerm::Const(2).mul(ITerm::var("y")).add(ITerm::Const(1)))
            .and(ITerm::var("x").ge(ITerm::Const(-50)))
            .and(ITerm::var("x").le(ITerm::Const(50)));
        b.iter(|| {
            assert_eq!(Solver::new().check_sat(&phi), relaxed_smt::SmtResult::Unsat);
        })
    });
    group.bench_function("quantified_havoc_vc", |b| {
        // The shape the WP calculus emits for bounded havoc.
        let v = ITerm::var("v");
        let pred = ITerm::var("lo")
            .le(v.clone())
            .and(v.clone().le(ITerm::var("hi")));
        let vc = pred.clone().implies(v.ge(ITerm::var("lo"))).forall("v");
        b.iter(|| {
            assert!(Solver::new().check_valid(&vc).is_valid());
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    verification,
    discharge_parallel,
    corpus_batch,
    telemetry_overhead,
    persistent_cache,
    edit_reverify,
    service_throughput,
    execution,
    tradeoff,
    metatheory,
    smt_micro
);
criterion_main!(benches);
