//! Measures this reproduction against the paper and prints the results
//! as markdown tables on stdout: the §5 case studies verified (E1–E3)
//! and checked dynamically, the perforation trade-off (E5), the
//! implementation size (E4), and the verifier's own machinery: the
//! discharge engine (E7), corpus checks (E8), the persistent verdict
//! store (E9), the prefilter (E12), the service daemon (E13) and
//! incremental re-verification after a spec edit (E14). The README
//! quotes these sections by number.
//!
//! Run with: `cargo run -p relaxed-bench --bin paper_report --release`

use relaxed_bench::{lu_state, run_pair, water_state};
use relaxed_core::engine::{DischargeConfig, DischargeEngine};
use relaxed_core::{Stage, Verifier};
use relaxed_interp::{run_original, run_relaxed, ExtremalOracle, IdentityOracle};
use relaxed_lang::{parse_stmt, State, Stmt, Var};
use relaxed_programs::casestudies;
use relaxed_transforms::perforate_loop;
use std::time::Instant;

fn main() {
    println!("# paper_report — reproduction of the PLDI 2012 evaluation artifacts\n");

    // ---- E1/E2/E3: the §5 case studies ----
    println!("## E1–E3: verified case studies (§5)\n");
    println!("| exp | case study | paper proof effort | our annotations | VCs | verified | time |");
    println!("|---|---|---|---|---|---|---|");
    let cases = [
        (
            "E1",
            "Swish++ dynamic knobs (§5.1)",
            "330 Coq lines",
            "1 inv + 1 diverge",
            casestudies::swish(),
        ),
        (
            "E2",
            "Water sync. elimination (§5.2)",
            "310 Coq lines",
            "2 inv + 1 diverge",
            casestudies::water(),
        ),
        (
            "E3",
            "LU approximate memory (§5.3)",
            "315 Coq lines",
            "2 invariants",
            casestudies::lu(),
        ),
    ];
    for (id, name, paper, ours, (program, spec)) in cases {
        let t = Instant::now();
        let report = Verifier::new().check(&program, &spec).unwrap();
        println!(
            "| {id} | {name} | {paper} | {ours} | {} | {} | {:.0?} |",
            report.total_vcs(),
            report.relaxed_progress(),
            t.elapsed(),
        );
        assert!(report.relaxed_progress());
    }
    println!("\nMutation controls (must fail):\n");
    println!("| variant | ⊢o | ⊢r |");
    println!("|---|---|---|");
    for (name, (program, spec)) in [
        ("swish floor-5 knob", casestudies::swish_broken()),
        ("water relaxed K", casestudies::water_broken()),
        ("lu 2e perturbation", casestudies::lu_broken()),
    ] {
        let report = Verifier::new().check(&program, &spec).unwrap();
        println!(
            "| {name} | {} | {} |",
            report.original_progress(),
            report.relative_relaxed_progress()
        );
        assert!(!report.relaxed_progress());
    }

    // ---- E1 dynamic sweep ----
    println!("\n## E1 dynamic sweep: results presented (adversarial knob)\n");
    println!("| max_r | N | num_r original | num_r relaxed | relate |");
    println!("|---|---|---|---|---|");
    let (swish, _) = casestudies::swish();
    for (max_r, n) in [(3i64, 100i64), (25, 100), (100, 8), (1000, 1000)] {
        let sigma = State::from_ints([("max_r", max_r), ("N", n), ("num_r", 0)]);
        let o = run_original(swish.body(), sigma.clone(), &mut IdentityOracle, 1 << 26);
        let mut adv = ExtremalOracle::minimizing();
        let r = run_relaxed(swish.body(), sigma, &mut adv, 1 << 26);
        let no = o.state().unwrap().get_int(&Var::new("num_r")).unwrap();
        let nr = r.state().unwrap().get_int(&Var::new("num_r")).unwrap();
        let ok = (no < 10 && no == nr) || (no >= 10 && nr >= 10);
        println!("| {max_r} | {n} | {no} | {nr} | {ok} |");
        assert!(ok);
    }

    // ---- E2 dynamic ----
    println!("\n## E2 dynamic: no assumption violations under racing schedules\n");
    println!("| N | original | relaxed |");
    println!("|---|---|---|");
    let (water, _) = casestudies::water();
    for n in [16i64, 64, 256] {
        let (ko, kr) = run_pair(&water, water_state(n), 3, 0, 99, "K");
        println!("| {n} | K={ko}, no err | K={kr}, no ba/wr |");
    }

    // ---- E3 dynamic ----
    println!("\n## E3 dynamic: pivot error vs verified Lipschitz bound\n");
    println!("| N | e | max original | max relaxed | |Δ| |");
    println!("|---|---|---|---|---|");
    let (lu, _) = casestudies::lu();
    for n in [16i64, 64, 128] {
        for e in [0i64, 2, 8] {
            let (mo, mr) = run_pair(&lu, lu_state(n, e), 5, -200, 200, "max");
            let d = (mo - mr).abs();
            println!("| {n} | {e} | {mo} | {mr} | {d} ≤ {e} |");
            assert!(d <= e);
        }
    }

    // ---- E5 tradeoff ----
    println!("\n## E5: performance vs accuracy trade-off (loop perforation, §1)\n");
    println!("| stride | iterations | result | error % |");
    println!("|---|---|---|---|");
    let header = parse_stmt("i = 0; s = 0; n = 240;").unwrap();
    let work = parse_stmt("while (i < n) { s = s + i; iters = iters + 1; i = i + 1; }").unwrap();
    let exact = {
        let p = Stmt::seq([header.clone(), work.clone()]);
        run_original(
            &p,
            State::from_ints([("iters", 0)]),
            &mut IdentityOracle,
            1 << 26,
        )
        .state()
        .unwrap()
        .get_int(&Var::new("s"))
        .unwrap()
    };
    for stride in [1i64, 2, 4, 8] {
        let p = Stmt::seq([header.clone(), perforate_loop(&work, stride)]);
        let mut adv = ExtremalOracle::maximizing();
        let out = run_relaxed(&p, State::from_ints([("iters", 0)]), &mut adv, 1 << 26);
        let st = out.state().unwrap();
        let s = st.get_int(&Var::new("s")).unwrap();
        let iters = st.get_int(&Var::new("iters")).unwrap();
        println!(
            "| {stride} | {iters} | {s} | {:.1} |",
            (exact - s).abs() as f64 / exact as f64 * 100.0
        );
    }

    // ---- E7 discharge engine ----
    println!("\n## E7: parallel deduplicating VC discharge engine\n");
    // At least two workers so the scoped-thread path is exercised even on
    // a single-core host (where the speedup column degenerates to ~1x).
    let workers = DischargeConfig::default().effective_parallelism().max(2);
    println!("| case study | VCs | unique goals | cache hits | cross-stage hits | 1 worker | {workers} workers | speedup |");
    println!("|---|---|---|---|---|---|---|---|");
    let mut total_cross_stage = 0u64;
    for (name, program, spec) in casestudies::all() {
        // Shared session: the ⊢r stage sees the ⊢o stage's verdicts.
        let shared = Verifier::builder().workers(1).build();
        let t1 = Instant::now();
        let report = shared.check(&program, &spec).unwrap();
        let sequential = t1.elapsed();
        assert!(report.relaxed_progress());
        // Isolated ⊢r discharge: its cache hits are purely intra-stage,
        // so the difference is the cross-stage reuse.
        let isolated = Verifier::builder()
            .workers(1)
            .build()
            .stage(Stage::Relaxed)
            .check(&program, &spec)
            .unwrap();
        let cross_stage = report.relaxed.engine.cache_hits - isolated.engine.cache_hits;
        total_cross_stage += cross_stage;

        let t2 = Instant::now();
        let parallel = Verifier::builder()
            .workers(workers)
            .build()
            .check(&program, &spec)
            .unwrap();
        let parallel_time = t2.elapsed();
        // Determinism: scheduling must not change a single verdict.
        for (a, b) in report
            .original
            .results
            .iter()
            .chain(&report.relaxed.results)
            .zip(
                parallel
                    .original
                    .results
                    .iter()
                    .chain(&parallel.relaxed.results),
            )
        {
            assert_eq!(
                a.verdict, b.verdict,
                "{name}: verdict differs under parallelism"
            );
        }
        println!(
            "| {name} | {} | {} | {} | {cross_stage} | {sequential:.1?} | {parallel_time:.1?} | {:.2}x |",
            report.total_vcs(),
            report.engine.unique_goals,
            report.engine.cache_hits,
            sequential.as_secs_f64() / parallel_time.as_secs_f64().max(1e-9),
        );
    }
    println!("\ncross-stage cache hits (⊢o verdicts reused by ⊢r diverge sub-proofs): {total_cross_stage}");
    assert!(
        total_cross_stage > 0,
        "the staged pipeline must reuse at least one verdict across stages"
    );
    // ⊢o alone on a shared engine, then again: the second pass must be
    // answered entirely from cache.
    let (swish, swish_spec) = casestudies::swish();
    let warm = Verifier::builder().workers(1).build();
    let t_cold = Instant::now();
    let first = warm
        .stage(Stage::Original)
        .check(&swish, &swish_spec)
        .unwrap();
    let cold = t_cold.elapsed();
    let t_warm = Instant::now();
    let second = warm
        .stage(Stage::Original)
        .check(&swish, &swish_spec)
        .unwrap();
    let warm_time = t_warm.elapsed();
    // The cache win is asserted structurally (zero solver runs); the
    // timings are informational — a wall-clock assert would be flaky on
    // loaded hosts.
    assert_eq!(second.engine.cache_misses, 0);
    println!(
        "warm-cache revalidation: {} goals — cold {cold:.1?} ({} solver runs), warm {warm_time:.1?} ({} solver runs, {:.0}x faster)",
        first.len(),
        first.engine.cache_misses,
        second.engine.cache_misses,
        cold.as_secs_f64() / warm_time.as_secs_f64().max(1e-9)
    );

    // ---- E8 corpus-scale batch verification ----
    println!("\n## E8: corpus-scale batch verification (`Verifier::check_corpus`)\n");
    let corpus = casestudies::corpus();
    let verifier = Verifier::new();
    let t_corpus = Instant::now();
    let corpus_report = verifier.check_corpus_named(&corpus);
    let corpus_time = t_corpus.elapsed();
    println!("```json");
    print!("{}", corpus_report.to_json());
    println!("```");
    println!(
        "\n{} programs in {corpus_time:.1?} across {} workers; {} verdicts reused across programs",
        corpus_report.len(),
        corpus_report.engine.workers,
        corpus_report.cross_program_hits()
    );
    for entry in &corpus_report.entries {
        assert_eq!(
            entry.verified(),
            !entry.name.ends_with("_broken"),
            "{}",
            entry.name
        );
    }
    // Warm revalidation of the whole corpus: deterministic under any
    // fan-out — every verdict is served from the session cache, across
    // program (owner) boundaries.
    let t_warm_corpus = Instant::now();
    let warm_corpus = verifier.check_corpus_named(&corpus);
    assert_eq!(warm_corpus.engine.cache_misses, 0);
    assert!(
        warm_corpus.cross_program_hits() > 0,
        "batch verification must reuse verdicts across corpus programs"
    );
    println!(
        "warm corpus revalidation: {} verdicts from cache in {:.1?}",
        warm_corpus.engine.cache_hits,
        t_warm_corpus.elapsed()
    );

    // ---- E9 persistent on-disk verdict cache ----
    println!("\n## E9: persistent on-disk verdict cache (`CachePolicy::Persistent`)\n");
    let cache_path = std::env::temp_dir().join(format!(
        "relaxed-paper-report-{}.verdicts.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&cache_path);
    println!("| run | loaded | solver runs | disk hits | persisted | time |");
    println!("|---|---|---|---|---|---|");

    // Cold: nothing on disk, every goal solved, cache persisted.
    let cold_session = Verifier::builder()
        .workers(1)
        .cache_file(&cache_path)
        .build();
    let t_cold = Instant::now();
    let cold_corpus = cold_session.check_corpus_named(&corpus);
    let cold_elapsed = t_cold.elapsed();
    let persisted = cold_session.persist().unwrap();
    println!(
        "| cold | 0 | {} | {} | {persisted} | {cold_elapsed:.1?} |",
        cold_corpus.engine.cache_misses, cold_corpus.engine.disk_hits
    );
    assert_eq!(cold_corpus.engine.disk_hits, 0);
    drop(cold_session);

    // Warm: a fresh process-equivalent session reloads the store and
    // discharges the whole corpus without a single solver invocation.
    let warm_session = Verifier::builder()
        .workers(1)
        .cache_file(&cache_path)
        .build();
    let loaded = warm_session.stats().loaded;
    let t_warm = Instant::now();
    let warm_corpus_disk = warm_session.check_corpus_named(&corpus);
    let warm_elapsed = t_warm.elapsed();
    // The `persisted` cells are `persist()`'s return values. The warm
    // session solves nothing new, so its drop-time flush writes nothing
    // and its cell is 0, not the cold run's count.
    println!(
        "| warm | {loaded} | {} | {} | 0 | {warm_elapsed:.1?} |",
        warm_corpus_disk.engine.cache_misses, warm_corpus_disk.engine.disk_hits,
    );
    assert_eq!(loaded, persisted);
    assert!(warm_corpus_disk.engine.disk_hits >= 1);
    assert_eq!(
        warm_corpus_disk.engine.cache_misses, 0,
        "warm rerun must not re-solve previously-proved goals"
    );
    for (a, b) in cold_corpus.entries.iter().zip(&warm_corpus_disk.entries) {
        assert_eq!(
            a.verified(),
            b.verified(),
            "{}: warm verdict drifted",
            a.name
        );
    }

    // Fingerprint mismatch: a changed solver budget invalidates the
    // store instead of replaying verdicts it can no longer vouch for.
    let mismatch_session = Verifier::builder()
        .workers(1)
        .max_conflicts(relaxed_core::Config::default().max_conflicts + 1)
        .cache_file(&cache_path)
        .build();
    let t_mismatch = Instant::now();
    let mismatch_corpus = mismatch_session.check_corpus_named(&corpus);
    let mismatch_elapsed = t_mismatch.elapsed();
    println!(
        "| budget changed | {} | {} | {} | — | {mismatch_elapsed:.1?} |",
        mismatch_session.stats().loaded,
        mismatch_corpus.engine.cache_misses,
        mismatch_corpus.engine.disk_hits
    );
    assert_eq!(mismatch_session.stats().loaded, 0);
    assert_eq!(
        mismatch_corpus.engine.disk_hits, 0,
        "a fingerprint mismatch must start cold"
    );
    println!(
        "\nwarm speedup over cold: {:.0}x (structural, not wall-clock-asserted)",
        cold_elapsed.as_secs_f64() / warm_elapsed.as_secs_f64().max(1e-9)
    );
    // Drop every session with a handle on the store before removing it —
    // a later drop would re-persist and leak the file into the temp dir.
    drop(warm_session);
    drop(mismatch_session);
    let _ = std::fs::remove_file(&cache_path);

    // ---- E12 goal-level static analysis layer ----
    println!("\n## E12: goal-level static analysis (prefilter)\n");
    let vc_session = Verifier::new();
    let corpus_vcs: Vec<_> = corpus
        .iter()
        .flat_map(|(_, program, spec)| vc_session.vcs(program, spec).unwrap())
        .collect();
    let report = DischargeEngine::with_config(DischargeConfig::sequential()).discharge(corpus_vcs);
    assert!(
        report.engine.static_hits >= 1,
        "the corpus has statically provable goals"
    );
    println!(
        "{} of {} distinct corpus goals proved by the interval/difference-bound prefilter with zero solver work; {} solver queries",
        report.engine.static_hits,
        report.engine.cache_misses,
        report.stats.queries,
    );

    // ---- E13 networked verification service ----
    println!("\n## E13: networked verification service (`relaxed-serviced`)\n");
    println!(
        "The six-program corpus submitted to an in-process service daemon \
         over TCP: a warm `relaxed-shardd` fleet behind a bounded admission \
         queue, every worker on the one persistent verdict store. Every service \
         report is asserted verdict-identical to the in-process baseline \
         (`CorpusReport::verdicts_match`); wall-clock and requests/sec are \
         measured, not asserted.\n"
    );
    let service_cache = std::env::temp_dir().join(format!(
        "relaxed-paper-report-{}.service.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&service_cache);
    let worker = relaxed_core::shard::locate_worker()
        .expect("relaxed-shardd must be built next to paper_report (cargo build -p relaxed-bench)");
    let fleet = DischargeConfig::default()
        .effective_parallelism()
        .clamp(2, corpus.len());
    // In-process cold baseline (sequential), for scale.
    let t_base = Instant::now();
    let baseline = Verifier::builder()
        .workers(1)
        .build()
        .check_corpus_named(&corpus);
    let base_elapsed = t_base.elapsed();
    let service = relaxed_core::Service::bind(relaxed_core::ServiceOptions {
        fleet,
        config: Verifier::builder()
            .workers(1)
            .shard_worker(&worker)
            .cache_file(&service_cache)
            .build()
            .config()
            .clone(),
        ..relaxed_core::ServiceOptions::default()
    })
    .expect("failed to bind the report's service daemon");
    let service_addr = service.local_addr();
    let daemon = std::thread::spawn(move || service.run());
    let service_client = {
        let addr = service_addr.clone();
        move || Verifier::builder().workers(1).service(addr.clone()).build()
    };

    println!("| run | clients | solver runs | disk hits | time | requests/sec |");
    println!("|---|---|---|---|---|---|");
    println!(
        "| in-process | — | {} | {} | {base_elapsed:.1?} | {:.1} |",
        baseline.engine.cache_misses,
        baseline.engine.disk_hits,
        corpus.len() as f64 / base_elapsed.as_secs_f64()
    );

    // Cold: the daemon's store is empty, so the fleet solves everything
    // (persisting incrementally into the shared store as it goes).
    let t_cold_svc = Instant::now();
    let cold_svc = service_client().check_corpus_named(&corpus);
    let cold_svc_elapsed = t_cold_svc.elapsed();
    println!(
        "| service cold | 1 | {} | {} | {cold_svc_elapsed:.1?} | {:.1} |",
        cold_svc.engine.cache_misses,
        cold_svc.engine.disk_hits,
        corpus.len() as f64 / cold_svc_elapsed.as_secs_f64()
    );

    // Warm: same daemon, same fleet — every verdict now comes from a
    // worker's session cache or the shared store, with zero solver work.
    let t_warm_svc = Instant::now();
    let warm_svc = service_client().check_corpus_named(&corpus);
    let warm_svc_elapsed = t_warm_svc.elapsed();
    println!(
        "| service warm | 1 | {} | {} | {warm_svc_elapsed:.1?} | {:.1} |",
        warm_svc.engine.cache_misses,
        warm_svc.engine.disk_hits,
        corpus.len() as f64 / warm_svc_elapsed.as_secs_f64()
    );

    // N concurrent clients against the warm daemon: the thread-per-
    // connection fan-in with admission backpressure.
    const SERVICE_CLIENTS: usize = 4;
    let t_conc = Instant::now();
    let concurrent: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SERVICE_CLIENTS)
            .map(|_| scope.spawn(|| service_client().check_corpus_named(&corpus)))
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("service client thread"))
            .collect()
    });
    let conc_elapsed = t_conc.elapsed();
    let conc_requests = (SERVICE_CLIENTS * corpus.len()) as f64;
    let conc_misses: u64 = concurrent.iter().map(|r| r.engine.cache_misses).sum();
    let conc_disk: u64 = concurrent.iter().map(|r| r.engine.disk_hits).sum();
    println!(
        "| service warm | {SERVICE_CLIENTS} | {conc_misses} | {conc_disk} | {conc_elapsed:.1?} | {:.1} |",
        conc_requests / conc_elapsed.as_secs_f64()
    );

    for report in std::iter::once(&cold_svc)
        .chain(std::iter::once(&warm_svc))
        .chain(&concurrent)
    {
        report
            .verdicts_match(&baseline)
            .expect("service verdicts drifted from in-process");
        assert_eq!(report.engine.workers, fleet, "fleet size rides the report");
    }
    assert_eq!(
        warm_svc.engine.cache_misses, 0,
        "the warm service must not re-solve"
    );
    assert_eq!(conc_misses, 0, "warm concurrent clients must not re-solve");
    println!(
        "\nwarm speedup over cold through the service: {:.2}x; sustained {:.1} requests/sec \
         from {SERVICE_CLIENTS} concurrent clients (measured, not asserted)",
        cold_svc_elapsed.as_secs_f64() / warm_svc_elapsed.as_secs_f64().max(1e-9),
        conc_requests / conc_elapsed.as_secs_f64()
    );
    let served =
        relaxed_core::service::shutdown_service(&service_addr, std::time::Duration::from_secs(60))
            .expect("graceful drain");
    daemon.join().expect("daemon thread");
    println!("daemon served {served} requests over its lifetime, then drained gracefully");
    let _ = std::fs::remove_file(&service_cache);

    // ---- E14 edit→re-verify latency ----
    println!("\n## E14: incremental re-verification after a one-spec edit\n");
    println!(
        "A {}-revision corpus (24 spec variants of the three verified case \
         studies plus one small knob program) seeded into a persistent \
         verdict store with its goal→fragment dependency map, then \
         re-verified after editing only the knob program's precondition. \
         The incremental session replays every untouched revision from the \
         store and re-proves only the goals the edit dirtied; the full warm \
         rerun (sidecar deleted first) regenerates and re-encodes every \
         obligation before the store answers it. Both re-verifications are \
         asserted verdict-identical to a full in-process run of the edited \
         corpus (`CorpusReport::verdicts_match`).\n",
        24 * casestudies::all().len() + 1
    );
    let mut edit_corpus = relaxed_bench::spec_variant_corpus(24);
    edit_corpus.push((
        "knob".to_string(),
        relaxed_lang::parse_program(
            "x = 0; relax (x) st (0 <= x && x <= 2); relate l1 : x<o> <= x<r>;",
        )
        .expect("knob program parses"),
        relaxed_core::Spec {
            pre: relaxed_lang::parse_formula("true").unwrap(),
            post: relaxed_lang::parse_formula("true").unwrap(),
            rel_pre: relaxed_lang::parse_rel_formula("x<o> == x<r>").unwrap(),
            rel_post: relaxed_lang::parse_rel_formula("true").unwrap(),
        },
    ));
    let knob = edit_corpus.len() - 1;
    let edit_cache = std::env::temp_dir().join(format!(
        "relaxed-paper-report-{}.reverify.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&edit_cache);
    let _ = std::fs::remove_file(relaxed_core::depmap::depmap_path(&edit_cache));
    let edit_session = || {
        Verifier::builder()
            .workers(1)
            .cache_file(&edit_cache)
            .build()
    };
    let seed = edit_session();
    let t_seed = Instant::now();
    seed.check_corpus_named(&relaxed_bench::corpus_view(&edit_corpus));
    let seed_elapsed = t_seed.elapsed();
    seed.persist().expect("seed store persists");
    drop(seed);

    // The edit: one fresh conjunct on the knob's precondition. Distinct
    // per leg so neither leg's dirty goals are pre-cached by the other.
    let edited = |tag: &str| {
        let mut view = relaxed_bench::corpus_view(&edit_corpus);
        view[knob].2.pre = relaxed_lang::parse_formula(&format!(
            "({}) && edit_{tag} >= 0",
            edit_corpus[knob].2.pre
        ))
        .expect("edited precondition parses");
        view
    };

    // Ground truth for both legs: the edited corpus verified from
    // scratch, in process, with no store.
    let full_a = Verifier::builder()
        .workers(1)
        .build()
        .check_corpus_named(&edited("a"));
    let full_b = Verifier::builder()
        .workers(1)
        .build()
        .check_corpus_named(&edited("b"));

    let incremental = edit_session();
    let t_inc = Instant::now();
    let inc = incremental.check_corpus_named(&edited("a"));
    let inc_elapsed = t_inc.elapsed();
    inc.verdicts_match(&full_a)
        .expect("incremental verdicts drifted from the full run");
    assert!(
        inc.engine.cache_misses >= 1,
        "the dirty goals must be re-proved"
    );
    let untouched: u64 = inc
        .entries
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != knob)
        .map(|(_, e)| {
            e.outcome
                .as_ref()
                .expect("verified entry")
                .engine
                .cache_misses
        })
        .sum();
    assert_eq!(
        untouched, 0,
        "untouched revisions must replay, not re-prove"
    );
    drop(incremental);

    // No sidecar, nothing to replay: every revision runs live against the
    // warm store.
    let _ = std::fs::remove_file(relaxed_core::depmap::depmap_path(&edit_cache));
    let full_warm = edit_session();
    let t_warm = Instant::now();
    let warm = full_warm.check_corpus_named(&edited("b"));
    let warm_elapsed = t_warm.elapsed();
    warm.verdicts_match(&full_b)
        .expect("warm-rerun verdicts drifted from the full run");
    drop(full_warm);

    println!("| run | solver runs | disk hits | time |");
    println!("|---|---|---|---|");
    println!(
        "| cold seed ({} revisions) | {} | {} | {seed_elapsed:.1?} |",
        edit_corpus.len(),
        full_a.engine.cache_misses,
        0
    );
    println!(
        "| full warm rerun after the edit | {} | {} | {warm_elapsed:.1?} |",
        warm.engine.cache_misses, warm.engine.disk_hits
    );
    println!(
        "| incremental re-verify after the edit | {} | {} | {inc_elapsed:.1?} |",
        inc.engine.cache_misses, inc.engine.disk_hits
    );
    let reverify_speedup = warm_elapsed.as_secs_f64() / inc_elapsed.as_secs_f64().max(1e-9);
    println!(
        "\nedit→re-verify speedup over the full warm rerun: {reverify_speedup:.2}x \
         ({} of {} goals re-proved; verdicts asserted identical to the full run)",
        inc.engine.cache_misses,
        inc.engine.cache_hits + inc.engine.cache_misses,
    );
    assert!(
        reverify_speedup >= 5.0,
        "incremental re-verification must be at least 5x faster than the \
         full warm rerun (measured {reverify_speedup:.2}x)"
    );
    let _ = std::fs::remove_file(&edit_cache);
    let _ = std::fs::remove_file(relaxed_core::depmap::depmap_path(&edit_cache));

    // ---- E4 LoC inventory ----
    println!("\n## E4: implementation size (paper §1.6 vs this reproduction)\n");
    println!("run `paper_report --loc` from the repo root, or `tokei`; see EXPERIMENTS.md");
}
