//! Report types for the staged verification pipeline, and the pipeline
//! itself behind the [`Verifier`](crate::api::Verifier) session API.
//!
//! The `⊢o` stage plays Lemma 2 (*Original Progress Modulo Assumptions*);
//! the `⊢r` stage plays Theorem 6 (*Soundness of Relational Assertions*)
//! and Theorem 7 (*Relative Relaxed Progress*); together they give
//! Theorem 8 (*Relaxed Progress*) and Corollary 9 (*Relaxed Progress
//! Modulo Original Assumptions*). Run the pipeline with
//! [`Verifier::check`](crate::api::Verifier::check), or one stage at a
//! time with [`Verifier::stage`](crate::api::Verifier::stage).
//!
//! An [`AcceptabilityReport`] is assembled in one place,
//! [`AcceptabilityReport::from_stages`], whether its stages were just
//! discharged, replayed from the depmap, or rebuilt from a worker's
//! result frame; [`AcceptabilityReport::stage_reports`] walks the stages
//! that ran.

use crate::analysis::{array_vars, formula_array_vars, rel_formula_array_vars};
use crate::api::{Stage, StageSet};
use crate::engine::{DischargeEngine, DischargeOptions, EngineStats};
use crate::vcgen::{vcs_relaxed, vcs_unary, UnaryLogic, Vc, VcgenError};
use relaxed_lang::{Formula, Program, RelFormula};
use relaxed_smt::{SolverStats, Validity};
use std::fmt;

/// The verdict for one VC.
#[derive(Clone, Debug)]
pub struct VcResult {
    /// The obligation.
    pub vc: Vc,
    /// The solver's verdict on its validity.
    pub verdict: Validity,
    /// Solver statistics for this obligation (zeroed when the verdict
    /// came from the engine's cache).
    pub stats: SolverStats,
    /// Whether the verdict was reused from a structurally identical
    /// obligation rather than solved afresh.
    pub cached: bool,
}

impl VcResult {
    /// Whether the obligation was proved.
    pub fn proved(&self) -> bool {
        self.verdict.is_valid()
    }
}

/// The outcome of one verification run.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Per-VC results, in generation order.
    pub results: Vec<VcResult>,
    /// Solver statistics accumulated over the run (freshly solved goals
    /// only; cached verdicts cost no solver work).
    pub stats: SolverStats,
    /// Cache and worker statistics for this discharge call.
    pub engine: EngineStats,
}

impl Report {
    /// Whether every VC was proved.
    pub fn verified(&self) -> bool {
        self.results.iter().all(VcResult::proved)
    }

    /// The VCs that failed (invalid or unknown).
    pub fn failures(&self) -> impl Iterator<Item = &VcResult> {
        self.results.iter().filter(|r| !r.proved())
    }

    /// Number of VCs.
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// Whether no VCs were generated.
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }

    /// Appends `other`'s per-VC results and folds its statistics in,
    /// through the one [`SolverStats::absorb`] /
    /// [`EngineStats::absorb`](crate::engine::EngineStats::absorb)
    /// aggregation path — so multi-stage and multi-program callers never
    /// hand-sum stat fields (and silently drop one).
    pub fn merge(&mut self, other: Report) {
        self.results.extend(other.results);
        self.stats.absorb(&other.stats);
        self.engine.absorb(&other.engine);
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let proved = self.results.iter().filter(|r| r.proved()).count();
        writeln!(f, "{proved}/{} VCs proved", self.results.len())?;
        for r in self.failures() {
            writeln!(f, "  FAILED {} — {:?}", r.vc, kind_of(&r.verdict))?;
        }
        Ok(())
    }
}

fn kind_of(v: &Validity) -> &'static str {
    match v {
        Validity::Valid => "valid",
        Validity::Invalid(_) => "counterexample",
        Validity::Unknown(_) => "unknown",
    }
}

/// The obligations of one stage of `spec` for `program` — the engine of
/// [`StageRunner::vcs`](crate::api::StageRunner::vcs).
pub(crate) fn stage_vcs(
    stage: Stage,
    program: &Program,
    spec: &Spec,
) -> Result<Vec<Vc>, VcgenError> {
    match stage {
        Stage::Original => unary_stage_vcs(UnaryLogic::Original, program, &spec.pre, &spec.post),
        Stage::Intermediate => {
            unary_stage_vcs(UnaryLogic::Intermediate, program, &spec.pre, &spec.post)
        }
        Stage::Relaxed => relaxed_stage_vcs(program, &spec.rel_pre, &spec.rel_post),
    }
}

fn unary_stage_vcs(
    logic: UnaryLogic,
    program: &Program,
    pre: &Formula,
    post: &Formula,
) -> Result<Vec<Vc>, VcgenError> {
    let mut arrays = array_vars(program.body());
    arrays.extend(formula_array_vars(pre));
    arrays.extend(formula_array_vars(post));
    vcs_unary(logic, program.body(), pre, post, &arrays)
}

fn relaxed_stage_vcs(
    program: &Program,
    rel_pre: &RelFormula,
    rel_post: &RelFormula,
) -> Result<Vec<Vc>, VcgenError> {
    let mut arrays = array_vars(program.body());
    arrays.extend(rel_formula_array_vars(rel_pre));
    arrays.extend(rel_formula_array_vars(rel_post));
    vcs_relaxed(program.body(), rel_pre, rel_post, &arrays)
}

/// The full acceptability specification of a relaxed program.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Unary precondition for the original proof.
    pub pre: Formula,
    /// Unary postcondition for the original proof.
    pub post: Formula,
    /// Relational precondition (typically `initial_sync`).
    pub rel_pre: RelFormula,
    /// Relational postcondition.
    pub rel_post: RelFormula,
}

impl Spec {
    /// A spec with trivial postconditions and the canonical synced start.
    pub fn synced(program: &Program) -> Spec {
        Spec {
            pre: Formula::True,
            post: Formula::True,
            rel_pre: crate::noninterference::initial_sync(program),
            rel_post: RelFormula::True,
        }
    }
}

/// The combined result of the staged verification (§1.2): first `⊢o`,
/// then `⊢r` (optionally with a standalone `⊢i` pass in between, when
/// the session's [`StageSet`] selects it).
///
/// Stages the session's configuration skips are present as empty
/// reports, and the theorem-level accessors
/// ([`original_progress`](AcceptabilityReport::original_progress),
/// [`relative_relaxed_progress`](AcceptabilityReport::relative_relaxed_progress),
/// [`relaxed_progress`](AcceptabilityReport::relaxed_progress)) return
/// `false` when the stage backing them did not run — a skipped proof is
/// never reported as a proved theorem.
#[derive(Clone, Debug)]
pub struct AcceptabilityReport {
    /// The stages this verification ran (the session's stage selection).
    pub stages: StageSet,
    /// The `⊢o` report.
    pub original: Report,
    /// The standalone `⊢i` report, when the intermediate stage was
    /// selected (it is not part of the default pipeline: the `⊢r` diverge
    /// rule invokes `⊢i` internally where needed).
    pub intermediate: Option<Report>,
    /// The `⊢r` report.
    pub relaxed: Report,
    /// Engine activity folded over the stages of *this* verification
    /// (per-call counters, so a shared engine's history does not leak
    /// in). The `⊢r` stage's diverge rule re-proves many `⊢o` goals, so
    /// sharing one engine across the stages turns those into cache hits;
    /// `unique_goals` counts the goals this verification newly added to
    /// the cache.
    pub engine: EngineStats,
}

impl AcceptabilityReport {
    /// The report of the stages that ran, from their reports in pipeline
    /// order: the stage selection is the stages given, and
    /// [`engine`](AcceptabilityReport::engine) folds their engine
    /// statistics.
    pub fn from_stages(stages: Vec<(Stage, Report)>) -> AcceptabilityReport {
        let mut report = AcceptabilityReport {
            stages: StageSet::none(),
            original: Report::default(),
            intermediate: None,
            relaxed: Report::default(),
            engine: EngineStats::default(),
        };
        for (stage, stage_report) in stages {
            report.stages = report.stages.with(stage);
            report.engine.absorb(&stage_report.engine);
            match stage {
                Stage::Original => report.original = stage_report,
                Stage::Intermediate => report.intermediate = Some(stage_report),
                Stage::Relaxed => report.relaxed = stage_report,
            }
        }
        report
    }

    /// The report of `stage`, or `None` when the stage did not run.
    pub fn stage_report(&self, stage: Stage) -> Option<&Report> {
        if !self.stages.contains(stage) {
            return None;
        }
        match stage {
            Stage::Original => Some(&self.original),
            Stage::Intermediate => self.intermediate.as_ref(),
            Stage::Relaxed => Some(&self.relaxed),
        }
    }

    /// The reports of the stages that ran, in pipeline order.
    pub fn stage_reports(&self) -> impl Iterator<Item = (Stage, &Report)> {
        Stage::ALL
            .into_iter()
            .filter_map(|stage| Some((stage, self.stage_report(stage)?)))
    }

    /// One flat [`Report`] over every stage that ran, in discharge order
    /// — per-VC results concatenated and statistics folded through
    /// [`Report::merge`].
    pub fn combined(&self) -> Report {
        let mut all = Report::default();
        for (_, report) in self.stage_reports() {
            all.merge(report.clone());
        }
        all
    }

    /// Whether every obligation of every stage that ran was proved
    /// (including a selected standalone `⊢i` stage, which
    /// [`relaxed_progress`](AcceptabilityReport::relaxed_progress) does
    /// not consult).
    pub fn verified(&self) -> bool {
        self.stage_reports().all(|(_, report)| report.verified())
    }

    /// Total obligations across every stage that ran (without cloning
    /// the per-VC results the way [`combined`](AcceptabilityReport::combined)
    /// does).
    pub fn total_vcs(&self) -> usize {
        self.stage_reports().map(|(_, report)| report.len()).sum()
    }

    /// Proved obligations across every stage that ran.
    pub fn proved_vcs(&self) -> usize {
        self.stage_reports()
            .map(|(_, report)| report.results.iter().filter(|v| v.proved()).count())
            .sum()
    }

    /// Lemma 2 — *Original Progress Modulo Assumptions*: no original
    /// execution evaluates to `wr`. `false` when the `⊢o` stage was not
    /// selected (its obligations were never generated).
    pub fn original_progress(&self) -> bool {
        self.stages.original && self.original.verified()
    }

    /// Theorems 6 and 7 — *Soundness of Relational Assertions* and
    /// *Relative Relaxed Progress*: paired executions satisfy every
    /// `relate`, and error-free original runs make relaxed runs
    /// error-free. `false` when the `⊢r` stage was not selected (its
    /// obligations were never generated).
    pub fn relative_relaxed_progress(&self) -> bool {
        self.stages.relaxed && self.relaxed.verified()
    }

    /// Theorem 8 — *Relaxed Progress*: with both proofs in hand, if
    /// original executions terminate without violating an assumption, no
    /// relaxed execution errs.
    pub fn relaxed_progress(&self) -> bool {
        self.original_progress() && self.relative_relaxed_progress()
    }

    /// Corollary 9 — *Relaxed Progress Modulo Original Assumptions*: any
    /// error in a relaxed execution corresponds to a violated assumption
    /// reproducible in the original program.
    pub fn debuggability(&self) -> bool {
        self.relaxed_progress()
    }
}

impl fmt::Display for AcceptabilityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "⊢o (original semantics): {}", self.original)?;
        if let Some(intermediate) = &self.intermediate {
            writeln!(f, "⊢i (intermediate semantics): {intermediate}")?;
        }
        writeln!(f, "⊢r (relaxed semantics): {}", self.relaxed)?;
        writeln!(
            f,
            "Original Progress Modulo Assumptions (Lemma 2): {}",
            self.original_progress()
        )?;
        writeln!(
            f,
            "Relative Relaxed Progress (Theorem 7) + Relational Assertions (Theorem 6): {}",
            self.relative_relaxed_progress()
        )?;
        writeln!(
            f,
            "Relaxed Progress (Theorem 8): {}",
            self.relaxed_progress()
        )
    }
}

/// The staged pipeline on a caller-provided engine: generate and
/// discharge the VCs of every selected stage in order (`⊢o`, `⊢i`, `⊢r`),
/// sharing the engine's verdict cache across the stages. This is the one
/// implementation behind [`Verifier::check`](crate::api::Verifier::check).
pub(crate) fn staged_check(
    engine: &DischargeEngine,
    program: &Program,
    spec: &Spec,
    stages: StageSet,
    opts: DischargeOptions,
) -> Result<AcceptabilityReport, VcgenError> {
    let run = |stage: Stage| -> Result<(Stage, Report), VcgenError> {
        let vcgen_started = std::time::Instant::now();
        let vcs = {
            let mut span = crate::telemetry::span("vcgen", "vcgen");
            if span.is_active() {
                span.arg("stage", stage.name());
            }
            stage_vcs(stage, program, spec)?
        };
        let vcgen_us = u64::try_from(vcgen_started.elapsed().as_micros()).unwrap_or(u64::MAX);
        engine.note_vcgen_us(vcgen_us);
        let mut report = engine.discharge_with(vcs, opts);
        // Phase breakdowns survive with telemetry off: vcgen wall time
        // rides the stage report's engine stats (satellite of the
        // trace-file spans above).
        report.engine.elapsed_vcgen_ms = vcgen_us / 1000;
        Ok((stage, report))
    };
    // The folded engine stats are this verification's activity, not the
    // engine's lifetime totals: the engine may be shared across many
    // verifications (and, in corpus mode, across concurrently verified
    // programs — per-call counters stay attributable where engine-total
    // deltas would not).
    let staged = stages.iter().map(run).collect::<Result<Vec<_>, _>>()?;
    Ok(AcceptabilityReport::from_stages(staged))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Verifier;
    use relaxed_lang::{parse_formula, parse_program, parse_rel_formula};

    fn check_original(program: &Program, pre: &Formula, post: &Formula) -> Report {
        let spec = Spec {
            pre: pre.clone(),
            post: post.clone(),
            rel_pre: RelFormula::True,
            rel_post: RelFormula::True,
        };
        Verifier::new()
            .stage(Stage::Original)
            .check(program, &spec)
            .unwrap()
    }

    #[test]
    fn quickstart_program_verifies_end_to_end() {
        let program = parse_program(
            "x0 = x;
             relax (x) st (x0 <= x && x <= x0 + 2);
             relate l1 : x<o> <= x<r> && x<r> - x<o> <= 2;",
        )
        .unwrap();
        let spec = Spec {
            pre: Formula::True,
            post: Formula::True,
            rel_pre: parse_rel_formula("x<o> == x<r>").unwrap(),
            rel_post: RelFormula::True,
        };
        let report = Verifier::new().check(&program, &spec).unwrap();
        assert!(report.relaxed_progress(), "{report}");
    }

    #[test]
    fn broken_relate_fails_relational_stage_only() {
        let program = parse_program(
            "x0 = x;
             relax (x) st (x0 <= x && x <= x0 + 2);
             relate l1 : x<r> <= x<o>;",
        )
        .unwrap();
        let spec = Spec {
            pre: Formula::True,
            post: Formula::True,
            rel_pre: parse_rel_formula("x<o> == x<r>").unwrap(),
            rel_post: RelFormula::True,
        };
        let report = Verifier::new().check(&program, &spec).unwrap();
        assert!(report.original_progress());
        assert!(!report.relative_relaxed_progress());
        assert!(!report.relaxed_progress());
    }

    #[test]
    fn original_assert_violation_fails_first_stage() {
        let program = parse_program("x = 1; assert x == 2;").unwrap();
        let report = check_original(&program, &Formula::True, &Formula::True);
        assert!(!report.verified());
        assert_eq!(report.failures().count(), 1);
    }

    #[test]
    fn assume_is_free_in_original_verification() {
        let program = parse_program("assume x >= 10; assert x >= 10;").unwrap();
        let report = check_original(&program, &Formula::True, &Formula::True);
        assert!(report.verified());
    }

    #[test]
    fn postcondition_is_checked() {
        let program = parse_program("y = x + 1;").unwrap();
        let pre = parse_formula("x >= 0").unwrap();
        let post_good = parse_formula("y >= 1").unwrap();
        let post_bad = parse_formula("y >= 2").unwrap();
        assert!(check_original(&program, &pre, &post_good).verified());
        assert!(!check_original(&program, &pre, &post_bad).verified());
    }

    #[test]
    fn report_display_mentions_failures() {
        let program = parse_program("assert false;").unwrap();
        let report = check_original(&program, &Formula::True, &Formula::True);
        let text = report.to_string();
        assert!(text.contains("FAILED"), "{text}");
    }

    #[test]
    fn report_merge_folds_results_and_stats() {
        let program = parse_program("assert x >= 0 || x <= 0; assert true;").unwrap();
        let first = check_original(&program, &Formula::True, &Formula::True);
        let second = check_original(&program, &parse_formula("x >= 1").unwrap(), &Formula::True);
        let mut merged = first.clone();
        merged.merge(second.clone());
        assert_eq!(merged.len(), first.len() + second.len());
        let mut stats = first.stats;
        stats.absorb(&second.stats);
        assert_eq!(merged.stats, stats);
        assert_eq!(
            merged.engine.cache_misses,
            first.engine.cache_misses + second.engine.cache_misses
        );
    }
}
