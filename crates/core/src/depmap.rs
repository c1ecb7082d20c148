//! Goal→program-fragment dependency tracking for incremental
//! re-verification.
//!
//! At production scale a corpus is *edited*, not re-created: the paper's
//! §5 workflow is a developer iterating on `relax`/`assume` specs and
//! re-running acceptability verification. The persistent verdict cache
//! ([`crate::cache`]) already gives goal *identity* across processes;
//! this module adds *invalidation precision*: every [`Vc`] records the
//! [`fragment_id`]s of the program statements and spec formulas its
//! formula was built from (attached at vcgen time by
//! [`crate::vcgen`]), and a [`DepMap`] persists, per program, the
//! goal-key/fragment pairs of the last verified revision.
//!
//! Two facts make the map useful:
//!
//! * **Replay**: if an incoming program's [`program_hash`] matches its
//!   stored [`ProgramDeps`], *no* fragment changed, so every stored goal
//!   key is current and the whole program replays from the verdict cache
//!   without re-running vcgen or the solver
//!   (`DischargeEngine::replay`).
//! * **Blame**: when fragments did change, a goal whose `deps` are
//!   disjoint from the changed set is textually unaffected — its formula
//!   (and therefore its α-invariant goal key) is unchanged, and the
//!   verdict cache answers it without solver work. Only goals that
//!   [`dirty_goals`] selects can require fresh proofs, and each of them
//!   names the edited fragment in its `deps` (the provenance the
//!   `edit-reverify` CI job asserts).
//!
//! The map is **stage-sensitive** exactly where the paper's logics are:
//! in `⊢o` a `relax (X) st e` is `assert e` over an unchanged state
//! (Fig. 7), so its fragment covers only the predicate — editing the
//! target list `X` invalidates `⊢r` goals (where the relaxed side havocs
//! `X`) but no `⊢o` goal. `relate` is a skip in `⊢o` and contributes no
//! fragment there at all.
//!
//! # On-disk format
//!
//! A JSON-lines sidecar next to the verdict cache
//! (`<cache_path>.depmap`), following the same conventions: a header
//! line carrying the session [`fingerprint`](crate::cache::fingerprint)
//! (a mismatch — different solver budgets, encoder, or format — fails
//! closed into a cold, empty map: a stale map must never drive a
//! replay), then one line per program, later-wins on duplicates,
//! corruption-tolerant line-by-line loading, and atomic
//! temp-file + rename persists.

use crate::api::Stage;
use crate::cache::{field_str, field_u64, get, json_string, parse_json, GoalKey, Json};
use crate::vcgen::Vc;
use crate::verify::AcceptabilityReport;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::path::{Path, PathBuf};

/// Version of the depmap file layout; bumping it invalidates every
/// existing map (the header check fails closed into a cold start).
pub const DEPMAP_FORMAT: u32 = 1;

/// The sidecar path a session's depmap lives at: the verdict-cache path
/// with `.depmap` appended.
pub fn depmap_path(cache_path: &Path) -> PathBuf {
    let mut os = cache_path.as_os_str().to_os_string();
    os.push(".depmap");
    PathBuf::from(os)
}

// ---------------------------------------------------------------------
// Fragment identity
// ---------------------------------------------------------------------

/// FNV-1a over the bytes — a stable, dependency-free 64-bit content
/// hash. Not `DefaultHasher`, whose output is explicitly unstable across
/// releases and would silently invalidate every stored map.
fn fnv64(text: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The identity of one program fragment: `kind` names the syntactic role
/// (`stmt`, `cond`, `inv`, `relax-pred`, `pre`, `post`, …) and the hash
/// covers the fragment's pretty-printed text. Two fragments with the
/// same text in different roles get distinct ids, so e.g. promoting a
/// loop condition into an assert reads as a change.
pub fn fragment_id(kind: &str, text: &str) -> String {
    format!("{kind}:{:016x}", fnv64(text))
}

/// Streams [`fmt::Display`] output straight into an FNV-1a state — the
/// whole-revision hash runs on every corpus entry of every incremental
/// re-verification, so it must not allocate a pretty-printed copy of
/// the program per call.
struct FnvWriter(u64);

impl std::fmt::Write for FnvWriter {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for byte in s.as_bytes() {
            self.0 ^= u64::from(*byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// The whole-revision hash of one `(program, spec)` pair — matching
/// hashes mean *no* fragment changed and the stored goal set replays
/// verbatim.
pub fn program_hash(program: &relaxed_lang::Program, spec: &crate::verify::Spec) -> String {
    use std::fmt::Write;
    let mut w = FnvWriter(0xcbf2_9ce4_8422_2325);
    write!(
        w,
        "{}\u{0}{}\u{0}{}\u{0}{}\u{0}{}",
        program, spec.pre, spec.post, spec.rel_pre, spec.rel_post
    )
    .expect("hash writer never fails");
    format!("rev:{:016x}", w.0)
}

// ---------------------------------------------------------------------
// The map
// ---------------------------------------------------------------------

/// One goal of a stored program revision: enough provenance to rebuild
/// its report row ([`stage`](GoalDep::stage), [`name`](GoalDep::name),
/// [`context`](GoalDep::context)), the verdict-cache
/// [`key`](GoalDep::key) to replay it from, and the fragment
/// [`deps`](GoalDep::deps) that blame edits to it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GoalDep {
    /// The pipeline stage the goal belongs to.
    pub stage: Stage,
    /// The obligation name (`precondition-establishes-wp`, …).
    pub name: String,
    /// The obligation's program context (`entry`, `body/2`, …).
    pub context: String,
    /// The α-invariant verdict-cache key of the encoded goal.
    pub key: GoalKey,
    /// Sorted, deduplicated [`fragment_id`]s of every fragment the
    /// goal's formula was built from.
    pub deps: Vec<String>,
}

/// The stored goal set of one program revision.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProgramDeps {
    /// [`program_hash`] of the revision the goals were recorded for.
    pub hash: String,
    /// Every goal of every stage the session ran, in pipeline order.
    pub goals: Vec<GoalDep>,
}

impl ProgramDeps {
    /// The record of the revision hashed `hash`, built from the
    /// obligations its freshly produced `report` carries — so recording a
    /// live run costs no second vcgen pass.
    pub fn of_report(hash: String, report: &AcceptabilityReport) -> ProgramDeps {
        let goals = report
            .stage_reports()
            .flat_map(|(stage, stage_report)| {
                stage_report
                    .results
                    .iter()
                    .map(move |result| goal_dep(stage, &result.vc))
            })
            .collect();
        ProgramDeps { hash, goals }
    }
}

/// The goal→fragment dependency map of a corpus: per program name, the
/// last verified revision's [`ProgramDeps`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DepMap {
    /// Stored revisions, keyed by corpus program name.
    pub programs: BTreeMap<String, ProgramDeps>,
}

impl DepMap {
    /// The stored revision for `name`, if any.
    pub fn program(&self, name: &str) -> Option<&ProgramDeps> {
        self.programs.get(name)
    }

    /// Records (or replaces) a program's revision.
    pub fn record(&mut self, name: &str, deps: ProgramDeps) {
        self.programs.insert(name.to_string(), deps);
    }
}

/// The fragments whose membership differs between a stored revision and
/// a fresh goal set — the symmetric difference of the two dep unions.
/// Empty exactly when the edit touched no fragment either revision's
/// goals depend on (e.g. a pure statement reorder).
pub fn changed_fragments(old: &ProgramDeps, fresh: &[GoalDep]) -> BTreeSet<String> {
    let old_frags: BTreeSet<&str> = old
        .goals
        .iter()
        .flat_map(|g| g.deps.iter().map(String::as_str))
        .collect();
    let new_frags: BTreeSet<&str> = fresh
        .iter()
        .flat_map(|g| g.deps.iter().map(String::as_str))
        .collect();
    old_frags
        .symmetric_difference(&new_frags)
        .map(|s| (*s).to_string())
        .collect()
}

/// Indices (into `fresh`) of the goals an edit can force back to the
/// solver: goals whose key the stored revision does not already hold.
/// Every other goal's formula is unchanged and replays from the verdict
/// cache. Deduplicated by key — the engine solves each distinct goal
/// once.
pub fn dirty_goals(old: &ProgramDeps, fresh: &[GoalDep]) -> Vec<usize> {
    let known: HashSet<&GoalKey> = old.goals.iter().map(|g| &g.key).collect();
    let mut seen: HashSet<&GoalKey> = HashSet::new();
    fresh
        .iter()
        .enumerate()
        .filter(|(_, g)| !known.contains(&g.key) && seen.insert(&g.key))
        .map(|(i, _)| i)
        .collect()
}

/// Builds the [`GoalDep`] rows of one program's staged obligations.
pub fn goal_deps(stage_vcs: &[(Stage, Vec<Vc>)]) -> Vec<GoalDep> {
    stage_vcs
        .iter()
        .flat_map(|(stage, vcs)| vcs.iter().map(|vc| goal_dep(*stage, vc)))
        .collect()
}

/// The [`GoalDep`] row of one obligation, keyed by encoding the VC
/// through the same [`encode_goal`](crate::engine::encode_goal) the
/// discharge engine uses, so the key is replay-exact.
fn goal_dep(stage: Stage, vc: &Vc) -> GoalDep {
    GoalDep {
        stage,
        name: vc.name.clone(),
        context: vc.context.clone(),
        key: GoalKey::of(&crate::engine::encode_goal(vc)),
        deps: vc.deps.clone(),
    }
}

// ---------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------

fn render_header(fingerprint: &str) -> String {
    format!(
        "{{\"format\":{DEPMAP_FORMAT},\"kind\":\"depmap\",\"fingerprint\":{}}}\n",
        json_string(fingerprint)
    )
}

fn render_program_line(name: &str, deps: &ProgramDeps) -> String {
    let mut out = format!(
        "{{\"program\":{},\"hash\":{},\"goals\":[",
        json_string(name),
        json_string(&deps.hash)
    );
    for (i, goal) in deps.goals.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"stage\":\"{}\",\"name\":{},\"context\":{},\"key\":{},\"deps\":[{}]}}",
            goal.stage.name(),
            json_string(&goal.name),
            json_string(&goal.context),
            json_string(goal.key.as_str()),
            goal.deps
                .iter()
                .map(|d| json_string(d))
                .collect::<Vec<_>>()
                .join(",")
        ));
    }
    out.push_str("]}\n");
    out
}

fn parse_program_line(line: &str) -> Result<(String, ProgramDeps), String> {
    let record = parse_json(line)?;
    let fields = record.as_object()?;
    let name = field_str(fields, "program")?.to_string();
    let hash = field_str(fields, "hash")?.to_string();
    let mut goals = Vec::new();
    for item in get(fields, "goals").ok_or("missing `goals`")?.as_array()? {
        let goal_fields = item.as_object()?;
        let mut deps = Vec::new();
        for dep in get(goal_fields, "deps")
            .ok_or("missing `deps`")?
            .as_array()?
        {
            match dep {
                Json::Str(s) => deps.push(s.clone()),
                _ => return Err("non-string dep".to_string()),
            }
        }
        goals.push(GoalDep {
            stage: Stage::from_name(field_str(goal_fields, "stage")?)?,
            name: field_str(goal_fields, "name")?.to_string(),
            context: field_str(goal_fields, "context")?.to_string(),
            key: GoalKey::parse(field_str(goal_fields, "key")?),
            deps,
        });
    }
    Ok((name, ProgramDeps { hash, goals }))
}

/// Loads the depmap at `path`, keeping it only when the header carries
/// exactly this session's `fingerprint`. A missing file, a bad or
/// mismatched header (including a verdict-cache fingerprint change — new
/// budgets, encoder, or solver), or a wrong `kind` all fail closed into
/// an empty map: **a stale map must never drive a replay**. Individually
/// corrupt program lines are skipped (later lines win on duplicate
/// names); every warning is returned for diagnostics.
pub fn load(path: &Path, fingerprint: &str) -> (DepMap, Vec<String>) {
    let mut map = DepMap::default();
    let mut warnings = Vec::new();
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return (map, warnings),
        Err(e) => {
            warnings.push(format!("depmap unreadable ({e}); starting cold"));
            return (map, warnings);
        }
    };
    let mut lines = text.lines().enumerate();
    let header_ok = match lines.next() {
        Some((_, header)) => check_header(header, fingerprint),
        None => Err("empty file".to_string()),
    };
    if let Err(reason) = header_ok {
        warnings.push(format!(
            "depmap {}: {reason}; starting cold",
            path.display()
        ));
        return (map, warnings);
    }
    for (i, line) in lines {
        if line.trim().is_empty() {
            continue;
        }
        match parse_program_line(line) {
            Ok((name, deps)) => {
                map.programs.insert(name, deps);
            }
            Err(reason) => warnings.push(format!("depmap line {}: {reason}; skipped", i + 1)),
        }
    }
    (map, warnings)
}

fn check_header(header: &str, fingerprint: &str) -> Result<(), String> {
    let record = parse_json(header).map_err(|e| format!("bad header: {e}"))?;
    let fields = record.as_object().map_err(|e| format!("bad header: {e}"))?;
    if field_str(fields, "kind")? != "depmap" {
        return Err("not a depmap file".to_string());
    }
    let format = field_u64(fields, "format")?;
    if format != u64::from(DEPMAP_FORMAT) {
        return Err(format!("format {format} (session speaks {DEPMAP_FORMAT})"));
    }
    let file_fingerprint = field_str(fields, "fingerprint")?;
    if file_fingerprint != fingerprint {
        return Err(format!(
            "fingerprint mismatch (file {file_fingerprint:?}, session {fingerprint:?})"
        ));
    }
    Ok(())
}

/// Atomically rewrites the depmap at `path` through the verdict store's
/// own temp-file + rename writer ([`crate::cache`]): concurrent sessions
/// may race but can never corrupt the file, and a missing parent
/// directory is created.
///
/// # Errors
///
/// Propagates filesystem errors; callers degrade to a warning (a session
/// that cannot persist its map simply starts cold next time).
pub fn persist(path: &Path, fingerprint: &str, map: &DepMap) -> std::io::Result<()> {
    let mut body = render_header(fingerprint);
    for (name, deps) in &map.programs {
        body.push_str(&render_program_line(name, deps));
    }
    crate::cache::write_atomically(path, &body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("relaxed-depmap-test-{tag}-{}", std::process::id()));
        path
    }

    fn sample_map() -> DepMap {
        let mut map = DepMap::default();
        map.record(
            "swish",
            ProgramDeps {
                hash: "rev:00112233".to_string(),
                goals: vec![GoalDep {
                    stage: Stage::Original,
                    name: "precondition-establishes-wp".to_string(),
                    context: "entry".to_string(),
                    key: GoalKey::parse("(valid true)"),
                    deps: vec![
                        fragment_id("pre", "x >= 0"),
                        fragment_id("stmt", "x = x + 1;"),
                    ],
                }],
            },
        );
        map
    }

    #[test]
    fn fragment_ids_are_stable_and_role_sensitive() {
        assert_eq!(fragment_id("stmt", "x = 1;"), fragment_id("stmt", "x = 1;"));
        assert_ne!(fragment_id("stmt", "x = 1;"), fragment_id("stmt", "x = 2;"));
        assert_ne!(fragment_id("cond", "x < n"), fragment_id("inv", "x < n"));
    }

    #[test]
    fn round_trips_through_disk() {
        let path = temp_path("roundtrip");
        let map = sample_map();
        persist(&path, "fp-1", &map).unwrap();
        let (loaded, warnings) = load(&path, "fp-1");
        assert_eq!(loaded, map);
        assert!(warnings.is_empty(), "{warnings:?}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fingerprint_mismatch_fails_closed_into_a_cold_map() {
        let path = temp_path("mismatch");
        persist(&path, "fp-old", &sample_map()).unwrap();
        let (loaded, warnings) = load(&path, "fp-new");
        assert!(loaded.programs.is_empty(), "stale map must not load");
        assert!(
            warnings.iter().any(|w| w.contains("fingerprint mismatch")),
            "{warnings:?}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_a_clean_cold_start() {
        let (loaded, warnings) = load(Path::new("/nonexistent/depmap"), "fp");
        assert!(loaded.programs.is_empty());
        assert!(warnings.is_empty());
    }

    #[test]
    fn corrupt_lines_are_skipped_not_fatal() {
        let path = temp_path("corrupt");
        persist(&path, "fp", &sample_map()).unwrap();
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("@@ not json @@\n");
        std::fs::write(&path, text).unwrap();
        let (loaded, warnings) = load(&path, "fp");
        assert_eq!(loaded.programs.len(), 1);
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn dirty_goals_selects_new_keys_once() {
        let old = ProgramDeps {
            hash: "rev:a".to_string(),
            goals: vec![GoalDep {
                stage: Stage::Original,
                name: "g0".to_string(),
                context: "entry".to_string(),
                key: GoalKey::parse("(k0)"),
                deps: vec!["pre:1".to_string()],
            }],
        };
        let fresh = vec![
            GoalDep {
                stage: Stage::Original,
                name: "g0".to_string(),
                context: "entry".to_string(),
                key: GoalKey::parse("(k0)"),
                deps: vec!["pre:1".to_string()],
            },
            GoalDep {
                stage: Stage::Relaxed,
                name: "g1".to_string(),
                context: "body/1".to_string(),
                key: GoalKey::parse("(k1)"),
                deps: vec!["stmt:2".to_string()],
            },
            GoalDep {
                stage: Stage::Relaxed,
                name: "g1-dup".to_string(),
                context: "body/2".to_string(),
                key: GoalKey::parse("(k1)"),
                deps: vec!["stmt:2".to_string()],
            },
        ];
        assert_eq!(dirty_goals(&old, &fresh), vec![1]);
        let changed = changed_fragments(&old, &fresh);
        assert!(changed.contains("stmt:2"), "{changed:?}");
        assert!(!changed.contains("pre:1"), "{changed:?}");
    }

    #[test]
    fn depmap_path_is_a_sidecar_of_the_cache() {
        assert_eq!(
            depmap_path(Path::new("/tmp/verdicts.jsonl")),
            PathBuf::from("/tmp/verdicts.jsonl.depmap")
        );
    }
}
