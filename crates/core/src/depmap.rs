//! Per-program revision records for incremental re-verification.
//!
//! At production scale a corpus is *edited*, not re-created: the paper's
//! §5 workflow is a developer iterating on `relax`/`assume` specs and
//! re-running acceptability verification. The persistent verdict cache
//! ([`crate::cache`]) already gives goal *identity* across processes;
//! this module adds the per-program record that lets an unchanged
//! program skip vcgen altogether: a [`DepMap`] persists, per program,
//! the [`program_hash`] of the last verified revision and its goal set,
//! each goal as its stage, name, context and α-invariant goal key. The
//! hash covers the syntax tree, not its pretty-printed text: a revision
//! costs one walk of its tree, and a fleet worker, which re-parses the
//! printed program of a job frame, computes the same hash as its client.
//!
//! Two facts make the map useful:
//!
//! * **Replay**: if an incoming program's [`program_hash`] matches its
//!   stored [`ProgramDeps`], nothing the goals were built from changed,
//!   so every stored goal key is current and the whole program replays
//!   from the verdict cache without re-running vcgen or the solver
//!   (`DischargeEngine::replay`).
//! * **Blame**: when the hash differs, the program runs vcgen again and
//!   each fresh goal's key is compared with the stored ones. A goal
//!   whose formula the edit left alone keeps its key, and the verdict
//!   cache answers it without solver work. Only goals that
//!   [`dirty_goals`] selects, those with a key the stored revision does
//!   not hold, can require fresh proofs (the count the `edit-reverify`
//!   CI job asserts).
//!
//! Blame is **stage-sensitive** exactly where the paper's logics are:
//! in `⊢o` a `relax (X) st e` is `assert e` over an unchanged state
//! (Fig. 7), so no `⊢o` formula mentions the target list `X`. Editing
//! the list changes the keys of `⊢r` goals (where the relaxed side
//! havocs `X`) but no `⊢o` key. `relate` is a skip in `⊢o`, so editing
//! one changes no `⊢o` key either.
//!
//! # On-disk format
//!
//! A JSON-lines sidecar next to the verdict cache
//! (`<cache_path>.depmap`), following the same conventions: a header
//! line carrying the session [`fingerprint`](crate::cache::fingerprint)
//! (a mismatch — different solver budgets, encoder, or format — fails
//! closed into a cold, empty map: a stale map must never drive a
//! replay), then one line per program — its name, revision hash and
//! goals, each goal as its stage, name, context and key — later-wins on
//! duplicates, and corruption-tolerant line-by-line loading. A sidecar
//! of another [`DEPMAP_FORMAT`] loads as a cold map, and the session's
//! first flush rewrites it whole; the verdict store beside it is
//! unaffected. It is
//! written and read by the verdict store's own writer and reader
//! ([`crate::cache`]): a session's flush appends the records of the
//! programs it recorded since its last flush under the sidecar's own
//! header, and writes the whole map only over a new, empty, foreign or
//! garbage file, so sessions sharing one path keep each other's
//! programs.

use crate::api::Stage;
use crate::cache::{field_str, field_u64, get, json_string, parse_json, GoalKey};
use crate::vcgen::Vc;
use crate::verify::AcceptabilityReport;
use std::collections::{BTreeMap, HashSet};
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};

/// Version of the depmap file layout; bumping it invalidates every
/// existing map (the header check fails closed into a cold start).
pub const DEPMAP_FORMAT: u32 = 3;

/// The sidecar path a session's depmap lives at: the verdict-cache path
/// with `.depmap` appended.
pub fn depmap_path(cache_path: &Path) -> PathBuf {
    let mut os = cache_path.as_os_str().to_os_string();
    os.push(".depmap");
    PathBuf::from(os)
}

// ---------------------------------------------------------------------
// Revision identity
// ---------------------------------------------------------------------

/// FNV-1a-64 as a [`Hasher`]: the hash behind [`program_hash`], fed the
/// syntax tree through its derived [`Hash`] impls. Those are prefix-free
/// (enum discriminants, length prefixes and a `0xff` after each string),
/// so distinct trees give distinct byte streams. Every integer is widened
/// to 8 little-endian bytes, so a hash is the same on every platform.
/// Not `DefaultHasher`, whose output may change between Rust releases and
/// would silently invalidate every stored map.
struct StableHasher(u64);

impl StableHasher {
    fn new() -> StableHasher {
        StableHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for StableHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for byte in bytes {
            self.0 ^= u64::from(*byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.write_u64(u64::from(i));
    }

    fn write_u16(&mut self, i: u16) {
        self.write_u64(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.write_u64(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.write(&i.to_le_bytes());
    }

    fn write_u128(&mut self, i: u128) {
        self.write(&i.to_le_bytes());
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    fn write_isize(&mut self, i: isize) {
        self.write_u64(i as i64 as u64);
    }
}

/// The whole-revision hash of one `(program, spec)` pair, over their
/// syntax trees — matching hashes mean nothing a goal is built from
/// changed, and the stored goal set replays verbatim.
pub fn program_hash(program: &relaxed_lang::Program, spec: &crate::verify::Spec) -> String {
    let mut hasher = StableHasher::new();
    (
        program,
        &spec.pre,
        &spec.post,
        &spec.rel_pre,
        &spec.rel_post,
    )
        .hash(&mut hasher);
    format!("rev:{:016x}", hasher.finish())
}

// ---------------------------------------------------------------------
// The map
// ---------------------------------------------------------------------

/// One goal of a stored program revision: enough provenance to rebuild
/// its report row ([`stage`](GoalDep::stage), [`name`](GoalDep::name),
/// [`context`](GoalDep::context)) and the verdict-cache
/// [`key`](GoalDep::key) to replay it from, which [`dirty_goals`] also
/// compares to blame an edit. A goal's revision is the
/// [`program_hash`] of the [`ProgramDeps`] that holds it.
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
    /// obligations its live `report` carries and the goal keys its
    /// discharge made, so recording a live run costs neither a second
    /// vcgen pass nor a second encoding. `None` when a stage's rows carry
    /// no keys (rows replayed or read from a result frame), since such a
    /// record would drop goals.
    pub(crate) fn of_report(hash: String, report: &AcceptabilityReport) -> Option<ProgramDeps> {
        let mut goals = Vec::with_capacity(report.total_vcs());
        for (stage, stage_report) in report.stage_reports() {
            if stage_report.keys.len() != stage_report.results.len() {
                return None;
            }
            let rows = stage_report.results.iter().zip(&stage_report.keys);
            goals.extend(rows.map(|(result, key)| goal_dep(stage, &result.vc, key.clone())));
        }
        Some(ProgramDeps { hash, goals })
    }
}

/// The revision records of a corpus: per program name, the last verified
/// revision's [`ProgramDeps`].
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

/// Builds the [`GoalDep`] rows of one program's staged obligations, each
/// keyed by encoding its VC through the same
/// [`encode_goal`](crate::engine::encode_goal) the discharge engine uses,
/// so the keys are replay-exact.
pub fn goal_deps(stage_vcs: &[(Stage, Vec<Vc>)]) -> Vec<GoalDep> {
    stage_vcs
        .iter()
        .flat_map(|(stage, vcs)| {
            vcs.iter()
                .map(|vc| goal_dep(*stage, vc, GoalKey::of(&crate::engine::encode_goal(vc))))
        })
        .collect()
}

/// The [`GoalDep`] row of the obligation `vc` of `stage`, keyed `key`.
fn goal_dep(stage: Stage, vc: &Vc, key: GoalKey) -> GoalDep {
    GoalDep {
        stage,
        name: vc.name.clone(),
        context: vc.context.clone(),
        key,
    }
}

// ---------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------

fn render_header(fingerprint: &str) -> String {
    format!(
        "{{\"format\":{DEPMAP_FORMAT},\"kind\":\"depmap\",\"fingerprint\":{}}}",
        json_string(fingerprint)
    )
}

fn render_program_line(out: &mut String, name: &str, deps: &ProgramDeps) {
    out.push_str(&format!(
        "{{\"program\":{},\"hash\":{},\"goals\":[",
        json_string(name),
        json_string(&deps.hash)
    ));
    for (i, goal) in deps.goals.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"stage\":\"{}\",\"name\":{},\"context\":{},\"key\":{}}}",
            goal.stage.name(),
            json_string(&goal.name),
            json_string(&goal.context),
            json_string(goal.key.as_str()),
        ));
    }
    out.push_str("]}");
}

fn parse_program_line(line: &str) -> Result<(String, ProgramDeps), String> {
    let record = parse_json(line)?;
    let fields = record.as_object()?;
    let name = field_str(fields, "program")?.to_string();
    let hash = field_str(fields, "hash")?.to_string();
    let mut goals = Vec::new();
    for item in get(fields, "goals").ok_or("missing `goals`")?.as_array()? {
        let goal_fields = item.as_object()?;
        goals.push(GoalDep {
            stage: Stage::from_name(field_str(goal_fields, "stage")?)?,
            name: field_str(goal_fields, "name")?.to_string(),
            context: field_str(goal_fields, "context")?.to_string(),
            key: GoalKey::parse(field_str(goal_fields, "key")?),
        });
    }
    Ok((name, ProgramDeps { hash, goals }))
}

/// Loads the depmap at `path` through the verdict store's reader
/// ([`crate::cache`]), keeping it only when the header carries exactly
/// this session's `fingerprint`. A missing file is a clean cold start; a
/// bad or mismatched header (including a verdict-cache fingerprint
/// change — new budgets, encoder, or solver) or a wrong `kind` fails
/// closed into an empty map: **a stale map must never drive a replay**.
/// Individually corrupt program lines are skipped (later lines win on
/// duplicate names); every warning is returned for diagnostics.
pub fn load(path: &Path, fingerprint: &str) -> (DepMap, Vec<String>) {
    let mut map = DepMap::default();
    let warnings = crate::cache::read_log(
        path,
        |header| check_header(header, fingerprint),
        |line| {
            let (name, deps) = parse_program_line(line)?;
            map.programs.insert(name, deps);
            Ok(())
        },
    );
    let warnings = warnings
        .into_iter()
        .map(|w| match w.line {
            0 => format!("depmap {}: {}", path.display(), w.message),
            line => format!("depmap {} line {line}: {}", path.display(), w.message),
        })
        .collect();
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

/// Flushes the records of `names` to the depmap at `path` through the
/// verdict store's writer ([`crate::cache`]): they are appended when the
/// file starts with this `fingerprint`'s header, and otherwise the whole
/// `map` is written in name order. A name `map` does not hold writes
/// nothing. Returns the number of records written.
///
/// # Errors
///
/// Propagates filesystem errors; callers degrade to a warning (a session
/// that cannot persist its map simply starts cold next time).
pub fn persist<'a>(
    path: &Path,
    fingerprint: &str,
    map: &DepMap,
    names: impl IntoIterator<Item = &'a str>,
) -> std::io::Result<u64> {
    let fresh: Vec<(&str, &ProgramDeps)> = names
        .into_iter()
        .filter_map(|name| map.programs.get_key_value(name))
        .map(|(name, deps)| (name.as_str(), deps))
        .collect();
    let all = || {
        map.programs
            .iter()
            .map(|(name, deps)| (name.as_str(), deps))
            .collect()
    };
    crate::cache::write_log(
        path,
        &render_header(fingerprint),
        &fresh,
        all,
        |out, (name, deps)| render_program_line(out, name, deps),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A per-test, per-process path, with no file at it yet.
    fn temp_path(tag: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("relaxed-depmap-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
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
                }],
            },
        );
        map
    }

    #[test]
    fn round_trips_through_disk() {
        let path = temp_path("roundtrip");
        let map = sample_map();
        assert_eq!(persist(&path, "fp-1", &map, []).unwrap(), 1);
        let (loaded, warnings) = load(&path, "fp-1");
        assert_eq!(loaded, map);
        assert!(warnings.is_empty(), "{warnings:?}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fingerprint_mismatch_fails_closed_into_a_cold_map() {
        let path = temp_path("mismatch");
        persist(&path, "fp-old", &sample_map(), []).unwrap();
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
        persist(&path, "fp", &sample_map(), []).unwrap();
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
            }],
        };
        let fresh = vec![
            GoalDep {
                stage: Stage::Original,
                name: "g0".to_string(),
                context: "entry".to_string(),
                key: GoalKey::parse("(k0)"),
            },
            GoalDep {
                stage: Stage::Relaxed,
                name: "g1".to_string(),
                context: "body/1".to_string(),
                key: GoalKey::parse("(k1)"),
            },
            GoalDep {
                stage: Stage::Relaxed,
                name: "g1-dup".to_string(),
                context: "body/2".to_string(),
                key: GoalKey::parse("(k1)"),
            },
        ];
        assert_eq!(dirty_goals(&old, &fresh), vec![1]);
    }

    /// A flush into a sidecar under its own header appends, even after a
    /// record a crashed writer tore mid-line: the older bytes stay as
    /// they are, and the new record starts on a line of its own.
    #[test]
    fn flush_appends_one_line_after_a_torn_record() {
        let path = temp_path("torn");
        // The bytes a whole write of `sample_map` under "fp" leaves, then
        // the first half of another record.
        let old = concat!(
            "{\"format\":3,\"kind\":\"depmap\",\"fingerprint\":\"fp\"}\n",
            "{\"program\":\"swish\",\"hash\":\"rev:00112233\",\"goals\":[{\"stage\":\"original\",",
            "\"name\":\"precondition-establishes-wp\",\"context\":\"entry\",\"key\":\"(valid true)\"}]}\n",
            "{\"program\":\"water\",\"hash\":\"rev:44556677\",\"goals\":[{\"stage\":\"rel",
        );
        std::fs::write(&path, old).unwrap();
        let (mut map, warnings) = load(&path, "fp");
        assert_eq!(map, sample_map());
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].contains("line 3"), "{warnings:?}");

        // A program whose name sorts before every stored one.
        let lu = ProgramDeps {
            hash: "rev:8899aabb".to_string(),
            goals: Vec::new(),
        };
        map.record("lu", lu);
        assert_eq!(persist(&path, "fp", &map, ["lu"]).unwrap(), 1);
        let appended = "{\"program\":\"lu\",\"hash\":\"rev:8899aabb\",\"goals\":[]}\n";
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            format!("{old}\n{appended}")
        );
        let (loaded, warnings) = load(&path, "fp");
        assert_eq!(loaded, map, "both whole records load");
        assert_eq!(
            warnings.len(),
            1,
            "only the torn line is skipped: {warnings:?}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn depmap_path_is_a_sidecar_of_the_cache() {
        assert_eq!(
            depmap_path(Path::new("/tmp/verdicts.jsonl")),
            PathBuf::from("/tmp/verdicts.jsonl.depmap")
        );
    }
}
