//! The persistent on-disk verdict store.
//!
//! The paper's staged proofs (`⊢o`/`⊢i`/`⊢r`) discharge many structurally
//! identical VCs across programs *and across runs*: re-verifying the §5
//! corpus in CI re-proves exactly the goals the previous run already
//! proved. The in-memory verdict cache of
//! [`DischargeEngine`](crate::engine::DischargeEngine) captures the
//! within-run reuse; this module captures the across-run reuse by
//! persisting the cache to disk and reloading it at session start, so a
//! warm re-verification discharges previously-proved goals with zero
//! solver invocations.
//!
//! # Keys and fingerprints
//!
//! Entries are keyed by the [`GoalKey`] — the canonical s-expression
//! rendering of the interned, α-normalized
//! [`BTerm`](relaxed_smt::ast::BTerm) goal (see
//! [`relaxed_smt::intern`]). Encoding restarts bound-variable numbering
//! per goal (see the engine docs) and interning normalizes binder names
//! away, so the key is a *structural* identity: two occurrences of the
//! same obligation, in different programs or different runs — even under
//! α-renaming — map to the same key.
//!
//! A verdict is only as reusable as the configuration that produced it,
//! so the file carries a [`fingerprint`] of everything that can
//! invalidate one:
//!
//! * the cache **format version** ([`FORMAT_VERSION`]) — the file layout
//!   itself;
//! * the **encoder version** ([`ENCODER_VERSION`]) — a changed lowering
//!   re-keys every goal;
//! * the **solver version** ([`SOLVER_VERSION`](relaxed_smt::SOLVER_VERSION))
//!   — a behavioral solver change (a soundness fix, a new preprocessing
//!   pass) must not replay verdicts the old solver produced;
//! * the solver **budgets** (`max_conflicts`, `branch_budget`) — a
//!   budget-starved `Unknown` under one budget may be `Valid` under a
//!   larger one, so verdicts must not travel between budget settings.
//!
//! The worker count is deliberately **excluded**: verdicts are
//! scheduling-independent (the engine's determinism guarantee), so
//! caches are shared freely across worker schedules. A fingerprint
//! mismatch yields an empty (cold) cache rather than an error.
//!
//! # File format
//!
//! A dependency-free, append-friendly JSON-lines log:
//!
//! ```json
//! {"format":1,"fingerprint":"format=1;encoder=2;solver=2;conflicts=200000;branch=20000"}
//! {"goal":"(<= (v |x|) (v |x|))","verdict":"valid"}
//! {"goal":"(>= (v |x|) 5)","verdict":"invalid","model":{"x":"0"}}
//! {"goal":"...","verdict":"unknown","reason":"conflict budget exhausted"}
//! ```
//!
//! The first record is the header; every later record is one verdict
//! (later duplicates of a key win, which makes plain appends valid).
//! Model values are JSON strings so `i128` counterexample witnesses
//! survive exactly. Loading is corruption-tolerant: a line that fails to
//! parse is skipped and reported as a [`CacheWarning`] instead of
//! poisoning the run.
//!
//! # One writer, one reader
//!
//! The store and its depmap sidecar ([`crate::depmap`]) are logs of the
//! same shape: a header naming the configuration, then one record a
//! line, later records winning. `write_log` is the only writer of both.
//! Under an exclusive lock on the file it appends the records new since
//! the last flush when the file starts with the caller's header, and
//! otherwise (a new, empty, foreign or garbage file) writes the header
//! and every record. A log that holds a configuration's records is
//! therefore only ever appended to under that configuration, so sessions
//! and fleet workers sharing one path never drop each other's records.
//! `read_log`, the only reader, takes a shared lock, so it never sees
//! half a flush. [`flush`] and [`load`] render and parse the store's
//! lines through them; [`crate::depmap::persist`] and
//! [`crate::depmap::load`] the sidecar's.
//!
//! # One owner
//!
//! A [`CachePolicy::Persistent`](crate::api::CachePolicy::Persistent)
//! [`Verifier`](crate::api::Verifier) session is the only owner of both
//! files; the discharge engine under it never touches the disk. The
//! session loads both at build and flushes what is new in each on
//! `persist()` or drop. Fleet workers before every job, and service
//! clients after their jobs, read them again, but only a file whose
//! length or modification time changed since its last read (a `FileStamp`,
//! taken before the read, so a flush that lands during a read is read
//! next time).

use crate::encode::ENCODER_VERSION;
use crate::engine::DischargeConfig;
use relaxed_smt::{Model, Validity};
use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::hash::{BuildHasher, Hash, Hasher, RandomState};
use std::io::{self, BufRead, Read, Seek, Write};
use std::path::Path;
use std::sync::OnceLock;

/// Version of the on-disk file layout. Bumping it invalidates every
/// existing cache file (the header check fails closed into a cold start).
pub const FORMAT_VERSION: u32 = 1;

/// The canonical identity of an encoded goal — the verdict-cache key,
/// in memory and on disk.
///
/// Produced by [`GoalKey::of`] by interning the goal into a hash-consing
/// arena ([`relaxed_smt::intern`]) and rendering the root node as a
/// canonical s-expression: the rendering is injective on the solver AST
/// (so distinct goals never collide), α-invariant (binder names
/// normalize to de Bruijn indices, so renamed-but-identical obligations
/// share one key), and independent of Rust's `Debug` formatting. The
/// inner string is private: the only way to observe a key is through
/// [`GoalKey::as_str`]/[`GoalKey::render`], so every cache record and
/// shard frame goes through the one canonical renderer.
///
/// A key carries a digest of its text, computed once when the key is
/// made under a process-wide random seed: [`Hash`] writes only the
/// digest, so a map probe hashes 8 bytes instead of the whole rendering,
/// and the seed keeps the maps' resistance to hash flooding. The digest
/// is never persisted. Equality compares the digest, then the text;
/// order and `Debug` use the text alone.
#[derive(Clone)]
pub struct GoalKey {
    digest: u64,
    text: String,
}

impl GoalKey {
    /// The key of an encoded goal.
    pub fn of(goal: &relaxed_smt::ast::BTerm) -> GoalKey {
        GoalKey::from_text(relaxed_smt::intern::canonical_key(goal))
    }

    fn from_text(text: String) -> GoalKey {
        static SEED: OnceLock<RandomState> = OnceLock::new();
        let digest = SEED.get_or_init(RandomState::new).hash_one(text.as_str());
        GoalKey { digest, text }
    }

    /// The rendered key text (what the `goal` field of a cache record
    /// holds).
    pub fn as_str(&self) -> &str {
        &self.text
    }

    /// Rebuilds a key from its on-disk rendering ([`GoalKey::render`]) —
    /// the crate-internal inverse the cache loader and the depmap loader
    /// share. Never exposed publicly: outside this crate the only way to
    /// obtain a key is [`GoalKey::of`], so foreign text can never pose as
    /// a canonical key.
    pub(crate) fn parse(rendered: &str) -> GoalKey {
        GoalKey::from_text(rendered.to_string())
    }

    /// The explicit on-disk rendering of this key.
    ///
    /// Currently identical to [`GoalKey::as_str`]; it exists as a
    /// separate, versioned entry point so the wire format can evolve
    /// independently of the in-memory identity. Any change to this
    /// rendering must bump [`ENCODER_VERSION`] (or [`FORMAT_VERSION`]) so
    /// stale cached verdicts are never replayed.
    pub fn render(&self) -> String {
        self.text.clone()
    }
}

impl PartialEq for GoalKey {
    fn eq(&self, other: &GoalKey) -> bool {
        self.digest == other.digest && self.text == other.text
    }
}

impl Eq for GoalKey {}

impl Hash for GoalKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.digest);
    }
}

impl PartialOrd for GoalKey {
    fn partial_cmp(&self, other: &GoalKey) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for GoalKey {
    fn cmp(&self, other: &GoalKey) -> std::cmp::Ordering {
        self.text.cmp(&other.text)
    }
}

impl fmt::Debug for GoalKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("GoalKey").field(&self.text).finish()
    }
}

/// The configuration fingerprint a cache file is valid for.
///
/// See the [module docs](self) for what is folded in (format, encoder,
/// solver budgets) and what is deliberately left out (worker count).
pub fn fingerprint(config: &DischargeConfig) -> String {
    format!(
        "format={FORMAT_VERSION};encoder={ENCODER_VERSION};solver={};conflicts={};branch={}",
        relaxed_smt::SOLVER_VERSION,
        config.max_conflicts,
        config.branch_budget
    )
}

/// A non-fatal problem encountered while loading or persisting a cache
/// file. Loading never panics and never fails the session: bad input
/// degrades to a (partially) cold cache plus warnings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheWarning {
    /// 1-based line number the warning refers to; `0` for whole-file
    /// conditions (unreadable file, header mismatch).
    pub line: usize,
    /// What went wrong, and what the loader did about it.
    pub message: String,
}

impl fmt::Display for CacheWarning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "verdict cache: {}", self.message)
        } else {
            write!(f, "verdict cache line {}: {}", self.line, self.message)
        }
    }
}

/// The outcome of [`load`]: the usable entries plus everything that had
/// to be skipped to get them.
#[derive(Debug, Default)]
pub struct LoadedCache {
    /// Verdicts keyed by goal (later duplicates in the file win).
    pub entries: HashMap<GoalKey, Validity>,
    /// Skipped lines and whole-file conditions, in file order.
    pub warnings: Vec<CacheWarning>,
}

/// Loads the verdict cache at `path`, keeping only entries recorded under
/// exactly `fingerprint`. The file is read under a shared lock, so a
/// concurrent [`flush`] is seen whole or not at all.
///
/// A missing file is a clean cold start (no warnings). An unreadable
/// file, a bad header, or a format/fingerprint mismatch yields an empty
/// cache with one explanatory warning. Individually corrupt lines are
/// skipped with one warning each; every well-formed line around them is
/// still used.
pub fn load(path: &Path, fingerprint: &str) -> LoadedCache {
    let mut entries = HashMap::new();
    let warnings = read_log(
        path,
        |header| check_header(header, fingerprint),
        |line| {
            let (key, verdict) = parse_entry(line)?;
            entries.insert(key, verdict);
            Ok(())
        },
    );
    LoadedCache { entries, warnings }
}

/// Writes verdicts to the store at `path` under the header of
/// `fingerprint`: `fresh` is appended when the file starts with that
/// header, and otherwise the file is replaced by it and the entries
/// `all` returns, in key order (see the [module docs](self)). Returns
/// the number of records written.
///
/// # Errors
///
/// Propagates the underlying filesystem error.
pub fn flush(
    path: &Path,
    fingerprint: &str,
    fresh: &[(GoalKey, Validity)],
    all: impl FnOnce() -> Vec<(GoalKey, Validity)>,
) -> io::Result<u64> {
    let sorted = || {
        let mut all = all();
        all.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        all
    };
    write_log(
        path,
        &render_header(fingerprint),
        fresh,
        sorted,
        |out, (key, verdict)| render_entry(out, key, verdict),
    )
}

/// Reads the log at `path` under a shared lock, so a concurrent
/// [`write_log`] is seen whole or not at all: the one reader of the
/// store and of the depmap sidecar. `header` checks the first non-blank
/// line, and `record` takes every later one in file order.
///
/// A missing or empty file reads as no records and no warning. An
/// unreadable file, or a header `header` rejects, yields one warning
/// and no records. Each line `record` rejects is skipped with one
/// warning.
pub(crate) fn read_log(
    path: &Path,
    header: impl FnOnce(&str) -> Result<(), String>,
    mut record: impl FnMut(&str) -> Result<(), String>,
) -> Vec<CacheWarning> {
    let read = || -> io::Result<String> {
        let mut file = fs::File::open(path)?;
        file.lock_shared()?;
        let mut text = String::new();
        file.read_to_string(&mut text)?;
        Ok(text)
    };
    let text = match read() {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Vec::new(),
        Err(e) => {
            return vec![CacheWarning {
                line: 0,
                message: format!("unreadable ({e}); starting cold"),
            }]
        }
    };
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    let Some((header_at, header_line)) = lines.next() else {
        return Vec::new(); // empty file: clean cold start
    };
    if let Err(reason) = header(header_line) {
        return vec![CacheWarning {
            line: header_at + 1,
            message: format!("{reason}; starting cold"),
        }];
    }
    lines
        .filter_map(|(i, line)| {
            record(line).err().map(|reason| CacheWarning {
                line: i + 1,
                message: format!("skipped ({reason})"),
            })
        })
        .collect()
}

/// The length and modification time of a file: a session reads its
/// store or sidecar again only when the file's stamp changed since the
/// last read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct FileStamp {
    len: u64,
    modified: Option<std::time::SystemTime>,
}

impl FileStamp {
    /// The stamp of the file at `path`, or `None` when it cannot be
    /// `stat`ed (a missing file).
    pub(crate) fn of(path: &Path) -> Option<FileStamp> {
        let meta = fs::metadata(path).ok()?;
        Some(FileStamp {
            len: meta.len(),
            modified: meta.modified().ok(),
        })
    }
}

/// Writes records to the log at `path`: the one writer of the store and
/// of the depmap sidecar. It takes an exclusive lock on the file, then
///
/// * when the first line is `header`, appends `fresh`, starting on a new
///   line if a crashed writer left a torn last record;
/// * otherwise (a new, empty, foreign or garbage file) replaces the file
///   with `header` and the records `all` returns, which the caller gives
///   in key order.
///
/// `render` writes one record without its newline. Parent directories
/// are created as needed, and the file is fsynced. Returns the number of
/// records written.
///
/// # Errors
///
/// Propagates the underlying filesystem error.
pub(crate) fn write_log<R>(
    path: &Path,
    header: &str,
    fresh: &[R],
    all: impl FnOnce() -> Vec<R>,
    render: impl Fn(&mut String, &R),
) -> io::Result<u64> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        fs::create_dir_all(parent)?;
    }
    let mut file = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .read(true)
        .open(path)?;
    // Released when `file` drops, after the write.
    file.lock()?;
    let mut first = Vec::new();
    io::BufReader::new((&file).take(header.len() as u64 + 2)).read_until(b'\n', &mut first)?;
    let mut body = String::new();
    let whole: Vec<R>;
    let records = if first.trim_ascii_end() == header.as_bytes() {
        let mut last = [0u8];
        (&file).seek(io::SeekFrom::End(-1))?;
        (&file).read_exact(&mut last)?;
        if last[0] != b'\n' {
            body.push('\n');
        }
        fresh
    } else {
        whole = all();
        file.set_len(0)?;
        body.push_str(header);
        body.push('\n');
        &whole
    };
    for record in records {
        render(&mut body, record);
        body.push('\n');
    }
    // One write call for the whole batch: a torn tail after a crash is
    // exactly what the corruption-tolerant reader skips.
    file.write_all(body.as_bytes())?;
    file.sync_all()?;
    Ok(records.len() as u64)
}

/// Renders a JSON string literal with the escapes RFC 8259 requires —
/// the one escaper behind the cache records, the `CorpusReport` JSON
/// rendering, and the bench harness's `BENCHJSON` lines.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn render_header(fingerprint: &str) -> String {
    format!(
        "{{\"format\":{FORMAT_VERSION},\"fingerprint\":{}}}",
        json_string(fingerprint)
    )
}

fn render_entry(out: &mut String, key: &GoalKey, verdict: &Validity) {
    out.push_str("{\"goal\":");
    out.push_str(&json_string(&key.render()));
    out.push(',');
    render_verdict(out, verdict);
    out.push('}');
}

/// Writes the `"verdict":...` field group of `verdict` — shared between
/// the cache records above and the shard protocol's result frames
/// ([`crate::shard`]), so a verdict has exactly one wire rendering.
pub(crate) fn render_verdict(out: &mut String, verdict: &Validity) {
    match verdict {
        Validity::Valid => out.push_str("\"verdict\":\"valid\""),
        Validity::Unknown(reason) => {
            out.push_str("\"verdict\":\"unknown\",\"reason\":");
            out.push_str(&json_string(reason));
        }
        Validity::Invalid(model) => {
            out.push_str("\"verdict\":\"invalid\",\"model\":{");
            for (i, (name, value)) in model.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&json_string(name));
                out.push(':');
                // Model values ride as strings: i128 witnesses must
                // survive exactly, including through JSON tooling that
                // narrows numbers to doubles.
                out.push_str(&json_string(&value.to_string()));
            }
            out.push('}');
        }
    }
}

/// Accepts the store header of exactly `fingerprint`.
fn check_header(line: &str, fingerprint: &str) -> Result<(), String> {
    let bad = |reason: String| format!("bad header ({reason})");
    let record = parse_json(line).map_err(bad)?;
    let fields = record.as_object().map_err(bad)?;
    let format = field_u64(fields, "format").map_err(bad)?;
    let file_fingerprint = field_str(fields, "fingerprint").map_err(bad)?;
    if format != u64::from(FORMAT_VERSION) {
        return Err(format!(
            "format version {format} (this build writes {FORMAT_VERSION})"
        ));
    }
    if file_fingerprint != fingerprint {
        return Err(format!(
            "fingerprint mismatch (file {file_fingerprint:?}, session {fingerprint:?})"
        ));
    }
    Ok(())
}

fn parse_entry(line: &str) -> Result<(GoalKey, Validity), String> {
    let record = parse_json(line)?;
    let fields = record.as_object()?;
    let goal = GoalKey::parse(field_str(fields, "goal")?);
    Ok((goal, parse_verdict(fields)?))
}

/// Reads the `"verdict":...` field group written by [`render_verdict`]
/// back out of a parsed record — the inverse shared with the shard
/// protocol.
pub(crate) fn parse_verdict(fields: &[(String, Json)]) -> Result<Validity, String> {
    let verdict = match field_str(fields, "verdict")? {
        "valid" => Validity::Valid,
        "unknown" => {
            let reason = match get(fields, "reason") {
                Some(_) => field_str(fields, "reason")?.to_string(),
                None => String::new(),
            };
            Validity::Unknown(reason)
        }
        "invalid" => {
            let model = match get(fields, "model") {
                Some(Json::Obj(pairs)) => pairs,
                Some(_) => return Err("non-object `model`".to_string()),
                None => return Err("missing `model`".to_string()),
            };
            let mut values: Vec<(String, i128)> = Vec::with_capacity(model.len());
            for (name, value) in model {
                let n = match value {
                    Json::Str(s) => s
                        .parse::<i128>()
                        .map_err(|_| format!("non-integer model value {s:?}"))?,
                    Json::Int(n) => *n,
                    _ => return Err("non-scalar value in `model`".to_string()),
                };
                values.push((name.clone(), n));
            }
            Validity::Invalid(values.into_iter().collect::<Model>())
        }
        other => return Err(format!("unknown verdict {other:?}")),
    };
    Ok(verdict)
}

pub(crate) fn get<'a>(fields: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// The string field `key` of a parsed record.
pub(crate) fn field_str<'a>(fields: &'a [(String, Json)], key: &str) -> Result<&'a str, String> {
    match get(fields, key) {
        Some(Json::Str(s)) => Ok(s),
        Some(_) => Err(format!("non-string `{key}`")),
        None => Err(format!("missing `{key}`")),
    }
}

/// The unsigned integer field `key` of a parsed record.
pub(crate) fn field_u64(fields: &[(String, Json)], key: &str) -> Result<u64, String> {
    match get(fields, key) {
        Some(Json::Int(n)) => u64::try_from(*n).map_err(|_| format!("`{key}` out of range")),
        Some(_) => Err(format!("non-integer `{key}`")),
        None => Err(format!("missing `{key}`")),
    }
}

// ---- a minimal JSON reader for the writer above ----
//
// Deliberately just the subset this crate writes — objects, arrays,
// strings, integers — so the cache (and the shard protocol built on the
// same conventions) stays dependency-free. Anything else on a line is a
// parse error, which the loader treats as corruption (skip + warn).

/// A parsed value of the crate's minimal JSON dialect (see
/// [`parse_json`]).
#[derive(Debug, PartialEq)]
pub enum Json {
    /// A string literal.
    Str(String),
    /// An integer (the dialect has no floats).
    Int(i128),
    /// An object, fields in input order.
    Obj(Vec<(String, Json)>),
    /// An array.
    Arr(Vec<Json>),
}

impl Json {
    /// The value's fields, or an error when it is not an object.
    ///
    /// # Errors
    ///
    /// Returns a description when the value is not an object.
    pub fn as_object(&self) -> Result<&[(String, Json)], String> {
        match self {
            Json::Obj(fields) => Ok(fields),
            _ => Err("record is not an object".to_string()),
        }
    }

    /// The value's items, or an error when it is not an array.
    ///
    /// # Errors
    ///
    /// Returns a description when the value is not an array.
    pub fn as_array(&self) -> Result<&[Json], String> {
        match self {
            Json::Arr(items) => Ok(items),
            _ => Err("value is not an array".to_string()),
        }
    }
}

/// How deep [`parse_json`] lets arrays and objects nest. The deepest
/// record this crate writes, a result frame's counterexample model,
/// nests six levels; the parser recurses once per level, so without a
/// limit one hostile line could overflow the parsing thread's stack.
const MAX_JSON_DEPTH: usize = 64;

/// Parses one value of the minimal JSON dialect this crate writes —
/// objects, arrays, strings, integers; no floats, booleans, or nulls.
/// Public so consumers (tests, the `verify_corpus --trace` validator)
/// can check the crate's own JSON artifacts without a serde
/// dependency.
///
/// # Errors
///
/// Returns a position-annotated description of the first syntax error,
/// or of the first array or object nested deeper than 64 levels.
pub fn parse_json(line: &str) -> Result<Json, String> {
    let mut reader = Reader { text: line, at: 0 };
    let value = reader.value(0)?;
    reader.skip_ws();
    if reader.at != line.len() {
        return Err(format!("trailing content at column {}", reader.column()));
    }
    Ok(value)
}

/// A byte cursor over one line of JSON. Every byte the dialect gives a
/// meaning is ASCII, and no such byte occurs inside a UTF-8 sequence, so
/// the cursor only ever rests on char boundaries. Error columns count
/// chars; they are counted only when an error names one.
struct Reader<'a> {
    text: &'a str,
    at: usize,
}

impl Reader<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.at).copied()
    }

    /// The 1-based char column of the cursor.
    fn column(&self) -> usize {
        self.text[..self.at].chars().count() + 1
    }

    /// The char at the cursor, for an error that quotes it.
    fn current(&self) -> char {
        self.text[self.at..].chars().next().unwrap_or_default()
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|b| b.is_ascii_whitespace()) {
            self.at += 1;
        }
    }

    /// Parses the value at the cursor, which sits inside `depth` arrays
    /// and objects.
    fn value(&mut self, depth: usize) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_JSON_DEPTH => Err(format!(
                "nesting deeper than {MAX_JSON_DEPTH} levels at column {}",
                self.column()
            )),
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'-' | b'0'..=b'9') => self.int(),
            Some(_) => Err(format!(
                "unexpected {:?} at column {}",
                self.current(),
                self.column()
            )),
            None => Err("unexpected end of line".to_string()),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.at += 1; // consume '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at column {}", self.column())),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.at += 1; // consume '{'
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(format!("expected ':' at column {}", self.column()));
            }
            self.at += 1;
            let value = self.value(depth)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at column {}", self.column())),
            }
        }
    }

    /// Parses a string literal, copying each run between escapes whole.
    fn string(&mut self) -> Result<String, String> {
        if self.peek() != Some(b'"') {
            return Err(format!("expected string at column {}", self.column()));
        }
        self.at += 1;
        let bytes = self.text.as_bytes();
        let mut out = String::new();
        loop {
            let Some(run) = bytes[self.at..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
            else {
                return Err("unterminated string".to_string());
            };
            let end = self.at + run;
            out.push_str(&self.text[self.at..end]);
            self.at = end + 1;
            if bytes[end] == b'"' {
                return Ok(out);
            }
            match self.peek() {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'u') => {
                    // The four chars after the `u`, hex digits or not.
                    let start = self.at + 1;
                    let hex = match self.text[start..].char_indices().nth(3) {
                        Some((last, c)) => &self.text[start..start + last + c.len_utf8()],
                        None => return Err("truncated \\u escape".to_string()),
                    };
                    let code = u32::from_str_radix(hex, 16)
                        .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                    out.push(char::from_u32(code).ok_or(format!("bad \\u code point {code:#x}"))?);
                    self.at += hex.len();
                }
                Some(_) => return Err(format!("bad escape \\{}", self.current())),
                None => return Err("unterminated escape".to_string()),
            }
            self.at += 1;
        }
    }

    fn int(&mut self) -> Result<Json, String> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.at += 1;
        }
        let text = &self.text[start..self.at];
        text.parse::<i128>()
            .map(Json::Int)
            .map_err(|_| format!("bad integer {text:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relaxed_smt::ast::ITerm;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_file(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "relaxed-cache-unit-{}-{tag}-{}.jsonl",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    /// Writes `entries` whole into a new store at `path`.
    fn create(path: &Path, fingerprint: &str, entries: &[(GoalKey, Validity)]) -> u64 {
        flush(path, fingerprint, &[], || entries.to_vec()).unwrap()
    }

    fn sample_entries() -> Vec<(GoalKey, Validity)> {
        let valid = GoalKey::of(&ITerm::var("x").le(ITerm::var("x")));
        let invalid = GoalKey::of(&ITerm::var("x").ge(ITerm::Const(5)));
        let unknown = GoalKey::of(&ITerm::var("y").le(ITerm::Const(0)));
        // An i128 witness beyond i64: exact round-trip is the point.
        let model: Model = [("x".to_string(), i128::from(i64::MAX) * 40)]
            .into_iter()
            .collect();
        vec![
            (valid, Validity::Valid),
            (invalid, Validity::Invalid(model)),
            (
                unknown,
                Validity::Unknown("weird \"quoted\"\nreason".to_string()),
            ),
        ]
    }

    #[test]
    fn round_trips_all_verdict_kinds_exactly() {
        let path = temp_file("roundtrip");
        let entries = sample_entries();
        assert_eq!(create(&path, "fp", &entries), 3);
        let loaded = load(&path, "fp");
        assert!(loaded.warnings.is_empty(), "{:?}", loaded.warnings);
        assert_eq!(loaded.entries.len(), 3);
        for (key, verdict) in &entries {
            assert_eq!(loaded.entries.get(key), Some(verdict), "{key:?}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_a_clean_cold_start() {
        let loaded = load(&temp_file("missing"), "fp");
        assert!(loaded.entries.is_empty());
        assert!(loaded.warnings.is_empty());
    }

    #[test]
    fn fingerprint_mismatch_yields_empty_cache_with_warning() {
        let path = temp_file("fingerprint");
        let entries = sample_entries();
        create(&path, "fp-old", &entries);
        let loaded = load(&path, "fp-new");
        assert!(loaded.entries.is_empty());
        assert_eq!(loaded.warnings.len(), 1);
        assert!(
            loaded.warnings[0]
                .to_string()
                .contains("fingerprint mismatch"),
            "{}",
            loaded.warnings[0]
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn format_version_mismatch_yields_empty_cache() {
        let path = temp_file("format");
        std::fs::write(&path, "{\"format\":999,\"fingerprint\":\"fp\"}\n").unwrap();
        let loaded = load(&path, "fp");
        assert!(loaded.entries.is_empty());
        assert!(loaded.warnings[0]
            .to_string()
            .contains("format version 999"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_lines_are_skipped_and_reported() {
        let path = temp_file("corrupt");
        let entries = sample_entries();
        create(&path, "fp", &entries);
        // Simulate a torn append and stray garbage.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.insert_str(text.find('\n').unwrap() + 1, "not json at all\n");
        text.push_str("{\"goal\":\"trunc");
        std::fs::write(&path, text).unwrap();
        let loaded = load(&path, "fp");
        assert_eq!(loaded.entries.len(), 3, "good lines survive");
        assert_eq!(loaded.warnings.len(), 2, "{:?}", loaded.warnings);
        assert!(loaded.warnings[0].to_string().contains("line 2"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn garbage_header_is_cold_not_fatal() {
        let path = temp_file("header");
        std::fs::write(&path, "\u{0}\u{1}binary garbage\nmore\n").unwrap();
        let loaded = load(&path, "fp");
        assert!(loaded.entries.is_empty());
        assert_eq!(loaded.warnings.len(), 1);
        assert!(loaded.warnings[0].to_string().contains("bad header"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn appended_duplicate_keys_later_wins() {
        let path = temp_file("append");
        let key = GoalKey::of(&ITerm::var("x").le(ITerm::var("x")));
        create(
            &path,
            "fp",
            &[(key.clone(), Validity::Unknown("old".to_string()))],
        );
        // A plain append, written by hand.
        let mut text = std::fs::read_to_string(&path).unwrap();
        let mut extra = String::new();
        render_entry(&mut extra, &key, &Validity::Valid);
        text.push_str(&extra);
        text.push('\n');
        std::fs::write(&path, text).unwrap();
        let loaded = load(&path, "fp");
        assert_eq!(loaded.entries.get(&key), Some(&Validity::Valid));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fingerprint_tracks_budgets_but_not_workers() {
        let base = DischargeConfig::default();
        let more_workers = DischargeConfig {
            workers: base.workers + 7,
            ..base.clone()
        };
        assert_eq!(fingerprint(&base), fingerprint(&more_workers));
        let other_budget = DischargeConfig {
            max_conflicts: base.max_conflicts + 1,
            ..base
        };
        assert_ne!(fingerprint(&base), fingerprint(&other_budget));
    }

    #[test]
    fn goal_keys_are_structural() {
        let a = GoalKey::of(&ITerm::var("x").le(ITerm::Const(1)));
        let b = GoalKey::of(&ITerm::var("x").le(ITerm::Const(1)));
        let c = GoalKey::of(&ITerm::var("x").le(ITerm::Const(2)));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.as_str(), "(<= (v |x|) 1)");
        assert_eq!(a.render(), a.as_str());
    }

    /// A key read back from disk is the key its goal makes: equal, hashed
    /// alike, found in a map of made keys, and printed alike, while keys
    /// still sort by their text, so a whole write keeps its key order.
    #[test]
    fn parsed_keys_are_the_keys_their_goals_make() {
        let made: Vec<GoalKey> = sample_entries().into_iter().map(|(key, _)| key).collect();
        let state = RandomState::new();
        let map: HashMap<GoalKey, usize> = made.iter().cloned().zip(0..).collect();
        for (i, key) in made.iter().enumerate() {
            let parsed = GoalKey::parse(key.as_str());
            assert_eq!(parsed, *key);
            assert_eq!(state.hash_one(&parsed), state.hash_one(key));
            assert_eq!(map.get(&parsed), Some(&i));
            assert_eq!(
                format!("{parsed:?}"),
                format!("GoalKey({:?})", key.as_str())
            );
        }
        let mut sorted = made.clone();
        sorted.sort();
        let mut texts: Vec<&str> = made.iter().map(GoalKey::as_str).collect();
        texts.sort_unstable();
        assert_eq!(
            sorted.iter().map(GoalKey::as_str).collect::<Vec<_>>(),
            texts
        );
    }

    #[test]
    fn goal_keys_are_alpha_invariant() {
        // ∀x. x ≤ y and ∀z. z ≤ y are the same obligation.
        let a = GoalKey::of(&ITerm::var("x").le(ITerm::var("y")).forall("x"));
        let b = GoalKey::of(&ITerm::var("z").le(ITerm::var("y")).forall("z"));
        assert_eq!(a, b);
        // Renaming the free variable is a different obligation.
        let c = GoalKey::of(&ITerm::var("x").le(ITerm::var("w")).forall("x"));
        assert_ne!(a, c);
    }

    #[test]
    fn parser_rejects_trailing_content_bad_escapes_and_deep_nesting() {
        assert!(parse_json("{\"a\":1} extra").is_err());
        assert!(parse_json("{\"a\":").is_err());
        assert!(parse_json("true").is_err());
        assert!(parse_json("[1").is_err());
        assert!(parse_json("{\"a\":\"\\q\"}").is_err());
        assert!(parse_json("{\"a\":\"\\u12\"}").is_err());
        // \u escapes round-trip (the writer emits them for control chars).
        let Json::Obj(fields) = parse_json("{\"a\":\"\\u0041\\n\"}").unwrap() else {
            panic!("expected object");
        };
        let Json::Str(s) = &fields[0].1 else {
            panic!("expected string");
        };
        assert_eq!(s, "A\n");
        // Nesting: up to the limit parses, one level more is an error,
        let arrays = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse_json(&arrays(MAX_JSON_DEPTH)).is_ok());
        let err = parse_json(&arrays(MAX_JSON_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 64"), "{err}");
        let objects = "{\"a\":".repeat(MAX_JSON_DEPTH + 1) + "1" + &"}".repeat(MAX_JSON_DEPTH + 1);
        assert!(parse_json(&objects).is_err());
        // and far past any stack is an error, not an abort.
        assert!(parse_json(&arrays(300_000)).is_err());
    }

    #[test]
    fn flush_creates_with_header_then_appends_without() {
        let path = temp_file("flush-grow");
        let entries = sample_entries();
        let (first, rest) = entries.split_at(1);
        assert_eq!(flush(&path, "fp", first, || first.to_vec()).unwrap(), 1);
        let whole = || -> Vec<(GoalKey, Validity)> {
            panic!("a store under its own header is never rewritten")
        };
        assert_eq!(flush(&path, "fp", rest, whole).unwrap(), 2);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            text.matches("\"format\"").count(),
            1,
            "exactly one header: {text}"
        );
        let loaded = load(&path, "fp");
        assert!(loaded.warnings.is_empty(), "{:?}", loaded.warnings);
        assert_eq!(loaded.entries.len(), 3);
        assert_eq!(flush(&path, "fp", &[], whole).unwrap(), 0);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn flush_replaces_a_foreign_or_headerless_store_whole_in_key_order() {
        let path = temp_file("flush-foreign");
        let entries = sample_entries();
        let mut sorted = entries.clone();
        sorted.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut expected = render_header("fp-b") + "\n";
        for (key, verdict) in &sorted {
            render_entry(&mut expected, key, verdict);
            expected.push('\n');
        }
        // Another configuration's store, one with no header at all, and
        // one that is not even text.
        let foreign = render_header("fp-a") + "\n";
        let stores: [&[u8]; 3] = [foreign.as_bytes(), b"x\n", b"\xff\xfe\x00garbage"];
        for store in stores {
            std::fs::write(&path, store).unwrap();
            let written = flush(&path, "fp-b", &entries[..1], || entries.clone()).unwrap();
            assert_eq!(written, 3);
            assert_eq!(std::fs::read_to_string(&path).unwrap(), expected);
            let loaded = load(&path, "fp-b");
            assert!(loaded.warnings.is_empty(), "{:?}", loaded.warnings);
            assert_eq!(loaded.entries.len(), 3);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn flush_after_a_torn_tail_starts_on_a_new_line() {
        let path = temp_file("flush-torn");
        let entries = sample_entries();
        create(&path, "fp", &entries[..1]);
        // A writer crashed mid-record: the file ends without a newline.
        let mut torn = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        torn.write_all(b"{\"goal\":\"torn-off mid-wr").unwrap();
        drop(torn);
        let whole = || -> Vec<(GoalKey, Validity)> {
            panic!("a store under its own header is never rewritten")
        };
        assert_eq!(flush(&path, "fp", &entries[1..], whole).unwrap(), 2);
        let loaded = load(&path, "fp");
        assert_eq!(loaded.entries.len(), 3, "both appended records load");
        assert_eq!(loaded.warnings.len(), 1, "{:?}", loaded.warnings);
        assert!(loaded.warnings[0].to_string().contains("line 3"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn concurrent_appends_to_a_new_store_write_one_header() {
        let path = temp_file("append-race");
        let keys: Vec<GoalKey> = (0..4)
            .map(|i| GoalKey::of(&ITerm::var("w").le(ITerm::Const(i))))
            .collect();
        for round in 0..20 {
            let _ = std::fs::remove_file(&path);
            let barrier = std::sync::Barrier::new(keys.len());
            std::thread::scope(|scope| {
                for key in &keys {
                    let (path, barrier) = (&path, &barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        let entry = [(key.clone(), Validity::Valid)];
                        flush(path, "fp", &entry, || entry.to_vec()).unwrap();
                    });
                }
            });
            let loaded = load(&path, "fp");
            assert!(
                loaded.warnings.is_empty(),
                "round {round}: {:?}",
                loaded.warnings
            );
            assert_eq!(loaded.entries.len(), keys.len(), "round {round}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn parser_reads_arrays() {
        // Arrays carry the shard protocol's per-stage verdict lists.
        let Json::Obj(fields) = parse_json("{\"a\":[1,{\"b\":\"c\"},[]]}").unwrap() else {
            panic!("expected object");
        };
        let items = fields[0].1.as_array().unwrap();
        assert_eq!(items.len(), 3);
        assert!(matches!(items[0], Json::Int(1)));
        assert!(items[1].as_object().is_ok());
        assert!(items[2].as_array().unwrap().is_empty());
        assert!(parse_json("{\"a\":1}").unwrap().as_array().is_err());
    }

    /// A splitmix64 stream: the differential test's only source of
    /// variation, so a failure reproduces from the seed.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
            items[self.below(items.len())]
        }
    }

    /// One of each record the crate writes, over the paper's corpus: the
    /// verdict store and its depmap sidecar as a persistent session
    /// leaves them; the config and job frames a worker reads and the
    /// `ready`, result (the broken programs' with `Invalid` witnesses),
    /// vcgen-failure and error frames it writes; a traced result frame
    /// whose spans carry every kind of argument; and the daemon's own
    /// frames.
    fn corpus_records() -> Vec<String> {
        use crate::shard::{prepare_jobs, render_config_frame, render_result_frame, worker_loop};
        use crate::telemetry::{ArgValue, Event};
        use crate::{Spec, Verifier};
        let corpus = crate::test_corpus();
        let mut records = Vec::new();

        let path = temp_file("differential");
        let session = Verifier::builder().workers(1).cache_file(&path).build();
        session.check_corpus_named(&corpus);
        session.persist().unwrap();
        drop(session);
        for file in [path.clone(), crate::depmap::depmap_path(&path)] {
            let text = std::fs::read_to_string(&file).unwrap();
            records.extend(text.lines().map(str::to_string));
            std::fs::remove_file(&file).unwrap();
        }

        let unannotated = relaxed_lang::parse_program(
            "i = 0; while (i < n) rinvariant (i<o> == i<r> && n<o> == n<r>) { i = i + 1; }",
        )
        .unwrap();
        let unannotated_spec = Spec::synced(&unannotated);
        let mut programs: Vec<(String, &relaxed_lang::Program, &Spec)> = corpus
            .iter()
            .map(|(name, program, spec)| (name.to_string(), program, spec))
            .collect();
        programs.push(("unannotated".to_string(), &unannotated, &unannotated_spec));
        let mut input = vec![render_config_frame(&crate::Config::default(), 1)];
        input.extend(prepare_jobs(&programs).into_iter().map(|job| job.frame));
        input.push(
            "{\"type\":\"job\",\"id\":9,\"name\":\"bad\",\"program\":\"while (\",\
             \"pre\":\"true\",\"post\":\"true\",\"rel_pre\":\"true\",\"rel_post\":\"true\"}"
                .to_string(),
        );
        let mut output = Vec::new();
        worker_loop(
            (input.join("\n") + "\n").as_bytes(),
            &mut output,
            crate::shard::Fault::None,
        )
        .unwrap();
        let output = String::from_utf8(output).unwrap();
        assert_eq!(output.lines().count(), programs.len() + 2, "{output}");
        records.extend(output.lines().map(str::to_string));
        records.extend(input);
        let persistent = crate::Config {
            cache: crate::CachePolicy::Persistent {
                path: "/var/cache/relaxed \"store\".jsonl".into(),
            },
            ..crate::Config::default()
        };
        records.push(render_config_frame(&persistent, 4));

        let (_, program, spec) = &corpus[3];
        let report = Verifier::builder()
            .workers(1)
            .build()
            .check(program, spec)
            .unwrap();
        let args = vec![
            (
                "goal".into(),
                ArgValue::Str("(<= (v |x|) 1)\n\u{1}".to_string()),
            ),
            ("decisions".into(), ArgValue::U64(u64::MAX)),
            ("delta".into(), ArgValue::I64(i64::MIN)),
        ];
        let spans: Vec<Event> = (0..3)
            .map(|i| Event {
                name: "solve".into(),
                cat: "engine".into(),
                ts_us: 100 + i,
                dur_us: 7,
                pid: 0,
                tid: i,
                args: if i == 1 { Vec::new() } else { args.clone() },
            })
            .collect();
        records.push(render_result_frame(3, &report, 12, &spans, 50));

        records.extend(crate::service::sample_frames());
        records
    }

    /// Both readers on `text`: equal values, or equal error texts.
    fn assert_readers_agree(text: &str) {
        assert_eq!(parse_json(text), oracle::parse_json(text), "on {text:?}");
    }

    /// The byte reader returns what the char reader it replaced returns,
    /// value or error text, on every record the crate writes for the
    /// corpus and on seeded mutations of them: every truncation, single
    /// ASCII byte flips, inserted escapes (`\\u` ones with surrogates
    /// among them), non-ASCII text, and nesting at 63, 64 and 65 levels.
    #[test]
    fn the_byte_reader_agrees_with_the_char_reader() {
        let records = corpus_records();
        assert!(
            records
                .iter()
                .any(|r| r.contains("\"verdict\":\"invalid\"")),
            "a result frame carries a witness"
        );
        let mut rng = Rng(0x5eed_0007);
        let flips = [
            "\"", "\\", "{", "}", "[", "]", ":", ",", "-", "0", "9", " ", "\t", "u", "x",
        ];
        let escapes = [
            "\\n",
            "\\\"",
            "\\\\",
            "\\/",
            "\\t",
            "\\r",
            "\\q",
            "\\",
            "\\u0041",
            "\\u00e9",
            "\\uD800",
            "\\uDBFF\\uDC00",
            "\\udfff",
            "\\u12",
            "\\u+041",
            "\\u00é1",
            "\\u",
            "\\U0041",
            "\\u0000",
        ];
        let foreign = ["é", "漢字", "😀", "\u{7f}", "\u{0}", "\"é\"", "\"😀\":"];
        let mut checked = 0usize;
        for record in &records {
            assert_readers_agree(record);
            let boundaries: Vec<usize> = record
                .char_indices()
                .map(|(at, _)| at)
                .chain([record.len()])
                .collect();
            for &end in &boundaries {
                assert_readers_agree(&record[..end]);
            }
            let ascii: Vec<usize> = record
                .bytes()
                .enumerate()
                .filter(|(_, b)| b.is_ascii())
                .map(|(at, _)| at)
                .collect();
            for _ in 0..64 {
                let at = ascii[rng.below(ascii.len())];
                let mut flipped = record.clone();
                flipped.replace_range(at..=at, rng.pick(&flips));
                assert_readers_agree(&flipped);
                for insert in [rng.pick(&escapes), rng.pick(&foreign)] {
                    let at = boundaries[rng.below(boundaries.len())];
                    let mut grown = record.clone();
                    grown.insert_str(at, insert);
                    assert_readers_agree(&grown);
                }
            }
            checked += boundaries.len() + 3 * 64;
        }
        for depth in [63, 64, 65] {
            let arrays = "[".repeat(depth) + &"]".repeat(depth);
            let objects = "{\"a\":".repeat(depth) + "1" + &"}".repeat(depth);
            let mixed = "[{\"é\":".repeat(depth / 2) + "[]" + &"}]".repeat(depth / 2);
            let around = format!(
                "{{\"x\":{}}}",
                "[".repeat(depth - 1) + &records[0] + &"]".repeat(depth - 1)
            );
            for text in [arrays, objects, mixed, around] {
                assert_readers_agree(&text);
                assert_readers_agree(&text[..text.len() - 1]);
            }
        }
        assert!(checked > 10_000, "{checked}");
    }

    /// The reader `parse_json` replaced, kept verbatim as the oracle of
    /// `the_byte_reader_agrees_with_the_char_reader`: it walks a
    /// `Vec<char>` copy of the line.
    mod oracle {
        use super::super::{Json, MAX_JSON_DEPTH};

        pub(super) fn parse_json(line: &str) -> Result<Json, String> {
            let chars: Vec<char> = line.chars().collect();
            let mut at = 0usize;
            let value = parse_value(&chars, &mut at, 0)?;
            skip_ws(&chars, &mut at);
            if at != chars.len() {
                return Err(format!("trailing content at column {}", at + 1));
            }
            Ok(value)
        }

        fn skip_ws(chars: &[char], at: &mut usize) {
            while chars.get(*at).is_some_and(|c| c.is_ascii_whitespace()) {
                *at += 1;
            }
        }

        /// Parses the value at `at`, which sits inside `depth` arrays and
        /// objects.
        fn parse_value(chars: &[char], at: &mut usize, depth: usize) -> Result<Json, String> {
            skip_ws(chars, at);
            match chars.get(*at) {
                Some('{' | '[') if depth == MAX_JSON_DEPTH => Err(format!(
                    "nesting deeper than {MAX_JSON_DEPTH} levels at column {}",
                    *at + 1
                )),
                Some('{') => parse_object(chars, at, depth + 1),
                Some('[') => parse_array(chars, at, depth + 1),
                Some('"') => Ok(Json::Str(parse_string(chars, at)?)),
                Some(c) if *c == '-' || c.is_ascii_digit() => parse_int(chars, at),
                Some(c) => Err(format!("unexpected {c:?} at column {}", *at + 1)),
                None => Err("unexpected end of line".to_string()),
            }
        }

        fn parse_array(chars: &[char], at: &mut usize, depth: usize) -> Result<Json, String> {
            *at += 1; // consume '['
            let mut items = Vec::new();
            skip_ws(chars, at);
            if chars.get(*at) == Some(&']') {
                *at += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(chars, at, depth)?);
                skip_ws(chars, at);
                match chars.get(*at) {
                    Some(',') => *at += 1,
                    Some(']') => {
                        *at += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at column {}", *at + 1)),
                }
            }
        }

        fn parse_object(chars: &[char], at: &mut usize, depth: usize) -> Result<Json, String> {
            *at += 1; // consume '{'
            let mut fields = Vec::new();
            skip_ws(chars, at);
            if chars.get(*at) == Some(&'}') {
                *at += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(chars, at);
                let key = parse_string(chars, at)?;
                skip_ws(chars, at);
                if chars.get(*at) != Some(&':') {
                    return Err(format!("expected ':' at column {}", *at + 1));
                }
                *at += 1;
                let value = parse_value(chars, at, depth)?;
                fields.push((key, value));
                skip_ws(chars, at);
                match chars.get(*at) {
                    Some(',') => *at += 1,
                    Some('}') => {
                        *at += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at column {}", *at + 1)),
                }
            }
        }

        fn parse_string(chars: &[char], at: &mut usize) -> Result<String, String> {
            if chars.get(*at) != Some(&'"') {
                return Err(format!("expected string at column {}", *at + 1));
            }
            *at += 1;
            let mut out = String::new();
            loop {
                match chars.get(*at) {
                    None => return Err("unterminated string".to_string()),
                    Some('"') => {
                        *at += 1;
                        return Ok(out);
                    }
                    Some('\\') => {
                        *at += 1;
                        match chars.get(*at) {
                            Some('"') => out.push('"'),
                            Some('\\') => out.push('\\'),
                            Some('/') => out.push('/'),
                            Some('n') => out.push('\n'),
                            Some('r') => out.push('\r'),
                            Some('t') => out.push('\t'),
                            Some('u') => {
                                let hex: String = chars
                                    .get(*at + 1..*at + 5)
                                    .ok_or("truncated \\u escape")?
                                    .iter()
                                    .collect();
                                let code = u32::from_str_radix(&hex, 16)
                                    .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                                out.push(
                                    char::from_u32(code)
                                        .ok_or(format!("bad \\u code point {code:#x}"))?,
                                );
                                *at += 4;
                            }
                            Some(c) => return Err(format!("bad escape \\{c}")),
                            None => return Err("unterminated escape".to_string()),
                        }
                        *at += 1;
                    }
                    Some(c) => {
                        out.push(*c);
                        *at += 1;
                    }
                }
            }
        }

        fn parse_int(chars: &[char], at: &mut usize) -> Result<Json, String> {
            let start = *at;
            if chars.get(*at) == Some(&'-') {
                *at += 1;
            }
            while chars.get(*at).is_some_and(char::is_ascii_digit) {
                *at += 1;
            }
            let text: String = chars[start..*at].iter().collect();
            text.parse::<i128>()
                .map(Json::Int)
                .map_err(|_| format!("bad integer {text:?}"))
        }
    }
}
