//! Seeded inputs and the known-answer gate.

use relaxed_core::{AcceptabilityReport, CorpusReport, Spec};
use relaxed_lang::{parse_formula, Program};
use relaxed_programs::casestudies;
use relaxed_smt::Validity;

/// SplitMix64: the benchmark's only source of input variation, so one
/// seed always yields the same inputs.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A seeded permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, self.below(i + 1));
        }
        order
    }
}

/// A program's known answer: whether it verifies, and how many of its
/// obligations end `Unknown`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Answer {
    /// Whether every obligation is proved.
    pub verifies: bool,
    /// Obligations the solver leaves `Unknown`.
    pub unknowns: usize,
}

/// The known answers of the six §5 programs. The case studies verify and
/// each `_broken` mutation fails. `lu_broken`'s failing relational loop
/// invariant ends `Unknown`, not `Invalid`: its quantified array
/// hypothesis is instantiated incompletely, so the solver trusts no
/// countermodel.
pub const KNOWN: [(&str, Answer); 6] = [
    ("swish", Answer::verifies()),
    ("water", Answer::verifies()),
    ("lu", Answer::verifies()),
    ("swish_broken", Answer::fails(0)),
    ("water_broken", Answer::fails(0)),
    ("lu_broken", Answer::fails(1)),
];

impl Answer {
    /// Every obligation proved.
    pub const fn verifies() -> Answer {
        Answer {
            verifies: true,
            unknowns: 0,
        }
    }

    /// Not verified, with `unknowns` obligations left `Unknown`.
    pub const fn fails(unknowns: usize) -> Answer {
        Answer {
            verifies: false,
            unknowns,
        }
    }
}

/// A corpus in the shape `Verifier::check_corpus_named` takes, with the
/// known answer of every entry.
#[derive(Clone, Debug, Default)]
pub struct Corpus {
    /// `(name, program, spec)` in check order.
    pub entries: Vec<(&'static str, Program, Spec)>,
    /// Known answer per entry.
    pub expected: Vec<Answer>,
}

impl Corpus {
    /// The six §5 programs: the three case studies and their `_broken`
    /// mutations, with the answers of [`KNOWN`].
    pub fn six() -> Corpus {
        let mut corpus = Corpus::default();
        for (name, program, spec) in casestudies::corpus() {
            let (_, answer) = KNOWN
                .iter()
                .find(|(known, _)| *known == name)
                .expect("every case study has a known answer");
            corpus.entries.push((name, program, spec));
            corpus.expected.push(*answer);
        }
        corpus
    }

    /// The same entries in `order`.
    pub fn reordered(&self, order: &[usize]) -> Corpus {
        Corpus {
            entries: order.iter().map(|&i| self.entries[i].clone()).collect(),
            expected: order.iter().map(|&i| self.expected[i]).collect(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The `edit_stream` corpus: `variants` revisions of each of the six
/// programs. Revision `k` conjoins a seeded fact over a fresh variable to
/// the precondition. A satisfiable fact over a variable nothing else
/// mentions changes no verdict, so each revision keeps its program's
/// known answer.
#[derive(Clone, Debug)]
pub struct EditCorpus {
    /// The revisions and their known answers.
    pub corpus: Corpus,
    /// Each revision's precondition before its edit conjunct.
    pub base_pre: Vec<String>,
}

impl EditCorpus {
    /// Generates the corpus for `seed`.
    pub fn generate(seed: u64, variants: usize) -> EditCorpus {
        let mut rng = Rng::new(seed);
        let six = Corpus::six();
        let mut corpus = Corpus::default();
        let mut base_pre = Vec::new();
        for k in 0..variants {
            for ((name, program, spec), &answer) in six.entries.iter().zip(&six.expected) {
                let base = spec.pre.to_string();
                let fact = format!(
                    "f{k}_{} >= {}",
                    rng.below(1000),
                    rng.below(200) as i64 - 100
                );
                let mut spec = spec.clone();
                spec.pre = parse_formula(&format!("({base}) && {fact}"))
                    .expect("a generated precondition parses");
                // Names live for the whole process, which is what the
                // borrowed corpus view needs.
                let name: &'static str = Box::leak(format!("{name}_v{k}").into_boxed_str());
                corpus.entries.push((name, program.clone(), spec));
                corpus.expected.push(answer);
                base_pre.push(base);
            }
        }
        EditCorpus { corpus, base_pre }
    }

    /// Replaces revision `index`'s edit conjunct with `edit_<edit> >= 0`,
    /// a fact over a variable no earlier edit used.
    pub fn edit(&mut self, index: usize, edit: u64) {
        let source = format!("({}) && edit_{edit} >= 0", self.base_pre[index]);
        self.corpus.entries[index].2.pre =
            parse_formula(&source).expect("an edited precondition parses");
    }
}

/// Counts the `Unknown` verdicts of one program's report.
pub fn unknowns(report: &AcceptabilityReport) -> usize {
    [
        Some(&report.original),
        report.intermediate.as_ref(),
        Some(&report.relaxed),
    ]
    .into_iter()
    .flatten()
    .flat_map(|stage| &stage.results)
    .filter(|result| matches!(result.verdict, Validity::Unknown(_)))
    .count()
}

/// The known-answer gate: `Ok` when `report` answers every entry of
/// `corpus`, in order, with its known verdict. A wrong verdict, an
/// `Unknown` the known answer does not have, or a `CorpusError` (which is
/// how a refused or failed service request surfaces) fails the op.
///
/// # Errors
///
/// Describes the first entry that fails.
pub fn check(report: &CorpusReport, corpus: &Corpus) -> Result<(), String> {
    if report.len() != corpus.len() {
        return Err(format!(
            "{} entries reported for {} programs",
            report.len(),
            corpus.len()
        ));
    }
    for ((entry, (name, _, _)), known) in report
        .entries
        .iter()
        .zip(&corpus.entries)
        .zip(&corpus.expected)
    {
        if entry.name != *name {
            return Err(format!(
                "entry {:?} reported in place of {name:?}",
                entry.name
            ));
        }
        let outcome = entry.outcome.as_ref().map_err(|e| format!("{name}: {e}"))?;
        let answer = Answer {
            verifies: outcome.verified(),
            unknowns: unknowns(outcome),
        };
        if answer != *known {
            return Err(format!(
                "{name}: answered {answer:?}, known answer {known:?}"
            ));
        }
    }
    Ok(())
}
