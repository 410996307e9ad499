//! The four workloads. Each is a closed loop with one client: the next
//! operation starts only after the previous one has finished.
//!
//! * `cold-start` — build one grammar from its sources, then parse one
//!   small sample with every engine; cycles through all nine grammars.
//! * `batch-small` — warm engines parse a seeded corpus of 1–16 KiB
//!   documents (an operation is one document through every engine).
//! * `batch-large` — warm engines parse a Java and a C document of
//!   256 KiB (an operation is one document through one engine).
//! * `edit-session` — one incremental interpreter session on a 128 KiB
//!   Java document runs a seeded edit script, pass after pass (an
//!   operation is one edit followed by a reparse); after each pass a
//!   checkpoint parses the edited text from scratch with every engine.

use std::path::Path;
use std::rc::Rc;
use std::time::{Duration, Instant};

use modpeg_baseline::BacktrackParser;
use modpeg_interp::{CompiledGrammar, OptConfig};
use modpeg_runtime::recover::Diagnostics;
use modpeg_runtime::{scan, EventCounts, RecoverPolicy, SyntaxTree};
use modpeg_session::ParseSession;
use modpeg_workload::rng::StdRng;

use crate::inputs::{self, tree_digest, tree_events, Digests, Edit, EditScript};
use crate::measure::{elapsed_ns, Leg, Recorder};
use crate::pipeline::{self, Built, GrammarSpec};
use crate::trace;

/// Run settings shared by every workload.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// The checkout root: grammar files and the malformed corpus are read
    /// from here.
    pub root: std::path::PathBuf,
    /// Directory for the results, the trace, and generated CLI inputs.
    pub out: std::path::PathBuf,
    /// The `modpeg` command-line binary, for the cold-CLI measurement.
    pub cli: Option<std::path::PathBuf>,
    pub rec: Recorder,
    pub digests: Digests,
}

pub fn run(name: &str, ctx: &mut Ctx) -> Result<(), String> {
    match name {
        "cold-start" => cold_start(ctx),
        "batch-small" => batch(ctx, false),
        "batch-large" => batch(ctx, true),
        "edit-session" => edit_session(ctx),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn rng_for(seed: u64, salt: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt)
}

fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

/// The timed set-ups of a workload: sources to ready engines (plus, for
/// `edit-session`, an incremental session's priming parse). A few run
/// back to back before the loop; the rest are spread across the run, so
/// `setup_s` (their median) samples the same machine conditions as the
/// operations. Every set-up checks that the code generator is
/// deterministic and that the calc bytecode matches its golden.
struct Setups {
    specs: Vec<&'static GrammarSpec>,
    /// Document the set-up primes a session on, if any.
    prime: Option<String>,
    golden: String,
    interval: Duration,
    next_at: Instant,
}

/// Set-ups before the loop, and in all.
const SETUPS_FIRST: usize = 3;
const SETUPS: usize = 11;

impl Setups {
    fn new(
        ctx: &Ctx,
        specs: &[&'static GrammarSpec],
        prime: Option<String>,
    ) -> Result<Setups, String> {
        Ok(Setups {
            specs: specs.to_vec(),
            prime,
            golden: read(&ctx.root, "crates/conformance/tests/golden/calc.bytecode")?,
            interval: Duration::from_secs_f64(ctx.seconds / (SETUPS - SETUPS_FIRST + 1) as f64),
            next_at: Instant::now(),
        })
    }

    /// Runs one timed set-up; `reference` is an earlier one to compare
    /// emissions with.
    fn run(
        &self,
        rec: &mut Recorder,
        reference: Option<&[Built]>,
    ) -> Result<(Vec<Built>, Option<ParseSession>), String> {
        let (built, session) = rec.setup(|rec| -> Result<_, String> {
            let built = self
                .specs
                .iter()
                .map(|s| pipeline::build(s))
                .collect::<Result<Vec<_>, _>>()?;
            let session = match &self.prime {
                Some(doc) => Some(prime_session(rec, &built[0], doc)?),
                None => None,
            };
            Ok((built, session))
        })?;
        rec.checks(|rec| {
            for b in &built {
                if rec.trace {
                    rec.builds.push((b.spec.name, b.counts.clone()));
                }
                let earlier = reference.and_then(|r| find(r, b.spec.name));
                check_build(rec, b, earlier, &self.golden);
            }
        });
        Ok((built, session))
    }

    /// The set-ups before the loop; returns the engines of the last one.
    fn first(&mut self, rec: &mut Recorder) -> Result<(Vec<Built>, Option<ParseSession>), String> {
        let mut last = self.run(rec, None)?;
        for _ in 1..SETUPS_FIRST {
            last = self.run(rec, Some(&last.0))?;
        }
        self.next_at = Instant::now() + self.interval;
        Ok(last)
    }

    /// Between operations: runs a set-up when one is due.
    fn tick(&mut self, rec: &mut Recorder, reference: &[Built]) -> Result<(), String> {
        if rec.setup_s.len() < SETUPS && Instant::now() >= self.next_at {
            self.run(rec, Some(reference))?;
            self.next_at = Instant::now() + self.interval;
        }
        Ok(())
    }
}

fn find<'a>(built: &'a [Built], name: &str) -> Option<&'a Built> {
    built.iter().find(|b| b.spec.name == name)
}

/// Checks one build: the emitted parser source equals an earlier
/// emission for the same grammar, and calc's bytecode equals the golden.
fn check_build(rec: &mut Recorder, b: &Built, earlier: Option<&Built>, golden: &str) {
    if let Some(e) = earlier {
        rec.check(e.codegen_source == b.codegen_source, || {
            format!("{}: two code generator emissions differ", b.spec.name)
        });
    }
    if b.spec.name == "calc" {
        let listing = b.vm.disassemble();
        rec.check(listing.trim_end() == golden.trim_end(), || {
            "calc bytecode differs from crates/conformance/tests/golden/calc.bytecode".into()
        });
    }
}

fn read(root: &Path, rel: &str) -> Result<String, String> {
    std::fs::read_to_string(root.join(rel)).map_err(|e| format!("{rel}: {e}"))
}

/// What every engine must produce for one document, established once
/// outside the timed loop.
enum Expect {
    /// A valid document: the owned tree's digest and its event counts.
    Tree { digest: u64, events: EventCounts },
    /// A corrupted document: the recovered tree's digest and diagnostics.
    Recovered {
        digest: u64,
        diagnostics: Diagnostics,
    },
}

/// Establishes the expected outputs for `text` and checks them across
/// engines: for a valid document the baseline recognizer accepts it and
/// the VM parses it; for a corrupted one the three engines' recovered
/// diagnostics agree (and match `golden`, when given).
fn expect(
    rec: &mut Recorder,
    b: &Built,
    text: &str,
    corrupted: bool,
    golden: Option<(&str, &str)>,
) -> Expect {
    if !corrupted {
        let accepted = BacktrackParser::new(&b.grammar).recognize(text).is_ok();
        rec.check(accepted, || {
            format!("{}: baseline rejects a valid document", b.spec.name)
        });
        return match b.vm.parse(text) {
            Ok(tree) => Expect::Tree {
                digest: tree_digest(tree.root(), text),
                events: tree_events(tree.root()),
            },
            Err(e) => {
                rec.check(false, || {
                    format!("{}: vm rejects a valid document: {e}", b.spec.name)
                });
                Expect::Tree {
                    digest: 0,
                    events: EventCounts::default(),
                }
            }
        };
    }
    let own = b.vm.recover_policy();
    for (engine, p) in [
        ("interp", b.interp.recover_policy()),
        ("codegen", (b.spec.policy)()),
    ] {
        rec.check(p == own, || {
            format!("{}: {engine} recovery policy differs from vm", b.spec.name)
        });
    }
    let policy = policy(b);
    let vm = b.vm.parse_resilient(text, &policy);
    let interp = b.interp.parse_resilient(text, &policy);
    let generated = (b.spec.resilient)(text, &policy);
    let digest = tree_digest(vm.tree.root(), text);
    for (engine, other) in [("interp", &interp), ("codegen", &generated)] {
        rec.check(other.diagnostics == vm.diagnostics, || {
            format!(
                "{}: {engine} recovered diagnostics differ from vm",
                b.spec.name
            )
        });
        rec.check(tree_digest(other.tree.root(), text) == digest, || {
            format!("{}: {engine} recovered tree differs from vm", b.spec.name)
        });
    }
    rec.check(!vm.diagnostics.is_clean(), || {
        format!(
            "{}: corrupted document recovered without errors",
            b.spec.name
        )
    });
    if let Some((path, expected)) = golden {
        rec.check(vm.diagnostics.render_human(path) == expected, || {
            format!("{path}: diagnostics differ from {path}.expected")
        });
    }
    Expect::Recovered {
        digest,
        diagnostics: vm.diagnostics,
    }
}

/// Recovery error budget for the benchmark's corrupted documents: large
/// enough that no recovery stops early and skips the rest of its
/// document (with the default budget of 20, a cascade of diagnostics can
/// end recovery after the first few KiB).
const RECOVER_MAX_ERRORS: usize = 1 << 20;

/// Seeded errors for a corrupted copy of a document of `len` bytes: one
/// per 4 KiB, from two to 64.
fn errors_for(len: usize) -> usize {
    (len / 4096).clamp(2, 64)
}

/// A copy of `doc` with `k` evenly spaced characters replaced by `U+0001`,
/// which no shipped grammar accepts outside comments and strings.
fn corrupt(doc: &str, k: usize) -> String {
    modpeg_conformance::seed_errors(doc, k).0
}

/// The recovery policy every engine runs the benchmark's documents with.
fn policy(b: &Built) -> RecoverPolicy {
    b.vm.recover_policy().with_max_errors(RECOVER_MAX_ERRORS)
}

/// Output of one leg, kept for checking after the timer stopped.
enum Output {
    Tree(Result<SyntaxTree, String>),
    Events(Result<EventCounts, String>),
    Recovered(modpeg_runtime::Recovered<SyntaxTree>),
}

/// Runs `leg` of `b` over `text` inside the timed region.
fn run_leg(
    rec: &mut Recorder,
    b: &Built,
    policy: &RecoverPolicy,
    leg: Leg,
    key: u64,
    text: &str,
) -> Output {
    let n = text.len();
    match leg {
        Leg::Interp => Output::Tree(
            rec.leg(leg, key, n, || b.interp.parse(text))
                .map_err(|e| e.to_string()),
        ),
        Leg::Vm => {
            let (tree, stats) = rec.leg(leg, key, n, || b.vm.parse_with_stats(text));
            rec.vm_counters(&stats, n);
            Output::Tree(tree.map_err(|e| e.to_string()))
        }
        Leg::Codegen => Output::Tree(
            rec.leg(leg, key, n, || (b.spec.parse)(text))
                .map_err(|e| e.to_string()),
        ),
        Leg::VmEvents => Output::Events(
            rec.leg(leg, key, n, || {
                let mut counts = EventCounts::default();
                b.vm.parse_events(text, &mut counts).map(|()| counts)
            })
            .map_err(|e| e.to_string()),
        ),
        Leg::VmRecover => {
            let r = rec.leg(leg, key, n, || b.vm.parse_resilient(text, policy));
            if rec.trace {
                rec.recover_errors += r.diagnostics.error_count() as u64;
            }
            Output::Recovered(r)
        }
    }
}

/// Checks one leg's output against the document's expected outputs.
fn check_output(rec: &mut Recorder, name: &str, leg: Leg, text: &str, out: &Output, want: &Expect) {
    let what = leg.span();
    match (out, want) {
        (Output::Tree(Ok(tree)), Expect::Tree { digest, .. }) => {
            rec.check(tree_digest(tree.root(), text) == *digest, || {
                format!("{name}: {what} tree differs from the vm reference")
            });
        }
        (Output::Events(Ok(counts)), Expect::Tree { events, .. }) => {
            rec.check(counts == events, || {
                format!("{name}: {what} events differ from the tree")
            });
        }
        (
            Output::Recovered(r),
            Expect::Recovered {
                digest,
                diagnostics,
            },
        ) => {
            rec.check(&r.diagnostics == diagnostics, || {
                format!("{name}: {what} diagnostics differ from the reference")
            });
            rec.check(tree_digest(r.tree.root(), text) == *digest, || {
                format!("{name}: {what} recovered tree differs from the reference")
            });
        }
        (Output::Tree(Err(e)) | Output::Events(Err(e)), _) => {
            rec.check(false, || {
                format!("{name}: {what} failed on a valid document: {e}")
            });
        }
        _ => rec.check(false, || {
            format!("{name}: {what} ran on the wrong kind of document")
        }),
    }
}

/// Runs sweeps over `ops` until the deadline: at least one full sweep,
/// and two in the traced run so every operation is timed both with and
/// without span recording.
fn sweeps(
    ctx: &mut Ctx,
    setups: &mut Setups,
    engines: &[Built],
    ops: usize,
    mut op: impl FnMut(&mut Recorder, usize),
) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    let min_sweeps = if ctx.rec.trace { 2 } else { 1 };
    loop {
        for i in 0..ops {
            if ctx.rec.sweep >= min_sweeps && Instant::now() >= deadline {
                return Ok(());
            }
            setups.tick(&mut ctx.rec, engines)?;
            op(&mut ctx.rec, i);
        }
        ctx.rec.sweep += 1;
    }
}

// ---------------------------------------------------------------- cold-start

const SAMPLES_PER_GRAMMAR: usize = 8;

fn cold_start(ctx: &mut Ctx) -> Result<(), String> {
    let specs: Vec<&'static GrammarSpec> = pipeline::GRAMMARS.iter().collect();
    let mut rng = rng_for(ctx.seed, 1);
    let mut samples: Vec<Vec<(String, String)>> = Vec::new();
    for s in &specs {
        let valid = inputs::samples(s, &mut rng, SAMPLES_PER_GRAMMAR)?;
        let pairs: Vec<(String, String)> = valid
            .into_iter()
            .map(|v| {
                let bad = corrupt(&v, 3);
                (v, bad)
            })
            .collect();
        for (i, (v, bad)) in pairs.iter().enumerate() {
            ctx.digests.add(format!("{}/{i}", s.name), v);
            ctx.digests.add(format!("{}/{i}.corrupted", s.name), bad);
        }
        samples.push(pairs);
    }

    let mut setups = Setups::new(ctx, &specs, None)?;
    let (built, _) = setups.first(&mut ctx.rec)?;
    let mut expected: Vec<Vec<(Expect, Expect)>> = Vec::new();
    for (b, pairs) in built.iter().zip(&samples) {
        let mut row = Vec::new();
        for (v, bad) in pairs {
            let rec = &mut ctx.rec;
            let mut pair = None;
            rec.checks(|rec| {
                pair = Some((
                    expect(rec, b, v, false, None),
                    expect(rec, b, bad, true, None),
                ))
            });
            row.push(pair.expect("checks ran"));
        }
        expected.push(row);
    }

    let n = specs.len() * SAMPLES_PER_GRAMMAR;
    let golden = setups.golden.clone();
    sweeps(ctx, &mut setups, &built, n, |rec, i| {
        let (g, k) = (i % specs.len(), (i / specs.len()) % SAMPLES_PER_GRAMMAR);
        let (valid, bad) = &samples[g][k];
        let outcome = rec.op(
            i as u64,
            |rec| -> Result<(Built, Vec<(Leg, Output)>), String> {
                let b = pipeline::build(specs[g])?;
                let policy = policy(&b);
                let mut outs = Vec::with_capacity(5);
                for leg in Leg::ALL {
                    let text = if leg == Leg::VmRecover { bad } else { valid };
                    outs.push((leg, run_leg(rec, &b, &policy, leg, i as u64, text)));
                }
                Ok((b, outs))
            },
        );
        rec.checks(|rec| match &outcome {
            Ok((b, outs)) => {
                check_build(rec, b, Some(&built[g]), &golden);
                if rec.trace {
                    rec.builds.push((b.spec.name, b.counts.clone()));
                }
                let (want_valid, want_bad) = &expected[g][k];
                for (leg, out) in outs {
                    let (text, want) = if *leg == Leg::VmRecover {
                        (bad, want_bad)
                    } else {
                        (valid, want_valid)
                    };
                    check_output(rec, specs[g].name, *leg, text, out, want);
                }
            }
            Err(e) => rec.check(false, || format!("build failed: {e}")),
        });
    })?;

    if ctx.rec.trace {
        let probes: Vec<(&Built, &str)> = built
            .iter()
            .zip(&samples)
            .flat_map(|(b, pairs)| pairs.iter().map(move |(v, _)| (b, v.as_str())))
            .collect();
        scan_attribution(&mut ctx.rec, &probes);
        let java = find(&built, "java").expect("java is built");
        let doc = modpeg_workload::java_program(ctx.seed, 16 * 1024);
        session_attribution(ctx, java, &doc)?;
        cli_attribution(ctx, java)?;
    }
    Ok(())
}

// --------------------------------------------------------------- batch-*

struct Doc {
    grammar: usize,
    /// Drawn from a `*_lexical` generator.
    lexical: bool,
    label: String,
    text: String,
    corrupted: bool,
    /// Committed `.expected` diagnostics, for the malformed corpus.
    golden: Option<String>,
}

const BATCH_GRAMMARS: [&str; 4] = ["calc", "json", "java", "c"];
/// What a valid batch document goes through.
const VALID_LEGS: [Leg; 4] = [Leg::Vm, Leg::Codegen, Leg::Interp, Leg::VmEvents];
const DOCS_PER_GRAMMAR: usize = 32;
const CORRUPTED_PER_GRAMMAR: usize = 4;

fn small_corpus(ctx: &mut Ctx) -> Result<Vec<Doc>, String> {
    let mut rng = rng_for(ctx.seed, 2);
    let mut docs = Vec::new();
    for (g, name) in BATCH_GRAMMARS.iter().enumerate() {
        let (normal, lexical_gen) = inputs::generators(name);
        // Sizes at the middles of equal strata of 1–16 KiB on a log scale,
        // the same for every seed (the seed draws the content); even
        // strata use the normal generator, odd ones the lexical-heavy one.
        // The corrupted documents (one in nine) are stratified the same
        // way, from the normal generator.
        let draw = |stratum: usize, strata: usize, lexical: bool, rng: &mut StdRng| {
            let u = (stratum as f64 + 0.5) / strata as f64;
            let size = (1024.0 * 16f64.powf(u)) as usize;
            let generate = if lexical { lexical_gen } else { normal };
            generate(rng.next_u64(), size)
        };
        for i in 0..DOCS_PER_GRAMMAR {
            let text = draw(i, DOCS_PER_GRAMMAR, i % 2 == 1, &mut rng);
            docs.push(Doc {
                grammar: g,
                lexical: i % 2 == 1,
                label: format!("{name}/{i}"),
                text,
                corrupted: false,
                golden: None,
            });
        }
        for i in 0..CORRUPTED_PER_GRAMMAR {
            let text = draw(i, CORRUPTED_PER_GRAMMAR, false, &mut rng);
            docs.push(Doc {
                grammar: g,
                lexical: false,
                label: format!("{name}/corrupted-{i}"),
                text: corrupt(&text, errors_for(text.len())),
                corrupted: true,
                golden: None,
            });
        }
    }
    // The committed malformed corpus, recovered and checked against its
    // `.expected` diagnostics.
    for (file, g) in [
        ("expr.calc", 0),
        ("mixed.json", 1),
        ("member.java", 2),
        ("stmt.c", 3),
    ] {
        let rel = format!("tests/data/malformed/{file}");
        docs.push(Doc {
            grammar: g,
            lexical: false,
            text: read(&ctx.root, &rel)?,
            golden: Some(read(&ctx.root, &format!("{rel}.expected"))?),
            label: rel,
            corrupted: true,
        });
    }
    Ok(docs)
}

/// Size of the `batch-large` documents.
const LARGE_BYTES: usize = 256 * 1024;

/// One Java and one C document, each with a corrupted copy. Both have the
/// same size, so the largest operation's heap does not depend on the seed.
/// Two documents, not more: every input's throughput is its fastest
/// repetition, and a sweep over them takes a few seconds, so each extra
/// document costs every input repetitions.
fn large_corpus(seed: u64) -> Vec<Doc> {
    let mut rng = rng_for(seed, 3);
    let mut docs = Vec::new();
    for (g, name, i) in [(0, "java", 0), (1, "c", 0)] {
        let (normal, _) = inputs::generators(name);
        let text = normal(rng.next_u64(), LARGE_BYTES);
        docs.push(Doc {
            grammar: g,
            lexical: false,
            label: format!("{name}/{i}.corrupted"),
            text: corrupt(&text, errors_for(text.len())),
            corrupted: true,
            golden: None,
        });
        docs.push(Doc {
            grammar: g,
            lexical: false,
            label: format!("{name}/{i}"),
            text,
            corrupted: false,
            golden: None,
        });
    }
    docs
}

fn batch(ctx: &mut Ctx, large: bool) -> Result<(), String> {
    let (names, docs): (&[&str], Vec<Doc>) = if large {
        (&["java", "c"], large_corpus(ctx.seed))
    } else {
        (&BATCH_GRAMMARS, small_corpus(ctx)?)
    };
    for d in &docs {
        ctx.digests.add(d.label.clone(), &d.text);
    }
    let specs: Vec<&'static GrammarSpec> = names.iter().map(|n| pipeline::spec(n)).collect();
    let mut setups = Setups::new(ctx, &specs, None)?;
    let (built, _) = setups.first(&mut ctx.rec)?;
    let policies: Vec<RecoverPolicy> = built.iter().map(policy).collect();

    let mut expected = Vec::with_capacity(docs.len());
    for d in &docs {
        let b = &built[d.grammar];
        let mut want = None;
        ctx.rec.checks(|rec| {
            let golden = d.golden.as_deref().map(|g| (d.label.as_str(), g));
            want = Some(expect(rec, b, &d.text, d.corrupted, golden));
        });
        expected.push(want.expect("checks ran"));
    }

    // A valid document goes through every engine and output: in
    // `batch-small` as one operation, in `batch-large` (a few hundred
    // milliseconds per engine) as one operation per engine.
    let mut ops: Vec<(usize, &[Leg])> = Vec::new();
    for (i, d) in docs.iter().enumerate() {
        if d.corrupted {
            ops.push((i, &[Leg::VmRecover]));
        } else if large {
            ops.extend(VALID_LEGS.chunks(1).map(|l| (i, l)));
        } else {
            ops.push((i, &VALID_LEGS));
        }
    }
    shuffle(&mut ops, &mut rng_for(ctx.seed, 4));

    sweeps(ctx, &mut setups, &built, ops.len(), |rec, k| {
        let (i, legs) = ops[k];
        let d = &docs[i];
        let b = &built[d.grammar];
        let outs: Vec<Output> = rec.op(k as u64, |rec| {
            legs.iter()
                .map(|&leg| run_leg(rec, b, &policies[d.grammar], leg, i as u64, &d.text))
                .collect()
        });
        rec.checks(|rec| {
            for (&leg, out) in legs.iter().zip(&outs) {
                check_output(rec, &d.label, leg, &d.text, out, &expected[i]);
            }
        });
    })?;

    if ctx.rec.trace {
        // Probe the scan layer on at most ~600 KiB of the valid documents.
        let mut probes: Vec<(&Built, &str)> = Vec::new();
        let mut bytes = 0;
        for d in docs.iter().filter(|d| !d.corrupted) {
            if bytes + d.text.len() <= 600 * 1024 {
                bytes += d.text.len();
                probes.push((&built[d.grammar], &d.text));
            }
        }
        scan_attribution(&mut ctx.rec, &probes);
        let java = docs
            .iter()
            .filter(|d| !d.corrupted && !d.lexical && built[d.grammar].spec.name == "java")
            .max_by_key(|d| d.text.len())
            .map(|d| d.text.clone())
            .expect("every batch corpus has valid Java documents");
        let b = find(&built, "java").expect("java is built");
        session_attribution(ctx, b, &java)?;
        cli_attribution(ctx, b)?;
    }
    Ok(())
}

// ------------------------------------------------------------ edit-session

const EDIT_DOC_BYTES: usize = 128 * 1024;
/// Edits in one pass of the session's script.
const EDITS_PER_PASS: usize = 96;
/// Edits between two checkpoints.
const CHECKPOINT_EVERY: usize = 32;

/// Draws the seeded edit script once, each edit against the text the
/// earlier ones left; returns the edits and the text at every checkpoint.
fn edit_script(seed: u64, doc: &str) -> Result<(Vec<Edit>, Vec<String>), String> {
    let mut script = EditScript::new(seed);
    let mut text = doc.to_owned();
    let mut edits = Vec::with_capacity(EDITS_PER_PASS);
    let mut checkpoints = Vec::new();
    for k in 1..=EDITS_PER_PASS {
        let edit = script
            .next(&text)
            .ok_or("the edited document has no edit site left")?;
        text.replace_range(edit.range.clone(), &edit.replacement);
        script.applied(&edit);
        edits.push(edit);
        if k % CHECKPOINT_EVERY == 0 {
            checkpoints.push(text.clone());
        }
    }
    Ok((edits, checkpoints))
}

/// A checkpoint's text, its corrupted copy, and what every engine must
/// produce for each.
struct Checkpoint {
    texts: [String; 2],
    want: [Expect; 2],
}

/// Passes over one seeded edit script: each pass reloads the original
/// document into the session (an untimed priming parse), then runs the
/// script's edits as operations, with a checkpoint every
/// `CHECKPOINT_EVERY` edits. Edit `k` does the same work in every pass, so
/// its latency is keyed by `k`.
fn edit_session(ctx: &mut Ctx) -> Result<(), String> {
    let doc = modpeg_workload::java_program(rng_for(ctx.seed, 5).next_u64(), EDIT_DOC_BYTES);
    ctx.digests.add("java/edit-session", &doc);
    let (edits, texts) = edit_script(ctx.seed ^ 0x5eed, &doc)?;
    let spec = pipeline::spec("java");
    let mut setups = Setups::new(ctx, &[spec], Some(doc.clone()))?;
    let (built, session) = setups.first(&mut ctx.rec)?;
    let mut session = session.expect("the set-up primes a session");
    let b = &built[0];
    let policy = policy(b);
    let mut checkpoints = Vec::with_capacity(texts.len());
    for (c, text) in texts.into_iter().enumerate() {
        ctx.digests.add(format!("java/edit-session.{c}"), &text);
        let bad = corrupt(&text, errors_for(text.len()));
        let mut want = None;
        ctx.rec.checks(|rec| {
            want = Some([
                expect(rec, b, &text, false, None),
                expect(rec, b, &bad, true, None),
            ])
        });
        checkpoints.push(Checkpoint {
            texts: [text, bad],
            want: want.expect("checks ran"),
        });
    }

    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    let min_passes = if ctx.rec.trace { 2 } else { 1 };
    while ctx.rec.sweep < min_passes || Instant::now() < deadline {
        if ctx.rec.sweep > 0 {
            session.set_text(doc.as_str());
            let primed = trace::span("session.parse", || session.parse());
            ctx.rec
                .checks(|rec| rec.check(primed.is_ok(), || "priming parse failed".into()));
        }
        let mut last_tree = None;
        for (k, edit) in edits.iter().enumerate() {
            setups.tick(&mut ctx.rec, &built)?;
            let rec = &mut ctx.rec;
            let (result, apply_ns, parse_ns) = rec.op(k as u64, |_| {
                let t = Instant::now();
                trace::span("session.apply_edit", || {
                    session.apply_edit(edit.range.clone(), &edit.replacement)
                });
                let apply_ns = elapsed_ns(t);
                let t = Instant::now();
                let result = trace::span("session.parse", || session.parse());
                (result, apply_ns, elapsed_ns(t))
            });
            rec.session.record(apply_ns, parse_ns, session.last_stats());
            rec.checks(|rec| match result {
                Ok(tree) => last_tree = Some(tree),
                Err(e) => {
                    rec.check(false, || {
                        format!("edit {k} ({:?}): reparse failed: {e}", edit.kind)
                    });
                    last_tree = None;
                }
            });
            if (k + 1) % CHECKPOINT_EVERY == 0 {
                let cp = &checkpoints[k / CHECKPOINT_EVERY];
                ctx.rec.checks(|rec| {
                    rec.check(session.text() == cp.texts[0], || {
                        format!("after edit {k}: the session's text differs from the script's")
                    })
                });
                checkpoint(&mut ctx.rec, b, &policy, cp, last_tree.as_ref());
            }
        }
        ctx.rec.sweep += 1;
    }

    if ctx.rec.trace {
        let last = &checkpoints[checkpoints.len() - 1].texts[0];
        scan_attribution(&mut ctx.rec, &[(b, last)]);
        cli_attribution(ctx, b)?;
    }
    Ok(())
}

/// Opens an incremental session on `doc` and runs its priming parse.
fn prime_session(rec: &mut Recorder, b: &Built, doc: &str) -> Result<ParseSession, String> {
    let grammar = trace::span("interp.compile", || {
        CompiledGrammar::compile(&b.grammar, OptConfig::incremental())
    })
    .map_err(|e| e.to_string())?;
    let mut session = ParseSession::new(Rc::new(grammar), doc);
    let primed = trace::span("session.parse", || session.parse());
    rec.check(primed.is_ok(), || "priming parse failed".into());
    Ok(session)
}

/// Parses a checkpoint's text from scratch with every engine and its
/// corrupted copy with the VM's recovery, checks each output, and checks
/// the latest incremental tree against the VM's from-scratch tree. The
/// checkpoints differ by a few dozen edits of a 128 KiB document, so they
/// share one work key: each leg's throughput is its fastest run over all
/// of them.
fn checkpoint(
    rec: &mut Recorder,
    b: &Built,
    policy: &RecoverPolicy,
    cp: &Checkpoint,
    incremental: Option<&SyntaxTree>,
) {
    let mut outs = Vec::with_capacity(5);
    for leg in [
        Leg::Vm,
        Leg::Interp,
        Leg::Codegen,
        Leg::VmEvents,
        Leg::VmRecover,
    ] {
        let i = usize::from(leg == Leg::VmRecover);
        outs.push((leg, i, run_leg(rec, b, policy, leg, 0, &cp.texts[i])));
        // Heap peaks by work key: edits have keys below EDITS_PER_PASS,
        // each checkpoint leg has a key of its own above them.
        rec.note_peak(
            (EDITS_PER_PASS + leg as usize) as u64,
            rec.last_leg_heap.peak_extra,
        );
    }
    rec.checks(|rec| {
        let ok = match (incremental, &cp.want[0]) {
            (Some(inc), Expect::Tree { digest, .. }) => {
                tree_digest(inc.root(), &cp.texts[0]) == *digest
            }
            _ => false,
        };
        rec.check(ok, || {
            "incremental tree differs from a from-scratch vm parse".into()
        });
    });
    for (leg, i, out) in &outs {
        rec.checks(|rec| check_output(rec, "edit-session", *leg, &cp.texts[*i], out, &cp.want[*i]));
    }
}

// ----------------------------------------------------- traced-run probes

/// Times VM parses with the scanner forced scalar against the vectorized
/// scanner on the same documents (paired, alternating, best of three) and
/// records the bytes, scalar ns and vectorized ns.
fn scan_attribution(rec: &mut Recorder, probes: &[(&Built, &str)]) {
    let mut best = vec![[u64::MAX; 2]; probes.len()];
    let mut digests = vec![[None; 2]; probes.len()];
    for round in 0..6 {
        let mode = round % 2;
        scan::force_scalar(mode == 0);
        for (i, (b, text)) in probes.iter().enumerate() {
            let t = Instant::now();
            let out = trace::span(["scan.scalar", "scan.vector"][mode], || b.vm.parse(text));
            best[i][mode] = best[i][mode].min(elapsed_ns(t));
            digests[i][mode] = out.ok().map(|t| tree_digest(t.root(), text));
        }
    }
    scan::reset_forced();
    rec.checks(|rec| {
        for ((b, _), [scalar, vector]) in probes.iter().zip(&digests) {
            rec.check(scalar.is_some() && scalar == vector, || {
                format!("{}: scalar and vectorized scans disagree", b.spec.name)
            });
        }
    });
    let bytes: u64 = probes.iter().map(|(_, t)| t.len() as u64).sum();
    let scalar: u64 = best.iter().map(|b| b[0]).sum();
    let vector: u64 = best.iter().map(|b| b[1]).sum();
    rec.scan = Some((bytes, scalar, vector));
}

/// Runs the session layer on `doc` for workloads whose operations do not
/// use it: a priming parse, then a short seeded edit script. Every reparse
/// must succeed, and the last tree must equal a from-scratch VM parse.
fn session_attribution(ctx: &mut Ctx, b: &Built, doc: &str) -> Result<(), String> {
    let rec = &mut ctx.rec;
    let mut session = prime_session(rec, b, doc)?;
    let mut script = EditScript::new(ctx.seed ^ 0xed17);
    let mut last = None;
    for _ in 0..16 {
        let edit = script
            .next(session.text())
            .ok_or("the session probe document has no edit site")?;
        let t = Instant::now();
        trace::span("session.apply_edit", || {
            session.apply_edit(edit.range.clone(), &edit.replacement)
        });
        let apply_ns = elapsed_ns(t);
        let t = Instant::now();
        let result = trace::span("session.parse", || session.parse());
        let parse_ns = elapsed_ns(t);
        script.applied(&edit);
        rec.session.record(apply_ns, parse_ns, session.last_stats());
        rec.checks(|rec| {
            rec.check(result.is_ok(), || {
                format!("session probe: {:?} edit fails", edit.kind)
            })
        });
        last = result.ok();
    }
    rec.checks(|rec| {
        let ok = last.is_some_and(|t| {
            b.vm.parse(session.text())
                .is_ok_and(|r| r.root() == t.root())
        });
        rec.check(ok, || {
            "session probe: the last incremental tree differs from the vm".into()
        });
    });
    Ok(())
}

/// Times a cold `modpeg parse` of a small generated Java file, five
/// times, checking the printed tree against the VM's.
fn cli_attribution(ctx: &mut Ctx, java: &Built) -> Result<(), String> {
    let cli = ctx
        .cli
        .clone()
        .ok_or_else(|| "the traced run needs --cli <modpeg binary>".to_owned())?;
    let text = modpeg_workload::java_program(ctx.seed, 64);
    ctx.digests.add("java/cli", &text);
    std::fs::create_dir_all(&ctx.out).map_err(|e| format!("{}: {e}", ctx.out.display()))?;
    let input = ctx.out.join(format!("cli-input-{}.java", ctx.seed));
    std::fs::write(&input, &text).map_err(|e| format!("{}: {e}", input.display()))?;
    let want = java
        .vm
        .parse(&text)
        .map(|t| t.to_sexpr())
        .unwrap_or_default();
    let grammar = ctx
        .root
        .join("crates/grammars/grammars")
        .join(java.spec.files[0]);
    for _ in 0..5 {
        let t = Instant::now();
        let out = trace::span("cli.parse", || {
            std::process::Command::new(&cli)
                .arg("parse")
                .arg(&grammar)
                .args([
                    "--root",
                    java.spec.root,
                    "--start",
                    java.spec.start,
                    "--input",
                ])
                .arg(&input)
                .output()
        });
        ctx.rec.cli_ms.push(t.elapsed().as_secs_f64() * 1e3);
        ctx.rec.checks(|rec| {
            let ok = out.as_ref().is_ok_and(|o| {
                o.status.success() && String::from_utf8_lossy(&o.stdout).trim_end() == want
            });
            rec.check(ok, || {
                format!("`{} parse` output differs from the vm tree", cli.display())
            });
        });
    }
    std::fs::remove_file(&input).map_err(|e| format!("{}: {e}", input.display()))?;
    Ok(())
}
