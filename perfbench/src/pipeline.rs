//! The shipped grammars and the build pipeline that turns their `.mpeg`
//! sources into ready engines, one span per stage:
//! syntax → elaborate → analyses → transform passes → interp compile →
//! VM compile → codegen emit.

use std::hint::black_box;

use modpeg_core::{analysis, transform, Grammar};
use modpeg_grammars::{generated, sources};
use modpeg_interp::{CompiledGrammar, OptConfig};
use modpeg_runtime::{ParseError, RecoverPolicy, Recovered, SyntaxTree};
use modpeg_vm::VmProgram;

use crate::trace::span;

type Parse = fn(&str) -> Result<SyntaxTree, ParseError>;
type Resilient = fn(&str, &RecoverPolicy) -> Recovered<SyntaxTree>;

/// A shipped grammar: its sources, root module and start production, and
/// the parser generated from it at build time.
pub struct GrammarSpec {
    pub name: &'static str,
    pub sources: &'static [&'static str],
    pub root: &'static str,
    pub start: &'static str,
    /// Grammar file names under `crates/grammars/grammars/`, as the CLI
    /// reads them.
    pub files: &'static [&'static str],
    pub parse: Parse,
    pub resilient: Resilient,
    pub policy: fn() -> RecoverPolicy,
}

macro_rules! spec {
    ($name:literal, $module:ident, [$($src:ident),+], [$($file:literal),+], $root:literal, $start:literal) => {
        GrammarSpec {
            name: $name,
            sources: &[$(sources::$src),+],
            root: $root,
            start: $start,
            files: &[$($file),+],
            parse: generated::$module::parse,
            resilient: generated::$module::parse_resilient,
            policy: generated::$module::recover_policy,
        }
    };
}

/// Every shipped grammar, in the order `cold-start` cycles through them.
pub static GRAMMARS: [GrammarSpec; 9] = [
    spec!("calc", calc, [CALC], ["calc.mpeg"], "calc", "Program"),
    spec!("json", json, [JSON], ["json.mpeg"], "json", "Document"),
    spec!(
        "java",
        java,
        [JAVA],
        ["java.mpeg"],
        "java.Program",
        "Program"
    ),
    spec!(
        "java_extended",
        java_extended,
        [JAVA, JAVA_EXT],
        ["java.mpeg", "java_ext.mpeg"],
        "java.Extended",
        "Start"
    ),
    spec!("c", c, [C], ["c.mpeg"], "c.Program", "TranslationUnit"),
    spec!("sql", sql, [SQL], ["sql.mpeg"], "sql.Program", "Query"),
    spec!(
        "java_sql",
        java_sql,
        [JAVA, SQL, JAVA_SQL],
        ["java.mpeg", "sql.mpeg", "java_sql.mpeg"],
        "java.WithSql",
        "Start"
    ),
    spec!("mpeg", mpeg, [MPEG], ["mpeg.mpeg"], "mpeg", "File"),
    spec!("tiny", tiny, [TINY], ["tiny.mpeg"], "tiny", "Doc"),
];

/// Looks a grammar up by name.
pub fn spec(name: &str) -> &'static GrammarSpec {
    GRAMMARS
        .iter()
        .find(|g| g.name == name)
        .expect("grammar names used by the workloads are in the table")
}

/// The five transform passes, in pipeline order, with their span names.
pub const PASSES: [&str; 5] = ["fold", "dce", "inline", "factor", "classmerge"];
const PASS_SPANS: [&str; 5] = [
    "core.transform.fold",
    "core.transform.dce",
    "core.transform.inline",
    "core.transform.factor",
    "core.transform.classmerge",
];

/// Sizes observed while building, the counters of the front-end layers.
#[derive(Debug, Clone, Default)]
pub struct BuildCounts {
    pub productions: usize,
    /// IR size (productions) after each transform pass.
    pub pass_prods: [usize; 5],
    pub memo_slots: u32,
    pub vm_ops: usize,
    pub source_bytes: usize,
}

/// Ready engines for one grammar.
pub struct Built {
    pub spec: &'static GrammarSpec,
    pub grammar: Grammar,
    pub interp: CompiledGrammar,
    pub vm: VmProgram,
    pub codegen_source: String,
    pub counts: BuildCounts,
}

/// Elaborates a grammar from its sources without spans (for input
/// generation and reference checks, outside any measured region).
pub fn elaborate(spec: &GrammarSpec) -> Result<Grammar, String> {
    modpeg_syntax::parse_module_set(spec.sources.iter().copied())
        .and_then(|set| set.elaborate(spec.root, Some(spec.start)))
        .map_err(|d| format!("{}: {d}", spec.name))
}

/// Number of tokens in the grammar's sources.
pub fn token_count(spec: &GrammarSpec) -> usize {
    spec.sources
        .iter()
        .map(|s| modpeg_syntax::lex(s).map_or(0, |t| t.len()))
        .sum()
}

/// Builds every engine for `spec` from its `.mpeg` sources, one span per
/// stage.
pub fn build(spec: &'static GrammarSpec) -> Result<Built, String> {
    let err = |e: &dyn std::fmt::Display| format!("{}: {e}", spec.name);
    let set = span("syntax.parse", || {
        modpeg_syntax::parse_module_set(spec.sources.iter().copied())
    })
    .map_err(|e| err(&e))?;
    let grammar = span("core.elaborate", || {
        set.elaborate(spec.root, Some(spec.start))
    })
    .map_err(|e| err(&e))?;
    span("core.analysis", || -> Result<(), String> {
        analysis::check_well_formed(&grammar).map_err(|e| err(&e))?;
        black_box(analysis::nullable(&grammar));
        black_box(analysis::first_sets(&grammar));
        black_box(analysis::sync_sets(&grammar));
        black_box(analysis::state_access(&grammar));
        black_box(analysis::reachable(&grammar));
        black_box(analysis::reference_counts(&grammar));
        Ok(())
    })?;
    let mut counts = BuildCounts {
        productions: grammar.len(),
        ..BuildCounts::default()
    };
    let mut g = grammar.clone();
    for (i, name) in PASS_SPANS.iter().enumerate() {
        g = span(name, || match i {
            0 => transform::fold_duplicates(g),
            1 => transform::eliminate_dead(g),
            2 => transform::inline_trivial(g),
            3 => transform::left_factor(g),
            _ => transform::merge_classes(g),
        })
        .map_err(|e| err(&e))?;
        counts.pass_prods[i] = g.len();
    }
    black_box(g);
    let interp = span("interp.compile", || {
        CompiledGrammar::compile(&grammar, OptConfig::all())
    })
    .map_err(|e| err(&e))?;
    let vm = span("vm.compile", || VmProgram::from_compiled(&interp)).map_err(|e| err(&e))?;
    let codegen_source = span("codegen.emit", || {
        modpeg_codegen::generate_from_compiled(&interp, spec.name)
    })
    .map_err(|e| err(&e))?;
    counts.memo_slots = interp.memo_slot_count();
    counts.vm_ops = vm.op_count();
    counts.source_bytes = codegen_source.len();
    Ok(Built {
        spec,
        grammar,
        interp,
        vm,
        codegen_source,
        counts,
    })
}
