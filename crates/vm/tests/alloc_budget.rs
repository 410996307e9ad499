//! Allocation budgets for the parse kernel.
//!
//! A counting global allocator tallies the heap allocations each parse
//! makes on its own thread, and every engine must stay within a committed
//! budget of allocations per input byte. The count is deterministic for a
//! fixed input, so this gate never depends on wall time. The same parse
//! also checks the memo table's retained bytes per input byte against a
//! committed budget. Each budget sits next to the figure from before the
//! memo table moved into flat storage, so a regression towards the old
//! cost is visible at once.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use modpeg_core::Grammar;
use modpeg_grammars::generated;
use modpeg_interp::{CompiledGrammar, Engine, OptConfig, ParseOptions};
use modpeg_runtime::Failures;
use modpeg_vm::VmProgram;

thread_local! {
    // Per thread, so tests running in parallel do not see each other's
    // allocations. Const-initialized and drop-free: touching it from
    // inside the allocator never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Counts `alloc`, `alloc_zeroed` and `realloc`, as the benchmark's
/// `alloc.count_per_byte` does.
struct CountingAlloc;

// SAFETY: every operation is delegated to `System` unchanged, with the
// caller's layout; the bookkeeping never touches the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns how many allocations it made on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

const DOC_BYTES: usize = 16 * 1024;
const SEED: u64 = 7;

/// A fixed-seed ~16 KiB document per grammar, plus one that fails late:
/// a Java program with its closing brace cut off, so every engine walks
/// the whole input noting failures before it gives up.
fn documents() -> Vec<(&'static str, Grammar, String)> {
    let java = modpeg_workload::java_program(SEED, DOC_BYTES);
    let truncated = java.trim_end().trim_end_matches('}').to_owned();
    vec![
        (
            "calc",
            modpeg_grammars::calc_grammar().expect("calc elaborates"),
            modpeg_workload::calc_expression(SEED, DOC_BYTES),
        ),
        (
            "json",
            modpeg_grammars::json_grammar().expect("json elaborates"),
            modpeg_workload::json_document(SEED, DOC_BYTES),
        ),
        (
            "java",
            modpeg_grammars::java_grammar().expect("java elaborates"),
            java,
        ),
        (
            "c",
            modpeg_grammars::c_grammar().expect("c elaborates"),
            modpeg_workload::c_program(SEED, DOC_BYTES),
        ),
        (
            "java-rejected",
            modpeg_grammars::java_grammar().expect("java elaborates"),
            truncated,
        ),
    ]
}

fn generated_engine(name: &str) -> &'static dyn Engine {
    match name {
        "calc" => &generated::calc::GeneratedEngine,
        "json" => &generated::json::GeneratedEngine,
        "java" | "java-rejected" => &generated::java::GeneratedEngine,
        "c" => &generated::c::GeneratedEngine,
        other => unreachable!("no generated parser for {other}"),
    }
}

/// `(document, engine, allocations per byte before, budget)`, counted in
/// this test's own build. "Before" is the count when the memo table kept
/// every column, chunk table and chunk in its own heap box. Each budget is
/// today's count plus 10%, rounded up; the counts are exact, so a change
/// that needs more must raise its budget here and say why.
const BUDGETS: [(&str, &str, f64, f64); 15] = [
    ("calc", "vm", 0.99, 0.45),
    ("calc", "interp", 2.18, 1.75),
    ("calc", "codegen", 2.18, 1.76),
    ("json", "vm", 0.61, 0.24),
    ("json", "interp", 1.11, 0.80),
    ("json", "codegen", 1.11, 0.80),
    ("java", "vm", 0.96, 0.37),
    ("java", "interp", 2.16, 1.69),
    ("java", "codegen", 2.16, 1.69),
    ("c", "vm", 0.97, 0.48),
    ("c", "interp", 2.20, 1.83),
    ("c", "codegen", 2.20, 1.84),
    ("java-rejected", "vm", 0.64, 0.02),
    ("java-rejected", "interp", 1.84, 1.34),
    ("java-rejected", "codegen", 1.84, 1.34),
];

/// `(document, engine, memo bytes per input byte before, budget)`: the
/// memo table's retained bytes at the end of the parse
/// (`Stats::memo_bytes`), counted in this test's own build. "Before" is
/// the figure from the same boxed layout of 40-byte cells. The figures
/// are exact, so each budget is today's figure plus only 5%, rounded up
/// to a whole byte.
const MEMO_BUDGETS: [(&str, &str, f64, f64); 15] = [
    ("calc", "vm", 88.35, 45.0),
    ("calc", "interp", 88.35, 45.0),
    ("calc", "codegen", 88.35, 45.0),
    ("json", "vm", 60.72, 34.0),
    ("json", "interp", 60.72, 34.0),
    ("json", "codegen", 60.72, 34.0),
    ("java", "vm", 120.68, 60.0),
    ("java", "interp", 120.68, 60.0),
    ("java", "codegen", 120.68, 60.0),
    ("c", "vm", 106.13, 54.0),
    ("c", "interp", 106.13, 54.0),
    ("c", "codegen", 106.13, 54.0),
    ("java-rejected", "vm", 120.69, 60.0),
    ("java-rejected", "interp", 120.69, 60.0),
    ("java-rejected", "codegen", 120.69, 60.0),
];

fn lookup(table: &[(&str, &str, f64, f64)], doc: &str, engine: &str) -> (f64, f64) {
    let &(_, _, before, budget) = table
        .iter()
        .find(|b| b.0 == doc && b.1 == engine)
        .expect("every document and engine has a budget");
    (before, budget)
}

#[test]
fn engines_stay_within_their_allocation_budgets() {
    let mut report = String::new();
    let mut over = Vec::new();
    for (doc, grammar, text) in documents() {
        let interp = CompiledGrammar::compile(&grammar, OptConfig::all()).expect("compiles");
        let vm = VmProgram::from_compiled(&interp).expect("the VM encodes OptConfig::all()");
        let engines: [(&str, &dyn Engine); 3] = [
            ("vm", &vm),
            ("interp", &interp),
            ("codegen", generated_engine(doc)),
        ];
        for (name, engine) in engines {
            let mut accepted = false;
            let mut memo_bytes = 0;
            let n = allocations(|| {
                let (outcome, stats) = engine.tree(&text, &ParseOptions::default());
                accepted = outcome.is_ok();
                memo_bytes = stats.memo_bytes;
            });
            assert_eq!(accepted, doc != "java-rejected", "{doc} on {name}");
            let per_byte = n as f64 / text.len() as f64;
            let (before, budget) = lookup(&BUDGETS, doc, name);
            report.push_str(&format!(
                "{doc:>14} {name:>8}: {per_byte:.3} allocations/B ({n} over {} B; budget {budget}, before {before})\n",
                text.len()
            ));
            if per_byte > budget {
                over.push(format!("{doc} on {name}: allocations"));
            }
            let memo_per_byte = memo_bytes as f64 / text.len() as f64;
            let (before, budget) = lookup(&MEMO_BUDGETS, doc, name);
            report.push_str(&format!(
                "{doc:>14} {name:>8}: {memo_per_byte:.2} memo B/B ({memo_bytes} B; budget {budget}, before {before})\n"
            ));
            if memo_per_byte > budget {
                over.push(format!("{doc} on {name}: memo bytes"));
            }
        }
    }
    println!("{report}");
    assert!(over.is_empty(), "over budget: {over:?}\n{report}");
}

/// Many notes per position, as a failure-heavy parse makes them: every
/// offset collects the same handful of descriptions several times over,
/// with stale notes at lower offsets in between.
#[test]
fn farthest_failure_tracking_stops_allocating_once_warm() {
    const DESCS: [&str; 6] = ["'('", "digit", "identifier", "';'", "'}'", "end of input"];
    let replay = |f: &mut Failures, offsets: std::ops::Range<u32>| {
        for offset in offsets {
            for round in 0..4 {
                for (i, desc) in DESCS.iter().enumerate().rev() {
                    f.note(offset, desc);
                    f.note(offset.saturating_sub(1 + (i + round) as u32), desc);
                }
            }
        }
    };
    let mut f = Failures::new();
    // Warming up grows the set to its largest size, and each reused
    // buffer to the longest description it has had to hold.
    replay(&mut f, 0..64);
    let n = allocations(|| replay(&mut f, 64..4096));
    assert_eq!(
        n, 0,
        "farthest-only notes allocated once the buffers were warm"
    );
    assert_eq!(f.farthest(), 4095);
    assert_eq!(f.expected().count(), DESCS.len());

    // A reset keeps the buffers too.
    f.reset();
    let n = allocations(|| replay(&mut f, 0..64));
    assert_eq!(n, 0, "notes after a reset allocated");
}
