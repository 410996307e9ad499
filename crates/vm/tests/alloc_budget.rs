//! Allocation budgets for the parse kernel.
//!
//! A counting global allocator tallies the heap allocations each parse
//! makes on its own thread, and every engine must stay within a committed
//! budget of allocations per input byte. The count is deterministic for a
//! fixed input, so this gate never depends on wall time. Each budget sits
//! next to the count the kernel made before farthest-failure tracking
//! reused its buffers and the machine built values straight from its
//! value stack, so a regression towards the old cost is visible at once.

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
/// this test's own build. Each budget is today's count plus 10%, rounded
/// up; the counts are exact, so a change that needs more must raise its
/// budget here and say why.
const BUDGETS: [(&str, &str, f64, f64); 15] = [
    ("calc", "vm", 3.45, 1.09),
    ("calc", "interp", 4.12, 2.40),
    ("calc", "codegen", 4.12, 2.40),
    ("json", "vm", 2.73, 0.67),
    ("json", "interp", 2.99, 1.22),
    ("json", "codegen", 2.99, 1.22),
    ("java", "vm", 3.97, 1.05),
    ("java", "interp", 4.41, 2.37),
    ("java", "codegen", 4.41, 2.38),
    ("c", "vm", 4.35, 1.06),
    ("c", "interp", 4.78, 2.42),
    ("c", "codegen", 4.78, 2.42),
    ("java-rejected", "vm", 3.65, 0.70),
    ("java-rejected", "interp", 4.09, 2.02),
    ("java-rejected", "codegen", 4.10, 2.03),
];

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
            let n = allocations(|| {
                accepted = engine.tree(&text, &ParseOptions::default()).0.is_ok();
            });
            assert_eq!(accepted, doc != "java-rejected", "{doc} on {name}");
            let per_byte = n as f64 / text.len() as f64;
            let &(_, _, before, budget) = BUDGETS
                .iter()
                .find(|b| b.0 == doc && b.1 == name)
                .expect("every document and engine has a budget");
            report.push_str(&format!(
                "{doc:>14} {name:>8}: {per_byte:.3} allocations/B ({n} over {} B; budget {budget}, before {before})\n",
                text.len()
            ));
            if per_byte > budget {
                over.push(format!("{doc} on {name}"));
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
