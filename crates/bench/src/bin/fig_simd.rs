//! E16 — bulk (SWAR/SIMD) character-class scanning against the forced
//! scalar reference path, on every engine at full optimization.
//!
//! Inputs are the **lexical-heavy** workload variants
//! (`modpeg_workload::*_lexical`): valid programs for the same four
//! grammars whose bytes are dominated by long terminal runs — wide
//! whitespace gaps, long identifiers and numerals, long line comments —
//! the shapes real corpora (minified payloads, generated code, vendored
//! headers) share and where class loops dominate parse time. The
//! token-dense standard workloads spend most of their time in choice
//! dispatch, not class runs, and sit near 1.0x on every engine.
//!
//! Methodology: **paired-interleaved rounds**, as in E12. Each timed
//! round runs every (engine, scan mode) cell back-to-back over the whole
//! input set — interp scalar, interp vectorized, vm scalar, vm
//! vectorized, codegen scalar, codegen vectorized — so thermal drift,
//! frequency scaling, and allocator state bias all cells equally.
//! Medians are taken per cell across rounds. Before timing, both modes'
//! trees are checked byte-identical on every input for every engine — a
//! speedup from a scanner that consumes a different run length would be
//! meaningless.
//!
//! Scan modes are switched with the runtime's thread-local override
//! (`scan::force_scalar`), the same switch `scripts/simd-smoke.sh` and
//! the conformance scan-parity legs use.
//!
//! Knobs: `MODPEG_BENCH_BYTES` (default 24000), `MODPEG_BENCH_SEEDS` (3),
//! `MODPEG_BENCH_RUNS` (5).

use std::time::Duration;

use modpeg_bench::{kib_per_s, ms, time_once, Knobs, FAMILIES};
use modpeg_interp::{CompiledGrammar, Engine, OptConfig, ParseOptions};
use modpeg_runtime::{scan, SyntaxTree};
use modpeg_vm::VmProgram;

fn parse(engine: &dyn Engine, input: &str) -> SyntaxTree {
    engine
        .tree(input, &ParseOptions::default())
        .0
        .expect("parses")
}

fn median(mut times: Vec<Duration>) -> Duration {
    times.sort_unstable();
    times[times.len() / 2]
}

fn main() {
    let knobs = Knobs::from_env(24_000, 3, 5);
    println!(
        "E16 — bulk class scanning (SWAR/SIMD) vs the scalar reference path\n\
         ({} lexical-heavy inputs x {} bytes per grammar, all engines at full\n\
         optimization, median of {} paired-interleaved rounds; trees verified\n\
         identical between scan modes on every engine)\n",
        knobs.seeds, knobs.bytes, knobs.runs
    );

    let mut rows = Vec::new();
    for family in FAMILIES {
        let grammar = (family.grammar)().expect("grammar elaborates");
        let interp = CompiledGrammar::compile(&grammar, OptConfig::all()).expect("compiles");
        let vm = VmProgram::from_compiled(&interp).expect("bytecode assembles");
        let inputs: Vec<String> = (0..knobs.seeds)
            .map(|s| (family.lexical)(s, knobs.bytes))
            .collect();
        let total_bytes: usize = inputs.iter().map(String::len).sum();

        let engines = family.engines(&interp, &vm);

        // Identical trees in both scan modes first.
        for input in &inputs {
            scan::force_scalar(true);
            let reference = parse(&interp, input).to_sexpr();
            for (name, engine) in &engines {
                scan::force_scalar(true);
                let scalar = parse(*engine, input).to_sexpr();
                scan::force_scalar(false);
                let vectorized = parse(*engine, input).to_sexpr();
                assert_eq!(
                    scalar, reference,
                    "{}/{name}: scalar tree diverged",
                    family.name
                );
                assert_eq!(
                    vectorized, reference,
                    "{}/{name}: vectorized tree diverged",
                    family.name
                );
            }
        }

        // Paired-interleaved timing: one warmup round, then `runs`
        // rounds of (engine x mode) over the whole input set.
        let mut scalar_times: Vec<Vec<Duration>> = vec![Vec::new(); engines.len()];
        let mut vector_times: Vec<Vec<Duration>> = vec![Vec::new(); engines.len()];
        for round in 0..=knobs.runs {
            for (e, (_, engine)) in engines.iter().enumerate() {
                scan::force_scalar(true);
                let (ds, _) = time_once(|| {
                    for i in &inputs {
                        std::hint::black_box(parse(*engine, i));
                    }
                });
                scan::force_scalar(false);
                let (dv, _) = time_once(|| {
                    for i in &inputs {
                        std::hint::black_box(parse(*engine, i));
                    }
                });
                if round > 0 {
                    scalar_times[e].push(ds);
                    vector_times[e].push(dv);
                }
            }
        }
        scan::reset_forced();

        for (e, (name, _)) in engines.iter().enumerate() {
            let s = median(scalar_times[e].clone());
            let v = median(vector_times[e].clone());
            rows.push(vec![
                family.name.to_owned(),
                (*name).to_owned(),
                ms(s),
                ms(v),
                kib_per_s(total_bytes, v),
                format!("{:.2}x", s.as_secs_f64() / v.as_secs_f64().max(1e-9)),
            ]);
        }
    }

    let headers = [
        "grammar",
        "engine",
        "scalar ms",
        "vectorized ms",
        "vectorized KiB/s",
        "speedup",
    ];
    modpeg_bench::print_table(&headers, &rows);
    println!(
        "\n`speedup` > 1 means the bulk scanner beats the per-char scalar loop\n\
         on that engine; both paths produce identical trees, comparison\n\
         counts, and failure positions (asserted above and by the\n\
         conformance scan-parity legs)."
    );
    modpeg_bench::emit_results_json(
        "fig_simd",
        &[
            ("experiment", "E16".into()),
            ("workload", "lexical-heavy".into()),
            ("bytes", knobs.bytes.to_string()),
            ("seeds", knobs.seeds.to_string()),
            ("runs", knobs.runs.to_string()),
        ],
        &headers,
        &rows,
    );
}
