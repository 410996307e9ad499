//! E12 — the bytecode machine (`modpeg-vm`) against the tree-walking
//! interpreter and the generated parser, at the same optimization level
//! (`OptConfig::all()`) on the same inputs.
//!
//! Methodology: **paired-interleaved rounds**. Each timed round runs every
//! engine back-to-back over the whole input set (interp, then vm, then
//! generated), so thermal drift, frequency scaling, and allocator state
//! bias all engines equally instead of whichever ran last. Medians are
//! taken per engine across rounds. Before timing, every engine's tree is
//! checked byte-identical on every input — a throughput number for a
//! parser that builds a different tree would be meaningless.
//!
//! Knobs: `MODPEG_BENCH_BYTES` (default 24000), `MODPEG_BENCH_SEEDS` (3),
//! `MODPEG_BENCH_RUNS` (5).

use std::time::Duration;

use modpeg_bench::{kib_per_s, ms, time_once, Knobs, FAMILIES};
use modpeg_interp::{CompiledGrammar, Engine, OptConfig, ParseOptions};
use modpeg_runtime::SyntaxTree;
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
        "E12 — bytecode machine vs interpreter vs generated parser\n\
         ({} inputs x {} bytes per grammar, all engines at full optimization,\n\
         median of {} paired-interleaved rounds; trees verified identical)\n",
        knobs.seeds, knobs.bytes, knobs.runs
    );

    let mut rows = Vec::new();
    for family in FAMILIES {
        let grammar = (family.grammar)().expect("grammar elaborates");
        let interp = CompiledGrammar::compile(&grammar, OptConfig::all()).expect("compiles");
        let vm = VmProgram::from_compiled(&interp).expect("bytecode assembles");
        let inputs: Vec<String> = (0..knobs.seeds)
            .map(|s| (family.workload)(s, knobs.bytes))
            .collect();
        let total_bytes: usize = inputs.iter().map(String::len).sum();

        let engines = family.engines(&interp, &vm);

        // Identical trees first; a faster wrong parser is no parser.
        for input in &inputs {
            let reference = parse(&interp, input).to_sexpr();
            for (name, engine) in &engines[1..] {
                assert_eq!(
                    parse(*engine, input).to_sexpr(),
                    reference,
                    "{}: {name} tree diverged",
                    family.name
                );
            }
        }

        // Paired-interleaved timing: one warmup round, then `runs` rounds
        // of interp → vm → generated over the whole input set.
        let mut times: [Vec<Duration>; 3] = Default::default();
        for round in 0..=knobs.runs {
            for (e, (_, engine)) in engines.iter().enumerate() {
                let (d, _) = time_once(|| {
                    for i in &inputs {
                        std::hint::black_box(parse(*engine, i));
                    }
                });
                if round > 0 {
                    times[e].push(d);
                }
            }
        }
        let [mi, mv, mg] = times.map(median);
        rows.push(vec![
            family.name.to_owned(),
            ms(mi),
            ms(mv),
            ms(mg),
            kib_per_s(total_bytes, mv),
            format!("{:.2}x", mi.as_secs_f64() / mv.as_secs_f64().max(1e-9)),
            format!("{:.2}x", mv.as_secs_f64() / mg.as_secs_f64().max(1e-9)),
        ]);
    }

    let headers = [
        "grammar",
        "interp ms",
        "vm ms",
        "codegen ms",
        "vm KiB/s",
        "vm vs interp",
        "codegen vs vm",
    ];
    modpeg_bench::print_table(&headers, &rows);
    println!(
        "\n`vm vs interp` > 1 means the bytecode machine beats the tree-walking\n\
         interpreter at the same optimization level; `codegen vs vm` > 1 means\n\
         the generated parser is still faster than the machine."
    );
    modpeg_bench::emit_results_json(
        "fig_vm",
        &[
            ("experiment", "E12".into()),
            ("bytes", knobs.bytes.to_string()),
            ("seeds", knobs.seeds.to_string()),
            ("runs", knobs.runs.to_string()),
        ],
        &headers,
        &rows,
    );
}
