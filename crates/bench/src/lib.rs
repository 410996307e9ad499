//! # modpeg-bench
//!
//! The experiment harness: every table and figure of the paper's
//! evaluation has a binary here that regenerates it (see `EXPERIMENTS.md`
//! at the workspace root for the index and recorded results):
//!
//! | binary | experiment |
//! |--------|-----------|
//! | `table1` | E1 — grammar-modularity statistics |
//! | `fig_opts` | E2 — parse time vs cumulative optimizations |
//! | `fig_heap` | E3 — heap utilization vs cumulative optimizations |
//! | `table_compare` | E4 — parser throughput comparison |
//! | `fig_scaling` | E5 — linear-time scaling & backtracking blowup |
//! | `table_extend` | E6 — extensibility case study |
//! | `fig_incremental` | E8 — incremental reparse sessions |
//! | `fig_governor_overhead` | E10 — resource-governance guard overhead |
//! | `fig_telemetry_overhead` | E11 — telemetry hook overhead |
//! | `fig_vm` | E12 — bytecode machine vs interpreter vs generated parser |
//! | `fig_pgo` | E15 — profile-guided optimization vs cumulative levels |
//!
//! This library crate holds the shared measurement utilities. Every
//! binary prints its text report to stdout and drops a machine-readable
//! companion under `results/` via [`emit_results_json`].

#![warn(missing_docs)]

use std::time::{Duration, Instant};

use modpeg_core::{Diagnostics, Grammar};
use modpeg_interp::{CompiledGrammar, Engine};
use modpeg_vm::VmProgram;

/// One grammar the engine figures measure: how to elaborate it, its two
/// seeded document generators, and its build-time generated parser.
pub struct Family {
    /// The grammar's name in reports.
    pub name: &'static str,
    /// Elaborates the grammar from its module sources.
    pub grammar: fn() -> Result<Grammar, Diagnostics>,
    /// Seeded document generator (seed, target bytes).
    pub workload: fn(u64, usize) -> String,
    /// Seeded lexical-heavy document generator (long identifiers,
    /// numerals, comments and spacing).
    pub lexical: fn(u64, usize) -> String,
    /// The build-time generated parser.
    pub generated: &'static dyn Engine,
}

/// The grammars every engine figure covers.
pub const FAMILIES: &[Family] = &[
    Family {
        name: "calc",
        grammar: modpeg_grammars::calc_grammar,
        workload: modpeg_workload::calc_expression,
        lexical: modpeg_workload::calc_lexical,
        generated: &modpeg_grammars::generated::calc::GeneratedEngine,
    },
    Family {
        name: "json",
        grammar: modpeg_grammars::json_grammar,
        workload: modpeg_workload::json_document,
        lexical: modpeg_workload::json_lexical,
        generated: &modpeg_grammars::generated::json::GeneratedEngine,
    },
    Family {
        name: "java",
        grammar: modpeg_grammars::java_grammar,
        workload: modpeg_workload::java_program,
        lexical: modpeg_workload::java_lexical,
        generated: &modpeg_grammars::generated::java::GeneratedEngine,
    },
    Family {
        name: "c",
        grammar: modpeg_grammars::c_grammar,
        workload: modpeg_workload::c_program,
        lexical: modpeg_workload::c_lexical,
        generated: &modpeg_grammars::generated::c::GeneratedEngine,
    },
];

impl Family {
    /// The three compiled engines for this grammar, labelled: the
    /// interpreter and the bytecode machine (both at full optimization)
    /// and the generated parser.
    pub fn engines<'a>(
        &self,
        interp: &'a CompiledGrammar,
        vm: &'a VmProgram,
    ) -> [(&'static str, &'a dyn Engine); 3] {
        [("interp", interp), ("vm", vm), ("codegen", self.generated)]
    }
}

/// Times one execution of `f`.
pub fn time_once<R>(mut f: impl FnMut() -> R) -> (Duration, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed(), r)
}

/// Runs `f` `n` times (plus one warmup) and returns the median duration.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn median_time<R>(n: usize, mut f: impl FnMut() -> R) -> Duration {
    assert!(n > 0, "need at least one run");
    let _ = f(); // warmup
    let mut times: Vec<Duration> = (0..n).map(|_| time_once(&mut f).0).collect();
    times.sort_unstable();
    times[times.len() / 2]
}

/// Formats a duration as milliseconds with two decimals.
pub fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// Formats a throughput in KiB/s given bytes and a duration.
pub fn kib_per_s(bytes: usize, d: Duration) -> String {
    let secs = d.as_secs_f64();
    if secs == 0.0 {
        return "inf".to_owned();
    }
    format!("{:.0}", bytes as f64 / 1024.0 / secs)
}

/// Prints an aligned text table: a header row then data rows.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut out = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            if i == 0 {
                out.push_str(&format!("{:<w$}", cell, w = widths[i]));
            } else {
                out.push_str(&format!("{:>w$}", cell, w = widths[i]));
            }
        }
        out
    };
    println!("{}", line(headers.iter().map(|s| s.to_string()).collect()));
    println!("{}", "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    for row in rows {
        println!("{}", line(row.clone()));
    }
}

/// Minimal JSON string escaping for report cells.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Writes the machine-readable companion of a figure's text report to
/// `results/<name>.json`: the same header/row grid as the printed table,
/// plus free-form metadata (knob settings, units).
///
/// The directory defaults to `results/` at the workspace root so the
/// file lands next to the committed `.txt` reports regardless of the
/// invocation directory; `MODPEG_RESULTS_DIR` overrides it. Failures to
/// write are reported on stderr but never fail the experiment — the
/// text report on stdout is the primary artifact.
pub fn emit_results_json(
    name: &str,
    meta: &[(&str, String)],
    headers: &[&str],
    rows: &[Vec<String>],
) {
    let dir = std::env::var("MODPEG_RESULTS_DIR")
        .unwrap_or_else(|_| format!("{}/../../results", env!("CARGO_MANIFEST_DIR")));
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"figure\": \"{}\",\n", escape_json(name)));
    out.push_str("  \"meta\": {");
    for (i, (k, v)) in meta.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{}\": \"{}\"", escape_json(k), escape_json(v)));
    }
    out.push_str("},\n  \"columns\": [");
    for (i, h) in headers.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{}\"", escape_json(h)));
    }
    out.push_str("],\n  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str("    [");
        for (j, cell) in row.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\"", escape_json(cell)));
        }
        out.push(']');
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    let path = format!("{dir}/{name}.json");
    if let Err(e) = std::fs::write(&path, out) {
        eprintln!("note: could not write {path}: {e}");
    } else {
        eprintln!("(json: {path})");
    }
}

/// Repeat-count and input-size knobs shared by the experiment binaries,
/// overridable via environment variables so quick runs and full runs use
/// the same code. `MODPEG_BENCH_BYTES`, `MODPEG_BENCH_SEEDS`,
/// `MODPEG_BENCH_RUNS`.
#[derive(Debug, Clone, Copy)]
pub struct Knobs {
    /// Workload size per seed, in bytes.
    pub bytes: usize,
    /// Number of workload seeds.
    pub seeds: u64,
    /// Timed runs per measurement (median taken).
    pub runs: usize,
}

impl Knobs {
    /// Reads knobs from the environment with the given defaults.
    pub fn from_env(bytes: usize, seeds: u64, runs: usize) -> Knobs {
        let get = |name: &str, dflt: usize| {
            std::env::var(name)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(dflt)
        };
        Knobs {
            bytes: get("MODPEG_BENCH_BYTES", bytes),
            seeds: get("MODPEG_BENCH_SEEDS", seeds as usize) as u64,
            runs: get("MODPEG_BENCH_RUNS", runs),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_time_is_positive() {
        let d = median_time(3, || std::hint::black_box((0..1000).sum::<u64>()));
        assert!(d.as_nanos() > 0 || d.as_nanos() == 0); // smoke: no panic
    }

    #[test]
    fn formatting() {
        assert_eq!(ms(Duration::from_millis(1)), "1.00");
        assert_eq!(kib_per_s(1024, Duration::from_secs(1)), "1");
    }

    #[test]
    fn knobs_defaults() {
        let k = Knobs::from_env(1000, 3, 5);
        assert!(k.bytes >= 1);
        assert!(k.runs >= 1);
    }

    #[test]
    fn results_json_escapes_and_round_trips() {
        let dir = std::env::temp_dir().join(format!("modpeg-bench-json-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Env vars are process-global; this is the only test that sets it.
        std::env::set_var("MODPEG_RESULTS_DIR", &dir);
        emit_results_json(
            "fig_test",
            &[("runs", "5".into())],
            &["name", "quoted \"cell\""],
            &[vec!["a\nb".into(), "1.00".into()]],
        );
        std::env::remove_var("MODPEG_RESULTS_DIR");
        let text = std::fs::read_to_string(dir.join("fig_test.json")).unwrap();
        assert!(text.contains("\"figure\": \"fig_test\""), "{text}");
        assert!(text.contains("\\\"cell\\\""), "{text}");
        assert!(text.contains("a\\nb"), "{text}");
        assert!(
            modpeg_telemetry::validate_json(&text).is_ok(),
            "emitted report must be valid JSON: {text}"
        );
    }

    #[test]
    fn table_printing_does_not_panic() {
        print_table(
            &["name", "value"],
            &[vec!["a".into(), "1".into()], vec!["bb".into(), "22".into()]],
        );
    }
}
