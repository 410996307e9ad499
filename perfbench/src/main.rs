//! modpeg's benchmark: one command that runs a workload from `.mpeg`
//! sources to owned trees, prints every metric with its unit, and checks
//! every output.
//!
//! ```text
//! modpeg-perfbench --workload <cold-start|batch-small|batch-large|edit-session>
//!                  --seed <n> --seconds <s> --trace <0|1> [--cli <modpeg>]
//!                  [--root <checkout>]
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` records spans
//! and reports the per-layer metrics. The last line of standard output is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`. The
//! results and (traced) the spans are also written as JSON under
//! `perfbench/out/` in the checkout.
//! See `perfbench/README.md` for the workloads and the metric map.

mod alloc;
mod inputs;
mod measure;
mod pipeline;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use measure::{median, tail, Leg, Recorder};
use workloads::Ctx;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    cli: Option<PathBuf>,
    root: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut cli, mut root) = (None, PathBuf::from("."));
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            "--cli" => cli = Some(PathBuf::from(value)),
            "--root" => root = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds}: expected 0 < s <= 600"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        cli,
        root,
    })
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn mib(bytes: usize) -> f64 {
    bytes as f64 / 1_048_576.0
}

fn end_to_end(rec: &Recorder, notes: &mut Vec<String>) -> Vec<(String, Option<f64>, &'static str)> {
    let mut lat = rec.op_latencies_ms();
    let tail = tail(&mut lat);
    if let Some((_, pct, n)) = tail {
        notes.push(format!(
            "latency_ms.tail is p{pct:.2} of {n} distinct operations"
        ));
    }
    let leg = |l: Leg| rec.legs[l as usize].mib_s();
    vec![
        ("setup_s".into(), median(&mut rec.setup_s.clone()), "s"),
        ("parse_mib_s.vm".into(), leg(Leg::Vm), "MiB/s"),
        ("parse_mib_s.codegen".into(), leg(Leg::Codegen), "MiB/s"),
        ("parse_mib_s.interp".into(), leg(Leg::Interp), "MiB/s"),
        ("events_mib_s.vm".into(), leg(Leg::VmEvents), "MiB/s"),
        ("recover_mib_s.vm".into(), leg(Leg::VmRecover), "MiB/s"),
        ("latency_ms.p50".into(), median(&mut lat), "ms"),
        ("latency_ms.tail".into(), tail.map(|t| t.0), "ms"),
        ("peak_heap_mib".into(), rec.peak_heap().map(mib), "MiB"),
    ]
}

/// Self time is reported for these layer spans.
const SELF_SPANS: [&str; 22] = [
    "op",
    "setup",
    "check",
    "syntax.parse",
    "core.elaborate",
    "core.analysis",
    "core.transform.fold",
    "core.transform.dce",
    "core.transform.inline",
    "core.transform.factor",
    "core.transform.classmerge",
    "interp.compile",
    "vm.compile",
    "codegen.emit",
    "interp.parse",
    "vm.parse",
    "codegen.parse",
    "vm.events",
    "vm.recover",
    "session.apply_edit",
    "session.parse",
    "cli.parse",
];

fn per_layer(rec: &Recorder, spans: &[trace::Span]) -> Vec<(String, Option<f64>, &'static str)> {
    let mut durations: std::collections::BTreeMap<&str, (u64, u64)> = Default::default();
    for s in spans {
        let e = durations.entry(s.name).or_default();
        e.0 += s.end_ns - s.start_ns;
        e.1 += 1;
    }
    let mean_ms = |name: &str| {
        durations
            .get(name)
            .map(|(ns, n)| *ns as f64 / *n as f64 / 1e6)
    };
    let builds = rec.builds.len() as f64;
    let build_mean = |f: &dyn Fn(&pipeline::BuildCounts) -> f64| {
        (builds > 0.0).then(|| rec.builds.iter().map(|(_, c)| f(c)).sum::<f64>() / builds)
    };
    let tokens = (builds > 0.0).then(|| {
        rec.builds
            .iter()
            .map(|(name, _)| pipeline::token_count(pipeline::spec(name)) as f64)
            .sum::<f64>()
            / builds
    });
    let mut m: Vec<(String, Option<f64>, &'static str)> = vec![
        ("syntax.parse_ms".into(), mean_ms("syntax.parse"), "ms"),
        ("syntax.tokens".into(), tokens, "count"),
        ("core.elaborate_ms".into(), mean_ms("core.elaborate"), "ms"),
        (
            "core.productions".into(),
            build_mean(&|c| c.productions as f64),
            "count",
        ),
        ("core.analysis_ms".into(), mean_ms("core.analysis"), "ms"),
    ];
    for (i, pass) in pipeline::PASSES.iter().enumerate() {
        let span = format!("core.transform.{pass}");
        m.push((format!("{span}.ms"), mean_ms(&span), "ms"));
        m.push((
            format!("{span}.prods"),
            build_mean(&|c| c.pass_prods[i] as f64),
            "count",
        ));
    }
    let vm_bytes = rec.vm_bytes as f64;
    let st = &rec.vm_stats;
    let per_byte = |x: u64| (rec.vm_stats_bytes > 0).then(|| x as f64 / rec.vm_stats_bytes as f64);
    let ns_b = |l: Leg| rec.legs[l as usize].ns_per_byte();
    let recover = &rec.legs[Leg::VmRecover as usize];
    let sess = &rec.session;
    let med_ns = |v: &[u64], scale: f64| {
        median(&mut v.iter().map(|&x| x as f64 / scale).collect::<Vec<_>>())
    };
    let edits = sess.apply_edit_ns.len() as f64;
    let per_edit = |x: u64| (edits > 0.0).then(|| x as f64 / edits);
    let reuse = sess.columns_reused + sess.columns_invalidated;
    m.extend([
        ("interp.compile_ms".into(), mean_ms("interp.compile"), "ms"),
        (
            "interp.memo_slots".into(),
            build_mean(&|c| f64::from(c.memo_slots)),
            "count",
        ),
        ("vm.compile_ms".into(), mean_ms("vm.compile"), "ms"),
        ("vm.ops".into(), build_mean(&|c| c.vm_ops as f64), "count"),
        ("codegen.emit_ms".into(), mean_ms("codegen.emit"), "ms"),
        (
            "codegen.source_bytes".into(),
            build_mean(&|c| c.source_bytes as f64),
            "B",
        ),
        (
            "cli.parse_small_ms".into(),
            median(&mut rec.cli_ms.clone()),
            "ms",
        ),
        ("interp.ns_per_byte".into(), ns_b(Leg::Interp), "ns/B"),
        ("vm.ns_per_byte".into(), ns_b(Leg::Vm), "ns/B"),
        ("codegen.ns_per_byte".into(), ns_b(Leg::Codegen), "ns/B"),
        (
            "runtime.evals_per_byte".into(),
            per_byte(st.productions_evaluated),
            "1/B",
        ),
        (
            "runtime.backtracks_per_byte".into(),
            per_byte(st.backtracks),
            "1/B",
        ),
        (
            "runtime.comparisons_per_byte".into(),
            per_byte(st.terminal_comparisons),
            "1/B",
        ),
        (
            "runtime.nodes_per_byte".into(),
            per_byte(st.nodes_built),
            "1/B",
        ),
        (
            "runtime.value_bytes_per_byte".into(),
            per_byte(st.value_bytes),
            "B/B",
        ),
        (
            "runtime.memo.probes_per_byte".into(),
            per_byte(st.memo_probes),
            "1/B",
        ),
        (
            "runtime.memo.hit_ratio".into(),
            (st.memo_probes > 0).then(|| st.memo_hits as f64 / st.memo_probes as f64),
            "ratio",
        ),
        (
            "runtime.memo.stores_per_hit".into(),
            Some(st.memo_stores as f64 / st.memo_hits.max(1) as f64),
            "ratio",
        ),
        (
            "runtime.memo.bytes_per_byte".into(),
            per_byte(st.memo_bytes),
            "B/B",
        ),
        (
            "alloc.count_per_byte".into(),
            (vm_bytes > 0.0).then(|| rec.vm_allocations as f64 / vm_bytes),
            "1/B",
        ),
        (
            "alloc.peak_bytes_per_byte".into(),
            (vm_bytes > 0.0).then(|| rec.vm_peak_sum as f64 / vm_bytes),
            "B/B",
        ),
        (
            "runtime.copy_out_ns_per_byte".into(),
            ns_b(Leg::Vm).zip(ns_b(Leg::VmEvents)).map(|(t, e)| t - e),
            "ns/B",
        ),
        (
            "runtime.recover.errors".into(),
            (recover.count > 0).then(|| rec.recover_errors as f64 / recover.count as f64),
            "count",
        ),
        (
            "runtime.recover.ns_per_byte".into(),
            recover.ns_per_byte(),
            "ns/B",
        ),
        (
            "runtime.scan.saved_ns_per_byte".into(),
            rec.scan.map(|(b, s, v)| (s as f64 - v as f64) / b as f64),
            "ns/B",
        ),
        (
            "session.apply_edit_us".into(),
            med_ns(&sess.apply_edit_ns, 1e3),
            "us",
        ),
        (
            "session.reparse_ms".into(),
            med_ns(&sess.reparse_ns, 1e6),
            "ms",
        ),
        (
            "session.columns_reused".into(),
            per_edit(sess.columns_reused),
            "count",
        ),
        (
            "session.columns_invalidated".into(),
            per_edit(sess.columns_invalidated),
            "count",
        ),
        (
            "session.reuse_ratio".into(),
            (reuse > 0).then(|| sess.columns_reused as f64 / reuse as f64),
            "ratio",
        ),
        (
            "session.entries_shifted".into(),
            per_edit(sess.entries_shifted),
            "count",
        ),
    ]);
    let selfs = trace::self_times(spans);
    for name in SELF_SPANS {
        let v = selfs.get(name).map(|(ns, n)| *ns as f64 / *n as f64 / 1e6);
        m.push((format!("self_ms.{name}"), v, "ms"));
    }
    // Tracing overhead: operations that did the same work, traced against
    // untraced, in the same process; the median over work keys.
    let mut ratios: Vec<f64> = rec
        .overhead
        .values()
        .filter(|[t, u]| t.1 > 0 && u.1 > 0)
        .map(|[t, u]| (t.0 as f64 / t.1 as f64) / (u.0 as f64 / u.1 as f64))
        .collect();
    m.push((
        "trace.overhead_pct".into(),
        median(&mut ratios).map(|r| (r - 1.0) * 100.0),
        "%",
    ));
    m
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn write_json(path: &std::path::Path, text: &str) -> Result<(), String> {
    modpeg_telemetry::validate_json(text)
        .map_err(|e| format!("{}: invalid JSON: {e}", path.display()))?;
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run(args: Args) -> Result<(), String> {
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        root: args.root.clone(),
        out: args.root.join("perfbench/out"),
        cli: args.cli.clone(),
        rec: Recorder::new(args.trace),
        digests: inputs::Digests::default(),
    };
    workloads::run(&args.workload, &mut ctx)?;
    trace::set_enabled(false);
    let spans = trace::take();
    let rec = &ctx.rec;

    let mut notes = Vec::new();
    let e2e = end_to_end(rec, &mut notes);
    let reported = if args.trace {
        per_layer(rec, &spans)
    } else {
        e2e.clone()
    };
    let mut metrics = Vec::with_capacity(reported.len());
    for (name, value, unit) in reported {
        match value {
            Some(v) if v.is_finite() => metrics.push(Metric {
                name,
                value: v,
                unit,
            }),
            _ => return Err(format!("metric {name} was not measured")),
        }
    }
    let fail_share = rec.failed as f64 / rec.attempted.max(1) as f64;

    for m in &metrics {
        println!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{:<40} {fail_share:>16.6} ratio", "fail_share");
    for n in &notes {
        println!("note: {n}");
    }
    for f in &rec.failures {
        println!("failure: {f}");
    }

    let digests: Vec<String> = ctx
        .digests
        .entries
        .iter()
        .map(|(label, len, d)| {
            format!(
                "{{\"input\": \"{}\", \"bytes\": {len}, \"fnv1a\": \"{d:016x}\"}}",
                json_escape(label)
            )
        })
        .collect();
    let e2e_known: Vec<Metric> = e2e
        .into_iter()
        .filter_map(|(name, v, unit)| {
            v.filter(|v| v.is_finite())
                .map(|value| Metric { name, value, unit })
        })
        .collect();
    let results = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"attempted\": {}, \"failed\": {}, \"fail_share\": {fail_share}, \
         \"threads\": {}, \"notes\": [{}], \"failures\": [{}], \
         \"inputs_fnv1a\": \"{:016x}\", \"inputs\": [{}], \
         \"end_to_end\": {}, \"metrics\": {}}}\n",
        json_escape(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        rec.attempted,
        rec.failed,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        notes
            .iter()
            .map(|n| format!("\"{}\"", json_escape(n)))
            .collect::<Vec<_>>()
            .join(", "),
        rec.failures
            .iter()
            .map(|n| format!("\"{}\"", json_escape(n)))
            .collect::<Vec<_>>()
            .join(", "),
        ctx.digests.combined(),
        digests.join(", "),
        metrics_json(&e2e_known),
        metrics_json(&metrics),
    );
    std::fs::create_dir_all(&ctx.out).map_err(|e| format!("{}: {e}", ctx.out.display()))?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    write_json(&ctx.out.join(format!("{stem}.results.json")), &results)?;
    if args.trace {
        let text = trace::to_json(&args.workload, args.seed, &spans);
        write_json(&ctx.out.join(format!("{stem}.trace.json")), &text)?;
    }
    println!(
        "inputs: fnv1a {:016x} over {} inputs",
        ctx.digests.combined(),
        ctx.digests.entries.len()
    );

    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        rec.failed == 0,
        rec.attempted,
        rec.failed,
        metrics_json(&metrics)
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("modpeg-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("modpeg-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
