//! Measurement bookkeeping shared by the workloads: timed legs, timed
//! operations, correctness accounting, and the counters the per-layer
//! metrics are computed from.

use std::collections::BTreeMap;
use std::time::Instant;

use modpeg_runtime::Stats;

use crate::alloc::{self, HeapUse};
use crate::pipeline::BuildCounts;
use crate::trace;

/// One engine-and-output combination a document goes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Leg {
    /// Interpreter, owned tree.
    Interp,
    /// Bytecode VM, owned tree.
    Vm,
    /// Build-time generated parser, owned tree.
    Codegen,
    /// Bytecode VM, SAX events.
    VmEvents,
    /// Bytecode VM, error-recovering parse of a corrupted document.
    VmRecover,
}

impl Leg {
    pub const ALL: [Leg; 5] = [
        Leg::Interp,
        Leg::Vm,
        Leg::Codegen,
        Leg::VmEvents,
        Leg::VmRecover,
    ];

    pub fn span(self) -> &'static str {
        match self {
            Leg::Interp => "interp.parse",
            Leg::Vm => "vm.parse",
            Leg::Codegen => "codegen.parse",
            Leg::VmEvents => "vm.events",
            Leg::VmRecover => "vm.recover",
        }
    }
}

/// Timings of one leg, by work key: repetitions under one key do the same
/// work (the same input, or in `edit-session` the same document at
/// successive checkpoints).
#[derive(Debug, Default)]
pub struct LegSamples {
    /// Per key: (bytes, ns) of every repetition.
    by_key: BTreeMap<u64, Vec<(u64, u64)>>,
    pub count: u64,
}

impl LegSamples {
    fn add(&mut self, key: u64, bytes: usize, ns: u64) {
        self.by_key.entry(key).or_default().push((bytes as u64, ns));
        self.count += 1;
    }

    /// Total bytes and total time over the keys, each key weighted once
    /// whatever its number of repetitions: its fastest repetition's
    /// nanoseconds per byte times its mean bytes. The machine the bounds
    /// were set on switches between a fast and a slow speed (about 1.8×
    /// apart) every few seconds; a run's mean depends on how much of it
    /// fell in the slow phase, while each input's fastest repetition
    /// depends on it much less (measured on the same runs of every
    /// workload: spread 0.04–0.15 for the minimum, 0.06–0.17 for the lower
    /// decile, 0.06–0.31 for the median, 0.08–0.21 for the mean).
    fn totals(&self) -> Option<(f64, f64)> {
        let mut bytes = 0.0;
        let mut ns = 0.0;
        for reps in self.by_key.values() {
            let n = reps.len() as f64;
            let mean_bytes = reps.iter().map(|(b, _)| *b as f64).sum::<f64>() / n;
            let ns_per_byte = reps
                .iter()
                .map(|&(b, t)| t as f64 / b.max(1) as f64)
                .min_by(f64::total_cmp)
                .unwrap_or(0.0);
            bytes += mean_bytes;
            ns += ns_per_byte * mean_bytes;
        }
        (bytes > 0.0 && ns > 0.0).then_some((bytes, ns))
    }

    /// MiB per second, or `None` when the leg never ran.
    pub fn mib_s(&self) -> Option<f64> {
        self.totals().map(|(b, ns)| b / 1_048_576.0 / (ns * 1e-9))
    }

    /// Nanoseconds per byte, or `None` when the leg never ran.
    pub fn ns_per_byte(&self) -> Option<f64> {
        self.totals().map(|(b, ns)| ns / b)
    }
}

/// Counters of the incremental-session layer.
#[derive(Debug, Default)]
pub struct SessionCounters {
    pub apply_edit_ns: Vec<u64>,
    pub reparse_ns: Vec<u64>,
    pub columns_reused: u64,
    pub columns_invalidated: u64,
    pub entries_shifted: u64,
}

impl SessionCounters {
    pub fn record(&mut self, apply_ns: u64, reparse_ns: u64, stats: &Stats) {
        self.apply_edit_ns.push(apply_ns);
        self.reparse_ns.push(reparse_ns);
        self.columns_reused += stats.memo_columns_reused;
        self.columns_invalidated += stats.memo_columns_invalidated;
        self.entries_shifted += stats.memo_entries_shifted;
    }
}

/// Everything one run measures.
#[derive(Default)]
pub struct Recorder {
    /// Whether this is the traced run.
    pub trace: bool,
    pub legs: [LegSamples; 5],
    /// Per-operation latency, by work key.
    pub latencies_ns: BTreeMap<u64, Vec<u64>>,
    /// Extra heap at the peak of each operation, by work key.
    pub peaks: BTreeMap<u64, Vec<usize>>,
    /// Heap use of the most recent leg.
    pub last_leg_heap: HeapUse,
    pub setup_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    unit_failed: bool,
    ops: u64,
    /// Completed passes over the workload's operation list; alternates
    /// which operations the traced run records.
    pub sweep: u64,
    /// Operation latency by key, with and without span recording:
    /// `[traced, untraced]` as (total ns, count).
    pub overhead: BTreeMap<u64, [(u64, u64); 2]>,
    // Counters read in the traced run.
    pub vm_stats: Stats,
    pub vm_stats_bytes: u64,
    /// Heap use of the VM tree legs: allocations, summed peaks, bytes.
    pub vm_allocations: u64,
    pub vm_peak_sum: u64,
    pub vm_bytes: u64,
    pub recover_errors: u64,
    pub builds: Vec<(&'static str, BuildCounts)>,
    pub session: SessionCounters,
    pub scan: Option<(u64, u64, u64)>,
    pub cli_ms: Vec<f64>,
}

pub fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

impl Recorder {
    pub fn new(trace: bool) -> Recorder {
        trace::set_enabled(trace);
        Recorder {
            trace,
            ..Recorder::default()
        }
    }

    /// Runs one leg over `bytes` of input (the input `key` names), timing
    /// it and measuring its heap use; the result is returned for checking
    /// outside the timed region.
    pub fn leg<R>(&mut self, leg: Leg, key: u64, bytes: usize, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let (r, heap) = alloc::measure(|| trace::span(leg.span(), f));
        let ns = elapsed_ns(t);
        self.legs[leg as usize].add(key, bytes, ns);
        self.last_leg_heap = heap;
        if leg == Leg::Vm {
            self.vm_allocations += heap.allocations;
            self.vm_peak_sum += heap.peak_extra as u64;
            self.vm_bytes += bytes as u64;
        }
        r
    }

    /// Runs one operation of the workload's closed loop: the next starts
    /// only after this one returns. `key` groups operations that do the
    /// same work, for the tracing-overhead comparison.
    pub fn op<R>(&mut self, key: u64, f: impl FnOnce(&mut Recorder) -> R) -> R {
        self.ops += 1;
        let traced = self.trace && (key + self.sweep).is_multiple_of(2);
        trace::set_enabled(traced);
        trace::set_op(self.ops);
        let t = Instant::now();
        let (r, heap) = alloc::measure(|| trace::span("op", || f(self)));
        let ns = elapsed_ns(t);
        trace::set_enabled(self.trace);
        self.latencies_ns.entry(key).or_default().push(ns);
        self.note_peak(key, heap.peak_extra);
        if self.trace {
            let e = self.overhead.entry(key).or_default();
            let side = usize::from(!traced);
            e[side].0 += ns;
            e[side].1 += 1;
        }
        r
    }

    /// The latency of each distinct operation, in milliseconds: the
    /// fastest of its repetitions, for the reason given at
    /// [`LegSamples::totals`].
    pub fn op_latencies_ms(&self) -> Vec<f64> {
        self.latencies_ns
            .values()
            .filter_map(|v| v.iter().min())
            .map(|&ns| ns as f64 / 1e6)
            .collect()
    }

    /// Records the extra heap one operation with work key `key` used.
    pub fn note_peak(&mut self, key: u64, bytes: usize) {
        self.peaks.entry(key).or_default().push(bytes);
    }

    /// Peak extra heap of the largest operation: the largest, over work
    /// keys, of the median peak of that key's repetitions.
    pub fn peak_heap(&self) -> Option<usize> {
        self.peaks
            .values()
            .filter_map(|v| {
                let mut v: Vec<f64> = v.iter().map(|&x| x as f64).collect();
                median(&mut v)
            })
            .max_by(f64::total_cmp)
            .map(|x| x as usize)
    }

    /// Records the outcome of one check of the current unit of work.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.unit_failed = true;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    /// Closes one unit of work (an operation, a checkpoint leg, a setup):
    /// it counts as attempted, and as failed if any of its checks failed.
    pub fn finish_unit(&mut self) {
        self.attempted += 1;
        if std::mem::take(&mut self.unit_failed) {
            self.failed += 1;
        }
    }

    /// Runs checks outside every timed region, in a `check` span.
    pub fn checks(&mut self, f: impl FnOnce(&mut Recorder)) {
        trace::set_enabled(self.trace);
        trace::set_op(self.ops);
        trace::span("check", || f(self));
        self.finish_unit();
    }

    /// Times one setup: sources to ready engines.
    pub fn setup<R>(&mut self, f: impl FnOnce(&mut Recorder) -> R) -> R {
        trace::set_enabled(self.trace);
        trace::set_op(0);
        let t = Instant::now();
        let r = trace::span("setup", || f(self));
        self.setup_s.push(t.elapsed().as_secs_f64());
        r
    }

    /// Adds a traced VM run's counters.
    pub fn vm_counters(&mut self, stats: &Stats, bytes: usize) {
        if self.trace {
            self.vm_stats.merge(stats);
            self.vm_stats_bytes += bytes as u64;
        }
    }
}

/// Median of `v` (sorted in place); `None` when empty.
pub fn median(v: &mut [f64]) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// The highest percentile with at least ten samples beyond it: returns
/// (value, percentile, sample count). The samples are distinct operations,
/// each already the fastest of its repetitions, so a workload has only 10
/// to 148 of them; with fewer than 22, that percentile would not lie above
/// the median, and the maximum is returned instead.
pub fn tail(v: &mut [f64]) -> Option<(f64, f64, usize)> {
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let idx = if n >= 22 { n - 11 } else { n - 1 };
    Some((v[idx], (idx + 1) as f64 * 100.0 / n as f64, n))
}
