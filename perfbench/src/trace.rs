//! In-memory span recording around calls into the layers.
//!
//! Spans are recorded by this benchmark's own code, around each call into
//! a layer's public functions; the library crates are not instrumented.
//! Each span has a name, a start and an end (nanoseconds since the
//! recorder was created), its parent span and the operation it belongs
//! to. Spans stay in memory until the run ends and are then written out
//! as one JSON file.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

struct Recorder {
    origin: Instant,
    enabled: bool,
    op: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        origin: Instant::now(),
        enabled: false,
        op: 0,
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Turns recording on or off for the spans that follow.
pub fn set_enabled(on: bool) {
    RECORDER.with(|r| r.borrow_mut().enabled = on);
}

/// Sets the operation id stamped on the spans that follow.
pub fn set_op(op: u64) {
    RECORDER.with(|r| r.borrow_mut().op = op);
}

/// Runs `f` inside a span named `name` (a no-op wrapper while recording
/// is off).
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let opened = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.enabled {
            return None;
        }
        let index = r.spans.len();
        let span = Span {
            name,
            start_ns: r.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: r.open.last().copied(),
            op: r.op,
        };
        r.spans.push(span);
        r.open.push(index);
        Some(index)
    });
    let out = f();
    if let Some(index) = opened {
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            let end = r.origin.elapsed().as_nanos() as u64;
            r.spans[index].end_ns = end;
            r.open.pop();
        });
    }
    out
}

/// Takes every recorded span out of the recorder.
pub fn take() -> Vec<Span> {
    RECORDER.with(|r| std::mem::take(&mut r.borrow_mut().spans))
}

/// Self time per span name: each span's duration minus the time its
/// child spans cover. Returns `(total self ns, span count)` by name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_ns) {
        let e = out.entry(s.name).or_default();
        e.0 += (s.end_ns - s.start_ns).saturating_sub(covered);
        e.1 += 1;
    }
    out
}

/// Renders the spans as a JSON document.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 96);
    out.push_str(&format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": [\n"
    ));
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        out.push_str(&format!(
            "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}}}",
            s.name, s.start_ns, s.end_ns, s.op
        ));
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push_str("]}\n");
    out
}
