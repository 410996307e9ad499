//! Seeded inputs: documents, corrupted copies, cold-start samples, the
//! edit script, and digests that show two runs used identical inputs.

use std::ops::Range;

use modpeg_conformance::{GenConfig, Generator};
use modpeg_runtime::{EventCounts, Value};
use modpeg_workload::rng::StdRng;

use crate::pipeline::{self, GrammarSpec};

/// FNV-1a over bytes.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Per-input digests plus one digest over all of them, in input order.
#[derive(Debug, Default)]
pub struct Digests {
    pub entries: Vec<(String, usize, u64)>,
}

impl Digests {
    pub fn add(&mut self, label: impl Into<String>, text: &str) {
        self.entries
            .push((label.into(), text.len(), fnv(text.as_bytes())));
    }

    pub fn combined(&self) -> u64 {
        let mut all = Vec::with_capacity(self.entries.len() * 8);
        for (_, _, d) in &self.entries {
            all.extend_from_slice(&d.to_le_bytes());
        }
        fnv(&all)
    }
}

/// A document generator from `modpeg-workload`.
pub type GenFn = fn(u64, usize) -> String;

/// The normal and the lexical-heavy generator of a batch grammar.
pub fn generators(grammar: &str) -> (GenFn, GenFn) {
    use modpeg_workload as w;
    match grammar {
        "calc" => (w::calc_expression, w::calc_lexical),
        "json" => (w::json_document, w::json_lexical),
        "java" => (w::java_program, w::java_lexical),
        _ => (w::c_program, w::c_lexical),
    }
}

/// `count` small valid samples for `spec`, for the cold-start workload.
/// Grammars with a document generator use it; the others draw sentences
/// from the grammar-aware generator and keep those the grammar accepts.
pub fn samples(spec: &GrammarSpec, rng: &mut StdRng, count: usize) -> Result<Vec<String>, String> {
    use modpeg_workload as w;
    let generator: Option<GenFn> = match spec.name {
        "calc" => Some(w::calc_expression),
        "json" => Some(w::json_document),
        "java" | "java_sql" => Some(w::java_program),
        "java_extended" => Some(w::java_extended_program),
        "c" => Some(w::c_program),
        _ => None,
    };
    if let Some(generate) = generator {
        return Ok((0..count)
            .map(|_| {
                let size = rng.gen_range(200usize..600);
                generate(rng.next_u64(), size)
            })
            .collect());
    }
    let grammar = pipeline::elaborate(spec)?;
    let vm = modpeg_vm::VmProgram::full(&grammar).map_err(|e| e.to_string())?;
    let gen = Generator::new(&grammar);
    let cfg = GenConfig {
        max_depth: 26,
        max_len: 400,
    };
    let mut out = Vec::with_capacity(count);
    for _ in 0..20_000 {
        let s = gen.generate(rng, &cfg);
        if !s.is_empty() && vm.parse(&s).is_ok() {
            out.push(s);
            if out.len() == count {
                return Ok(out);
            }
        }
    }
    Err(format!("{}: too few valid generated samples", spec.name))
}

/// A structural digest of an owned tree: node kinds, spans, text and
/// list shapes. Two trees with equal digests render identically.
pub fn tree_digest(v: &Value, input: &str) -> u64 {
    fn mix(h: &mut u64, x: u64) {
        *h = (*h ^ x).wrapping_mul(0x0100_0000_01b3);
    }
    fn walk(v: &Value, h: &mut u64) {
        match v {
            Value::Unit => mix(h, 1),
            Value::Absent => mix(h, 2),
            Value::Text(s) => {
                mix(h, 3);
                mix(h, u64::from(s.lo()) << 32 | u64::from(s.hi()));
            }
            Value::OwnedText(s) => {
                mix(h, 4);
                mix(h, fnv(s.as_bytes()));
            }
            Value::Node(n) => {
                mix(h, 5);
                mix(h, fnv(n.kind().as_str().as_bytes()));
                if let Some(s) = n.span() {
                    mix(h, u64::from(s.lo()) << 32 | u64::from(s.hi()));
                }
                mix(h, n.children().len() as u64);
                for c in n.children() {
                    walk(c, h);
                }
            }
            Value::List(items) => {
                mix(h, 6);
                mix(h, items.len() as u64);
                for c in items.iter() {
                    walk(c, h);
                }
            }
            // Region-backed values never survive copy-out into an owned
            // tree; seeing one is itself a difference.
            Value::ArenaNode(_) | Value::ArenaList(_) => mix(h, 7),
        }
    }
    let mut h = 0xcbf2_9ce4_8422_2325;
    walk(v, &mut h);
    mix(&mut h, input.len() as u64);
    h
}

/// The event counts an owned tree streams as, for checking event output.
pub fn tree_events(v: &Value) -> EventCounts {
    let mut counts = EventCounts::default();
    modpeg_runtime::recover::emit_recovered_events(v, &mut counts);
    counts
}

/// Identifiers the Java generator draws from; renames stay inside it.
const IDENTS: &[&str] = &[
    "value", "count", "index", "total", "size", "item", "result", "buffer", "offset", "limit",
    "state", "flag", "node", "left", "right", "sum", "tmp", "data", "acc", "pos",
];

/// The statement the script inserts; it has no digits and no identifier
/// from [`IDENTS`], so later digit edits and renames never touch it.
const INSERTED: &str = "audit(trail, \"edit\");\n";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditKind {
    Digits,
    Rename,
    Insert,
    Delete,
}

#[derive(Debug, Clone)]
pub struct Edit {
    pub kind: EditKind,
    pub range: Range<usize>,
    pub replacement: String,
}

/// A seeded script of edits that keep a generated Java document valid:
/// numeric literal replacements, identifier renames, statement inserts
/// inside method bodies, and deletes of statements the script inserted.
pub struct EditScript {
    rng: StdRng,
    /// Start and length of every statement the script inserted and has
    /// not deleted yet, in current document coordinates.
    inserted: Vec<(usize, usize)>,
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

impl EditScript {
    pub fn new(seed: u64) -> EditScript {
        EditScript {
            rng: StdRng::seed_from_u64(seed),
            inserted: Vec::new(),
        }
    }

    /// Draws the next edit for `doc` (not yet applied); `None` when the
    /// document has no edit site at all.
    pub fn next(&mut self, doc: &str) -> Option<Edit> {
        let roll = self.rng.gen_range(0u32..100);
        let first = match roll {
            0..=34 => EditKind::Digits,
            35..=69 => EditKind::Rename,
            70..=84 => EditKind::Insert,
            _ => EditKind::Delete,
        };
        let from = self.rng.gen_range(0..doc.len().max(1));
        // A kind without a site in this document falls through to the next.
        [first, EditKind::Digits, EditKind::Rename, EditKind::Insert]
            .into_iter()
            .find_map(|kind| match kind {
                EditKind::Digits => self.digits(doc, from),
                EditKind::Rename => self.rename(doc, from),
                EditKind::Insert => self.insert(doc, from),
                EditKind::Delete if self.inserted.is_empty() => None,
                EditKind::Delete => {
                    let i = self.rng.gen_range(0..self.inserted.len());
                    let (start, len) = self.inserted[i];
                    Some(Edit {
                        kind,
                        range: start..start + len,
                        replacement: String::new(),
                    })
                }
            })
    }

    /// Records that `edit` was applied, moving tracked statements.
    pub fn applied(&mut self, edit: &Edit) {
        let Range { start, end } = edit.range;
        if edit.kind == EditKind::Delete {
            self.inserted.retain(|&(s, _)| s != start);
        }
        for (s, _) in &mut self.inserted {
            if *s >= end {
                *s = *s - (end - start) + edit.replacement.len();
            }
        }
        if edit.kind == EditKind::Insert {
            self.inserted.push((start, edit.replacement.len()));
        }
    }

    /// Finds the first position at or after `from` (wrapping) where
    /// `site` returns an edit.
    fn search(doc: &str, from: usize, mut site: impl FnMut(usize) -> Option<Edit>) -> Option<Edit> {
        (from..doc.len()).chain(0..from).find_map(&mut site)
    }

    fn digits(&mut self, doc: &str, from: usize) -> Option<Edit> {
        let b = doc.as_bytes();
        let rng = &mut self.rng;
        Self::search(doc, from, |i| {
            if !b[i].is_ascii_digit() || (i > 0 && is_ident(b[i - 1])) {
                return None;
            }
            let end = (i..b.len())
                .find(|&j| !b[j].is_ascii_digit())
                .unwrap_or(b.len());
            if end < b.len() && is_ident(b[end]) {
                return None;
            }
            let len = rng.gen_range(1usize..5);
            let mut s = String::with_capacity(len);
            s.push(char::from(b'1' + rng.gen_range(0u8..9)));
            for _ in 1..len {
                s.push(char::from(b'0' + rng.gen_range(0u8..10)));
            }
            if s.as_bytes() == &b[i..end] {
                s.push('7');
            }
            Some(Edit {
                kind: EditKind::Digits,
                range: i..end,
                replacement: s,
            })
        })
    }

    fn rename(&mut self, doc: &str, from: usize) -> Option<Edit> {
        let b = doc.as_bytes();
        let rng = &mut self.rng;
        Self::search(doc, from, |i| {
            if !b[i].is_ascii_lowercase() || (i > 0 && is_ident(b[i - 1])) {
                return None;
            }
            let end = (i..b.len()).find(|&j| !is_ident(b[j])).unwrap_or(b.len());
            let word = &doc[i..end];
            let current = IDENTS.iter().position(|w| *w == word)?;
            let pick = (current + rng.gen_range(1..IDENTS.len())) % IDENTS.len();
            Some(Edit {
                kind: EditKind::Rename,
                range: i..end,
                replacement: IDENTS[pick].to_owned(),
            })
        })
    }

    fn insert(&mut self, doc: &str, from: usize) -> Option<Edit> {
        let b = doc.as_bytes();
        Self::search(doc, from, |i| {
            if i > 0 && b[i - 1] != b'\n' {
                return None;
            }
            // Lines indented two levels or more are inside method bodies.
            let pad = b[i..].iter().take_while(|&&c| c == b' ').count();
            (pad >= 8).then(|| Edit {
                kind: EditKind::Insert,
                range: i..i,
                replacement: format!("{}{INSERTED}", " ".repeat(pad)),
            })
        })
    }
}
