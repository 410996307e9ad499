//! Region-backed semantic values and the SAX-style event surface.
//!
//! Grimm's production advice for Rats! is to "allocate from a dedicated
//! region, copy out the AST after parsing, and kill the entire region in
//! one operation". This module is that region: an [`Arena`] is a bump
//! area of flat node records whose children live in one shared pool and
//! whose text leaves are [`Span`]s borrowing the input. Parsers allocate
//! composite values here ([`Value::ArenaNode`] / [`Value::ArenaList`] are
//! 8-byte handles), callers that want a detached tree call
//! [`Arena::copy_out`] once at the end, and [`Arena::reset`] recycles the
//! whole region — every allocation of the previous parse — in O(1)
//! (capacity is kept, so pooled sessions stop allocating entirely once
//! warm).
//!
//! Handles carry the arena's *generation*, bumped on every reset: a
//! handle that survives a reset (a bug by construction — memo entries
//! and the region die together) is detectable instead of silently
//! resolving to an unrelated node. [`ArenaInvariants::check`] audits a
//! region: no dangling child handles, child-before-parent allocation
//! order (hence acyclicity), spans within the input, and a node count
//! that matches the allocation counter.
//!
//! The same machinery powers the SAX-style event mode: walking a value
//! through [`Arena::emit_events`] streams [`ParseEvent`]s to an
//! [`EventSink`] without materializing any owned tree, and
//! [`TreeBuilder`] is the sink that rebuilds a detached tree from the
//! stream (the conformance harness asserts this round-trip).

use std::rc::Rc;

use crate::span::Span;
use crate::value::{Node, NodeKind, Value};

/// A handle to a node allocated in an [`Arena`]: an index plus the
/// arena generation it was allocated under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArenaRef {
    index: u32,
    generation: u32,
}

impl ArenaRef {
    /// The node's index in its arena.
    pub fn index(self) -> u32 {
        self.index
    }

    /// The arena generation this handle was allocated under.
    pub fn generation(self) -> u32 {
        self.generation
    }

    /// Rebuilds a handle from its two halves (the memo table's packed
    /// entries store them as plain integers).
    pub(crate) fn from_raw(index: u32, generation: u32) -> Self {
        ArenaRef { index, generation }
    }
}

/// One flat node record: a kind tag (`None` marks a list), an optional
/// source span, and a `[lo, lo + len)` range into the arena's shared
/// children pool.
#[derive(Debug)]
struct ArenaNode {
    kind: Option<NodeKind>,
    span: Option<Span>,
    lo: u32,
    len: u32,
}

/// A bump region for semantic values: flat node records, one shared
/// children pool, killed as a whole by [`Arena::reset`].
///
/// # Examples
///
/// ```
/// use modpeg_runtime::{Arena, NodeKind, Span, Value};
///
/// let mut arena = Arena::new();
/// let leaf = Value::Text(Span::new(0, 2));
/// let node = arena.alloc_node(NodeKind::new("Pair"), vec![leaf.clone(), leaf], None);
/// let v = Value::ArenaNode(node);
/// assert_eq!(arena.to_sexpr(&v, "ab"), "(Pair \"ab\" \"ab\")");
/// let detached = arena.copy_out(&v);
/// arena.reset(); // kills the region; `detached` stays valid
/// assert_eq!(detached.to_sexpr("ab"), "(Pair \"ab\" \"ab\")");
/// ```
#[derive(Debug, Default)]
pub struct Arena {
    nodes: Vec<ArenaNode>,
    pool: Vec<Value>,
    generation: u32,
    /// Nodes allocated since the last reset (must equal `nodes.len()`).
    allocated: u64,
    /// Nodes allocated over the arena's whole lifetime (monotone across
    /// resets; the recycle-leak checks watch capacity, this watches use).
    lifetime_allocated: u64,
    resets: u64,
}

impl Arena {
    /// Bytes one node record occupies in the region (children occupy
    /// `size_of::<Value>()` each in the shared pool) — the unit the
    /// engines' value-byte accounting charges per arena allocation.
    pub const NODE_BYTES: usize = std::mem::size_of::<ArenaNode>();

    /// Creates an empty region.
    pub fn new() -> Self {
        Arena::default()
    }

    /// Allocates a node, consuming its children into the shared pool.
    pub fn alloc_node(
        &mut self,
        kind: NodeKind,
        children: Vec<Value>,
        span: Option<Span>,
    ) -> ArenaRef {
        self.alloc(Some(kind), children, span)
    }

    /// Allocates a list, consuming its items into the shared pool.
    pub fn alloc_list(&mut self, items: Vec<Value>) -> ArenaRef {
        self.alloc(None, items, None)
    }

    /// Allocates a node whose children are `stack[base..]`, draining them
    /// straight into the shared pool (no intermediate vector).
    pub fn alloc_node_from(
        &mut self,
        kind: NodeKind,
        stack: &mut Vec<Value>,
        base: usize,
        span: Option<Span>,
    ) -> ArenaRef {
        let lo = self.pool.len();
        self.pool.extend(stack.drain(base..));
        self.seal(Some(kind), lo, span)
    }

    /// Allocates a list of the items `stack[base..]`, draining them into
    /// the shared pool; an item that is itself an arena list contributes
    /// its items in its place (one level of splicing).
    pub fn alloc_list_from(&mut self, stack: &mut Vec<Value>, base: usize) -> ArenaRef {
        let lo = self.pool.len();
        for v in stack.drain(base..) {
            match v {
                Value::ArenaList(r) => {
                    let n = self.record(r);
                    let items = n.lo as usize..(n.lo + n.len) as usize;
                    self.pool.extend_from_within(items);
                }
                other => self.pool.push(other),
            }
        }
        self.seal(None, lo, None)
    }

    fn alloc(&mut self, kind: Option<NodeKind>, children: Vec<Value>, span: Option<Span>) -> ArenaRef {
        let lo = self.pool.len();
        self.pool.extend(children);
        self.seal(kind, lo, span)
    }

    /// Records a node over the pool entries appended since `lo`.
    fn seal(&mut self, kind: Option<NodeKind>, lo: usize, span: Option<Span>) -> ArenaRef {
        debug_assert!(
            self.pool[lo..].iter().all(|c| self.owns_composites_of(c)),
            "arena node allocated with children from another region/generation"
        );
        let index = self.nodes.len() as u32;
        self.nodes.push(ArenaNode {
            kind,
            span,
            lo: lo as u32,
            len: (self.pool.len() - lo) as u32,
        });
        self.allocated += 1;
        self.lifetime_allocated += 1;
        ArenaRef {
            index,
            generation: self.generation,
        }
    }

    /// Whether `v`'s composite parts (if any) are handles into *this*
    /// arena at its current generation. Leaves and owned `Rc` values
    /// trivially qualify.
    pub fn owns_composites_of(&self, v: &Value) -> bool {
        match v {
            Value::ArenaNode(r) | Value::ArenaList(r) => {
                r.generation == self.generation && (r.index as usize) < self.nodes.len()
            }
            _ => true,
        }
    }

    /// Number of live nodes (since the last reset).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the region holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The current generation (bumped by every [`Arena::reset`]).
    pub fn generation(&self) -> u32 {
        self.generation
    }

    /// Nodes allocated since the last reset.
    pub fn allocations(&self) -> u64 {
        self.allocated
    }

    /// Nodes allocated over the arena's whole lifetime.
    pub fn lifetime_allocations(&self) -> u64 {
        self.lifetime_allocated
    }

    /// How many times the region has been reset.
    pub fn resets(&self) -> u64 {
        self.resets
    }

    /// Kills the whole region in one operation: every node and pooled
    /// child of the previous parse is gone, capacity is retained for the
    /// next one, and the generation is bumped so surviving handles are
    /// detectably stale rather than silently re-resolved.
    pub fn reset(&mut self) {
        self.nodes.clear();
        self.pool.clear();
        self.generation = self.generation.wrapping_add(1);
        self.allocated = 0;
        self.resets += 1;
    }

    /// Estimated heap bytes retained by the region (capacity-based; the
    /// arena is accounted by the parsers' value-byte stats, *not* by the
    /// memo table's retained bytes — eviction cannot free region memory,
    /// so it must not count against the memo budget).
    pub fn retained_bytes(&self) -> u64 {
        (self.nodes.capacity() * std::mem::size_of::<ArenaNode>()
            + self.pool.capacity() * std::mem::size_of::<Value>()) as u64
    }

    fn record(&self, r: ArenaRef) -> &ArenaNode {
        debug_assert_eq!(
            r.generation, self.generation,
            "stale arena handle: allocated under generation {} but the region is at {}",
            r.generation, self.generation
        );
        &self.nodes[r.index as usize]
    }

    /// The kind tag of the node behind `r`, or `None` for a list.
    pub fn kind(&self, r: ArenaRef) -> Option<&NodeKind> {
        self.record(r).kind.as_ref()
    }

    /// The source span recorded for the node behind `r`, if any.
    pub fn span(&self, r: ArenaRef) -> Option<Span> {
        self.record(r).span
    }

    /// The children of the node behind `r`.
    pub fn children(&self, r: ArenaRef) -> &[Value] {
        let n = self.record(r);
        &self.pool[n.lo as usize..(n.lo + n.len) as usize]
    }

    /// Recursively materializes `v` as a detached, owned (`Rc`-based)
    /// value: the copy shares nothing with the region and survives
    /// [`Arena::reset`]. Non-arena values are returned as cheap clones.
    pub fn copy_out(&self, v: &Value) -> Value {
        match v {
            Value::ArenaNode(r) => {
                let children: Vec<Value> =
                    self.children(*r).iter().map(|c| self.copy_out(c)).collect();
                let kind = self
                    .kind(*r)
                    .expect("ArenaNode handle resolves to a node record")
                    .clone();
                match self.span(*r) {
                    Some(s) => Value::Node(Rc::new(Node::with_span(kind, children, s))),
                    None => Value::Node(Rc::new(Node::new(kind, children))),
                }
            }
            Value::ArenaList(r) => {
                let items: Vec<Value> =
                    self.children(*r).iter().map(|c| self.copy_out(c)).collect();
                Value::List(Rc::new(items))
            }
            other => {
                debug_assert!(
                    !has_arena_ref(other),
                    "owned composite value contains arena handles"
                );
                other.clone()
            }
        }
    }

    /// A copy of `v` with every span translated by `delta` bytes, for
    /// memo entries that move with the text right of an edit: arena
    /// subtrees are *deep-copied* into fresh region nodes (memo entries
    /// share subtrees, so shifting in place would double-shift). The
    /// region grows across edits and is reclaimed wholesale at the next
    /// reset.
    ///
    /// # Panics
    ///
    /// Panics on an `Rc` composite: values in a chunked memo table are
    /// always built in its region.
    pub fn shifted(&mut self, v: &Value, delta: i64) -> Value {
        if delta == 0 {
            return v.clone();
        }
        match v {
            Value::ArenaNode(r) | Value::ArenaList(r) => {
                let (kind, span, lo, len) = {
                    let n = self.record(*r);
                    (n.kind.clone(), n.span, n.lo, n.len)
                };
                let originals: Vec<Value> =
                    self.pool[lo as usize..(lo + len) as usize].to_vec();
                let children: Vec<Value> = originals
                    .iter()
                    .map(|c| self.shifted(c, delta))
                    .collect();
                match kind {
                    Some(k) => {
                        let nr = self.alloc_node(k, children, span.map(|s| s.shifted(delta)));
                        Value::ArenaNode(nr)
                    }
                    None => Value::ArenaList(self.alloc_list(children)),
                }
            }
            Value::Text(span) => Value::Text(span.shifted(delta)),
            Value::Node(_) | Value::List(_) => {
                unreachable!("chunked memo entries are built in the region")
            }
            leaf @ (Value::Unit | Value::Absent | Value::OwnedText(_)) => leaf.clone(),
        }
    }

    fn write_sexpr(&self, v: &Value, input: &str, out: &mut String) {
        match v {
            Value::ArenaNode(r) => {
                out.push('(');
                out.push_str(
                    self.kind(*r)
                        .expect("ArenaNode handle resolves to a node record")
                        .as_str(),
                );
                for c in self.children(*r) {
                    out.push(' ');
                    self.write_sexpr(c, input, out);
                }
                out.push(')');
            }
            Value::ArenaList(r) => {
                out.push('[');
                for (i, c) in self.children(*r).iter().enumerate() {
                    if i > 0 {
                        out.push(' ');
                    }
                    self.write_sexpr(c, input, out);
                }
                out.push(']');
            }
            other => out.push_str(&other.to_sexpr(input)),
        }
    }

    /// Renders `v` as an S-expression directly from the region, without
    /// copying out — byte-identical to rendering the copied-out tree
    /// (the tree-equivalence tests assert exactly this).
    pub fn to_sexpr(&self, v: &Value, input: &str) -> String {
        let mut out = String::new();
        self.write_sexpr(v, input, &mut out);
        out
    }

    /// Streams `v` as [`ParseEvent`]s without materializing any owned
    /// tree: arena nodes are resolved in place, owned `Rc` values are walked
    /// structurally, text leaves arrive as borrowed spans whenever the
    /// parse produced spans.
    pub fn emit_events(&self, v: &Value, sink: &mut dyn EventSink) {
        match v {
            Value::Unit => sink.event(ParseEvent::Unit),
            Value::Absent => sink.event(ParseEvent::Absent),
            Value::Text(span) => sink.event(ParseEvent::Text(*span)),
            Value::OwnedText(s) => sink.event(ParseEvent::OwnedText(Rc::clone(s))),
            Value::ArenaNode(r) => {
                let kind = self
                    .kind(*r)
                    .expect("ArenaNode handle resolves to a node record")
                    .clone();
                sink.event(ParseEvent::EnterNode {
                    kind,
                    span: self.span(*r),
                });
                for c in self.children(*r) {
                    self.emit_events(c, sink);
                }
                sink.event(ParseEvent::ExitNode);
            }
            Value::ArenaList(r) => {
                sink.event(ParseEvent::EnterList);
                for c in self.children(*r) {
                    self.emit_events(c, sink);
                }
                sink.event(ParseEvent::ExitList);
            }
            Value::Node(n) => {
                sink.event(ParseEvent::EnterNode {
                    kind: n.kind().clone(),
                    span: n.span(),
                });
                for c in n.children() {
                    self.emit_events(c, sink);
                }
                sink.event(ParseEvent::ExitNode);
            }
            Value::List(l) => {
                sink.event(ParseEvent::EnterList);
                for c in l.iter() {
                    self.emit_events(c, sink);
                }
                sink.event(ParseEvent::ExitList);
            }
        }
    }

    /// Structural equality of two values, either of which may be
    /// region-backed (resolved against *this* arena) or owned:
    /// text leaves compare by the characters they denote in `input`,
    /// node spans are ignored — the arena-aware analogue of
    /// [`Value::same_shape`].
    pub fn same_shape(&self, a: &Value, b: &Value, input: &str) -> bool {
        // A composite's (kind-or-list, children); `None` for leaves.
        fn parts<'a>(arena: &'a Arena, v: &'a Value) -> Option<(Option<&'a NodeKind>, &'a [Value])> {
            match v {
                Value::ArenaNode(r) => Some((
                    Some(
                        arena
                            .kind(*r)
                            .expect("ArenaNode handle resolves to a node record"),
                    ),
                    arena.children(*r),
                )),
                Value::ArenaList(r) => Some((None, arena.children(*r))),
                Value::Node(n) => Some((Some(n.kind()), n.children())),
                Value::List(l) => Some((None, l)),
                _ => None,
            }
        }
        match (parts(self, a), parts(self, b)) {
            (Some((ka, ca)), Some((kb, cb))) => {
                ka == kb
                    && ca.len() == cb.len()
                    && ca
                        .iter()
                        .zip(cb.iter())
                        .all(|(x, y)| self.same_shape(x, y, input))
            }
            (None, None) => match (a, b) {
                (Value::Unit, Value::Unit) | (Value::Absent, Value::Absent) => true,
                (
                    x @ (Value::Text(_) | Value::OwnedText(_)),
                    y @ (Value::Text(_) | Value::OwnedText(_)),
                ) => x.as_text(input) == y.as_text(input),
                _ => false,
            },
            _ => false,
        }
    }
}

/// Whether an owned composite value transitively contains arena handles
/// (an invariant violation: arena-mode parsers build *all* composite
/// values in the region, so owned `Rc` composites never hold handles).
fn has_arena_ref(v: &Value) -> bool {
    match v {
        Value::ArenaNode(_) | Value::ArenaList(_) => true,
        Value::Node(n) => n.children().iter().any(has_arena_ref),
        Value::List(l) => l.iter().any(has_arena_ref),
        _ => false,
    }
}

/// The structural-invariant audit over an [`Arena`]:
///
/// 1. every child range lies within the shared pool,
/// 2. every child handle resolves (current generation, in-bounds index)
///    and was allocated *before* its parent — acyclicity by construction,
/// 3. every span (node spans and text leaves) lies within the input,
/// 4. the live node count matches the allocation counter.
///
/// Engines run this as a debug assertion at the end of arena parses;
/// the `arena_invariants` test suite drives it across session recycling.
pub struct ArenaInvariants;

impl ArenaInvariants {
    /// Checks every invariant against `arena`, for an input of
    /// `input_len` bytes; the error names the first violation.
    pub fn check(arena: &Arena, input_len: u32) -> Result<(), String> {
        if arena.nodes.len() as u64 != arena.allocated {
            return Err(format!(
                "node count {} does not match allocation count {}",
                arena.nodes.len(),
                arena.allocated
            ));
        }
        let span_ok = |s: Span| s.lo() <= s.hi() && s.hi() <= input_len;
        for (i, n) in arena.nodes.iter().enumerate() {
            let hi = n.lo as usize + n.len as usize;
            if hi > arena.pool.len() {
                return Err(format!(
                    "node {i}: child range [{}, {hi}) exceeds pool of {}",
                    n.lo,
                    arena.pool.len()
                ));
            }
            if let Some(s) = n.span {
                if !span_ok(s) {
                    return Err(format!(
                        "node {i}: span [{}, {}) outside input of {input_len} bytes",
                        s.lo(),
                        s.hi()
                    ));
                }
            }
            for (j, c) in arena.pool[n.lo as usize..hi].iter().enumerate() {
                match c {
                    Value::ArenaNode(r) | Value::ArenaList(r) => {
                        if r.generation != arena.generation {
                            return Err(format!(
                                "node {i} child {j}: stale handle (generation {} vs region {})",
                                r.generation, arena.generation
                            ));
                        }
                        if r.index as usize >= arena.nodes.len() {
                            return Err(format!(
                                "node {i} child {j}: dangling handle index {}",
                                r.index
                            ));
                        }
                        if r.index as usize >= i {
                            return Err(format!(
                                "node {i} child {j}: child index {} not allocated before parent",
                                r.index
                            ));
                        }
                    }
                    Value::Text(s) => {
                        if !span_ok(*s) {
                            return Err(format!(
                                "node {i} child {j}: text span [{}, {}) outside input of \
                                 {input_len} bytes",
                                s.lo(),
                                s.hi()
                            ));
                        }
                    }
                    other => {
                        if has_arena_ref(other) {
                            return Err(format!(
                                "node {i} child {j}: owned composite holds arena handles"
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// One event of the SAX-style parse stream: a pre-order walk of the
/// semantic value with explicit enter/exit brackets. Text leaves arrive
/// as borrowed [`Span`]s whenever the parse produced spans (`text-only`),
/// so a lint/grep/count consumer never touches owned strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseEvent {
    /// A node begins; its children follow until the matching
    /// [`ParseEvent::ExitNode`].
    EnterNode {
        /// The node's kind tag.
        kind: NodeKind,
        /// The node's source span, if tracked.
        span: Option<Span>,
    },
    /// The most recently entered node ends.
    ExitNode,
    /// A list begins; its items follow until the matching
    /// [`ParseEvent::ExitList`].
    EnterList,
    /// The most recently entered list ends.
    ExitList,
    /// A borrowed text leaf: a span into the parser input.
    Text(Span),
    /// An owned text leaf (produced only when `text-only` is disabled).
    OwnedText(Rc<str>),
    /// A unit leaf (void productions, predicates, literals).
    Unit,
    /// An absent optional.
    Absent,
    /// A recovered error region begins (resilient parses only): the
    /// parser skipped `span` to resynchronize. Always balanced by a
    /// matching [`ParseEvent::ErrorEnd`]; the bracket is empty today but
    /// keeps room for engines to stream partial content they abandoned.
    ErrorStart {
        /// The skipped byte region the synthesized error node covers.
        span: Span,
    },
    /// The most recently entered error region ends.
    ErrorEnd,
}

/// A consumer of the SAX-style parse stream.
pub trait EventSink {
    /// Receives one event; events arrive in pre-order with balanced
    /// enter/exit brackets.
    fn event(&mut self, event: ParseEvent);
}

/// One open bracket in a [`TreeBuilder`]: the node-in-progress
/// (kind+span; `None` = list) and the children collected so far.
type OpenBracket = (Option<(NodeKind, Option<Span>)>, Vec<Value>);

/// An [`EventSink`] that rebuilds a detached, owned value from the event
/// stream — the round-trip oracle for event mode: parsing and rebuilding
/// must yield a tree structurally identical to the arena tree.
#[derive(Debug, Default)]
pub struct TreeBuilder {
    /// Open brackets, innermost last.
    stack: Vec<OpenBracket>,
    /// Completed top-level values (exactly one for a balanced stream).
    done: Vec<Value>,
}

impl TreeBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        TreeBuilder::default()
    }

    fn push(&mut self, v: Value) {
        match self.stack.last_mut() {
            Some((_, children)) => children.push(v),
            None => self.done.push(v),
        }
    }

    /// The rebuilt root value, if the stream was balanced and produced
    /// exactly one top-level value.
    pub fn finish(mut self) -> Option<Value> {
        if self.stack.is_empty() && self.done.len() == 1 {
            self.done.pop()
        } else {
            None
        }
    }
}

impl EventSink for TreeBuilder {
    fn event(&mut self, event: ParseEvent) {
        match event {
            ParseEvent::EnterNode { kind, span } => self.stack.push((Some((kind, span)), Vec::new())),
            ParseEvent::EnterList => self.stack.push((None, Vec::new())),
            ParseEvent::ExitNode | ParseEvent::ExitList => {
                let Some((header, children)) = self.stack.pop() else {
                    return;
                };
                let v = match header {
                    Some((kind, Some(span))) => {
                        Value::Node(Rc::new(Node::with_span(kind, children, span)))
                    }
                    Some((kind, None)) => Value::Node(Rc::new(Node::new(kind, children))),
                    None => Value::List(Rc::new(children)),
                };
                self.push(v);
            }
            ParseEvent::Text(span) => self.push(Value::Text(span)),
            ParseEvent::OwnedText(s) => self.push(Value::OwnedText(s)),
            ParseEvent::Unit => self.push(Value::Unit),
            ParseEvent::Absent => self.push(Value::Absent),
            ParseEvent::ErrorStart { span } => self
                .stack
                .push((Some((NodeKind::new(crate::recover::ERROR_KIND), Some(span))), Vec::new())),
            ParseEvent::ErrorEnd => self.event(ParseEvent::ExitNode),
        }
    }
}

/// An [`EventSink`] that only counts — the lint/grep/count consumer shape
/// event mode exists for (no tree, no strings, no allocation per event).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EventCounts {
    /// Nodes entered.
    pub nodes: u64,
    /// Lists entered.
    pub lists: u64,
    /// Text leaves (borrowed or owned).
    pub texts: u64,
    /// Unit leaves.
    pub units: u64,
    /// Absent optionals.
    pub absents: u64,
    /// Recovered error regions (resilient parses only).
    pub errors: u64,
    /// Deepest enter-bracket nesting observed.
    pub max_depth: u32,
    /// Current nesting (internal; ends at zero for a balanced stream).
    depth: u32,
}

impl EventSink for EventCounts {
    fn event(&mut self, event: ParseEvent) {
        match event {
            ParseEvent::EnterNode { .. } => {
                self.nodes += 1;
                self.depth += 1;
                self.max_depth = self.max_depth.max(self.depth);
            }
            ParseEvent::EnterList => {
                self.lists += 1;
                self.depth += 1;
                self.max_depth = self.max_depth.max(self.depth);
            }
            ParseEvent::ExitNode | ParseEvent::ExitList | ParseEvent::ErrorEnd => {
                self.depth = self.depth.saturating_sub(1)
            }
            ParseEvent::Text(_) | ParseEvent::OwnedText(_) => self.texts += 1,
            ParseEvent::Unit => self.units += 1,
            ParseEvent::Absent => self.absents += 1,
            ParseEvent::ErrorStart { .. } => {
                self.errors += 1;
                self.depth += 1;
                self.max_depth = self.max_depth.max(self.depth);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(arena: &mut Arena) -> Value {
        let a = Value::Text(Span::new(0, 1));
        let b = Value::Text(Span::new(1, 2));
        let list = arena.alloc_list(vec![a.clone(), b.clone()]);
        let inner = arena.alloc_node(NodeKind::new("Inner"), vec![Value::ArenaList(list)], None);
        let root = arena.alloc_node(
            NodeKind::new("Root"),
            vec![Value::ArenaNode(inner), a, Value::Unit, Value::Absent],
            Some(Span::new(0, 2)),
        );
        Value::ArenaNode(root)
    }

    #[test]
    fn alloc_resolve_roundtrip() {
        let mut arena = Arena::new();
        let v = sample(&mut arena);
        assert_eq!(arena.len(), 3);
        assert_eq!(arena.allocations(), 3);
        assert_eq!(arena.to_sexpr(&v, "xy"), "(Root (Inner [\"x\" \"y\"]) \"x\" () ~)");
        ArenaInvariants::check(&arena, 2).unwrap();
    }

    #[test]
    fn stack_entry_points_drain_and_splice() {
        let mut arena = Arena::new();
        let (a, b, c) = (
            Value::Text(Span::new(0, 1)),
            Value::Text(Span::new(1, 2)),
            Value::Text(Span::new(2, 3)),
        );
        let inner = arena.alloc_list(vec![b.clone(), c.clone()]);
        let mut stack = vec![
            Value::Unit,
            a.clone(),
            Value::ArenaList(inner),
            Value::Absent,
        ];
        let list = arena.alloc_list_from(&mut stack, 1);
        assert_eq!(stack, vec![Value::Unit]);
        assert_eq!(arena.children(list), [a.clone(), b, c, Value::Absent]);

        stack.push(Value::ArenaList(list));
        let node = arena.alloc_node_from(NodeKind::new("N"), &mut stack, 0, Some(Span::new(0, 3)));
        assert!(stack.is_empty());
        // Nodes take their children verbatim: no splicing.
        assert_eq!(arena.children(node), [Value::Unit, Value::ArenaList(list)]);
        assert_eq!(arena.span(node), Some(Span::new(0, 3)));
        assert_eq!(
            arena.to_sexpr(&Value::ArenaNode(node), "xyz"),
            "(N () [\"x\" \"y\" \"z\" ~])"
        );
        ArenaInvariants::check(&arena, 3).unwrap();
    }

    #[test]
    fn copy_out_detaches_and_matches_sexpr() {
        let mut arena = Arena::new();
        let v = sample(&mut arena);
        let arena_sexpr = arena.to_sexpr(&v, "xy");
        let detached = arena.copy_out(&v);
        assert!(arena.same_shape(&v, &detached, "xy"));
        arena.reset();
        assert_eq!(detached.to_sexpr("xy"), arena_sexpr);
        assert!(arena.is_empty());
    }

    #[test]
    fn reset_bumps_generation_and_keeps_lifetime_counter() {
        let mut arena = Arena::new();
        let v = sample(&mut arena);
        let Value::ArenaNode(stale) = v else { panic!() };
        let g0 = arena.generation();
        arena.reset();
        assert_eq!(arena.generation(), g0 + 1);
        assert_eq!(arena.allocations(), 0);
        assert_eq!(arena.lifetime_allocations(), 3);
        assert_eq!(arena.resets(), 1);
        assert!(!arena.owns_composites_of(&Value::ArenaNode(stale)));
    }

    #[test]
    fn shifted_deep_copies_and_translates_spans() {
        let mut arena = Arena::new();
        let v = sample(&mut arena);
        let before = arena.len();
        let moved = arena.shifted(&v, 3);
        assert!(arena.len() > before, "shift must deep-copy, not mutate");
        assert_eq!(
            arena.to_sexpr(&moved, "abcxy"),
            "(Root (Inner [\"x\" \"y\"]) \"x\" () ~)"
        );
        // The original is untouched (no double-shift hazard).
        assert_eq!(arena.to_sexpr(&v, "xy"), "(Root (Inner [\"x\" \"y\"]) \"x\" () ~)");
        let Value::ArenaNode(r) = moved else { panic!() };
        assert_eq!(arena.span(r), Some(Span::new(3, 5)));
        ArenaInvariants::check(&arena, 5).unwrap();
    }

    #[test]
    fn shifted_zero_is_identity() {
        let mut arena = Arena::new();
        let v = sample(&mut arena);
        let before = arena.len();
        let same = arena.shifted(&v, 0);
        assert_eq!(arena.len(), before);
        assert_eq!(same, v);
    }

    #[test]
    fn events_roundtrip_to_same_tree() {
        let mut arena = Arena::new();
        let v = sample(&mut arena);
        let mut builder = TreeBuilder::new();
        arena.emit_events(&v, &mut builder);
        let rebuilt = builder.finish().expect("balanced stream");
        assert!(arena.same_shape(&v, &rebuilt, "xy"));
        assert_eq!(rebuilt.to_sexpr("xy"), arena.to_sexpr(&v, "xy"));
    }

    #[test]
    fn events_roundtrip_legacy_values_too() {
        let arena = Arena::new();
        let legacy = Value::node(
            "Top",
            vec![Value::list(vec![Value::Text(Span::new(0, 1))]), Value::Unit],
        );
        let mut builder = TreeBuilder::new();
        arena.emit_events(&legacy, &mut builder);
        let rebuilt = builder.finish().expect("balanced stream");
        assert_eq!(rebuilt, legacy);
    }

    #[test]
    fn event_counts_count_without_building() {
        let mut arena = Arena::new();
        let v = sample(&mut arena);
        let mut counts = EventCounts::default();
        arena.emit_events(&v, &mut counts);
        assert_eq!(counts.nodes, 2);
        assert_eq!(counts.lists, 1);
        assert_eq!(counts.texts, 3);
        assert_eq!(counts.units, 1);
        assert_eq!(counts.absents, 1);
        assert_eq!(counts.max_depth, 3);
    }

    #[test]
    fn invariants_catch_stale_and_dangling_handles() {
        let mut donor = Arena::new();
        donor.reset(); // generation 1: handles from here are stale elsewhere
        let foreign = donor.alloc_list(vec![]);

        let mut arena = Arena::new();
        arena.pool.push(Value::ArenaList(ArenaRef {
            index: 7,
            generation: arena.generation,
        }));
        arena.nodes.push(ArenaNode {
            kind: Some(NodeKind::new("Bad")),
            span: None,
            lo: 0,
            len: 1,
        });
        arena.allocated += 1;
        let err = ArenaInvariants::check(&arena, 10).unwrap_err();
        assert!(err.contains("dangling"), "{err}");

        arena.pool[0] = Value::ArenaList(foreign);
        let err = ArenaInvariants::check(&arena, 10).unwrap_err();
        assert!(err.contains("stale"), "{err}");
    }

    #[test]
    fn invariants_catch_out_of_bounds_spans() {
        let mut arena = Arena::new();
        arena.alloc_node(
            NodeKind::new("N"),
            vec![Value::Text(Span::new(3, 9))],
            None,
        );
        assert!(ArenaInvariants::check(&arena, 9).is_ok());
        let err = ArenaInvariants::check(&arena, 8).unwrap_err();
        assert!(err.contains("outside input"), "{err}");
    }

    #[test]
    fn retained_bytes_track_capacity_and_survive_reset() {
        let mut arena = Arena::new();
        assert_eq!(arena.retained_bytes(), 0);
        sample(&mut arena);
        let warm = arena.retained_bytes();
        assert!(warm > 0);
        arena.reset();
        assert_eq!(arena.retained_bytes(), warm, "reset keeps capacity");
    }
}
