//! Packrat memoization tables.
//!
//! A packrat parser stores, for every (production, input position) pair it
//! evaluates, the outcome of that evaluation, so ordered-choice
//! backtracking never re-does work — this is what gives PEG parsing its
//! linear-time guarantee.
//!
//! Two implementations are provided:
//!
//! * [`HashMemo`] — the straightforward hash map keyed by
//!   `(production, position)`. This is the unoptimized strategy the paper
//!   starts from.
//! * [`ChunkMemo`] — the paper's *chunks* optimization: one lazily
//!   materialized column per input position, each column holding lazily
//!   materialized fixed-size chunks of memo slots. Productions that are
//!   actually memoized get a dense slot index. Columns, chunks and their
//!   16-byte packed cells live in flat, index-addressed storage owned by
//!   the table, so probing is a few array indexings and storing allocates
//!   a page of chunks at a time.

use std::rc::Rc;

use crate::arena::{Arena, ArenaRef};
use crate::span::Span;
use crate::value::Value;

/// Number of memo slots per chunk in [`ChunkMemo`] (the paper groups
/// roughly ten productions per chunk).
pub const CHUNK_SIZE: usize = 10;

/// A stored evaluation outcome.
///
/// `epoch` supports the paper's interaction between memoization and
/// parser state: entries written by *state-reading* productions are only
/// valid while the state is unchanged, so they carry the state epoch at
/// evaluation time and probes compare it (the Rats! "flush memoized
/// results on state change" rule, implemented lazily).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoAnswer {
    /// State epoch at evaluation time (0 when the producer ignores state).
    pub epoch: u32,
    /// `None` = the production failed here; `Some((end, value))` = match.
    pub outcome: Option<(u32, Value)>,
}

impl MemoAnswer {
    /// A failure entry.
    pub fn fail(epoch: u32) -> Self {
        MemoAnswer {
            epoch,
            outcome: None,
        }
    }

    /// A success entry.
    pub fn success(epoch: u32, end: u32, value: Value) -> Self {
        MemoAnswer {
            epoch,
            outcome: Some((end, value)),
        }
    }
}

/// Common interface of the memoization strategies.
///
/// `slot` is a dense index assigned to each memoized production; `pos` is a
/// byte offset into the input.
pub trait MemoTable {
    /// Looks up a stored answer, returned by value (cheap: values are
    /// leaves, region handles or reference-counted).
    fn probe(&self, slot: u32, pos: u32) -> Option<MemoAnswer>;
    /// Stores an answer, overwriting any previous one for the pair.
    fn store(&mut self, slot: u32, pos: u32, answer: MemoAnswer);
    /// Number of entries currently stored.
    fn entries(&self) -> u64;
    /// Estimated heap bytes held by the table structure itself (semantic
    /// values are accounted separately when they are built).
    fn retained_bytes(&self) -> u64;
}

/// Hash-map memoization: the unoptimized baseline.
#[derive(Debug, Default)]
pub struct HashMemo {
    map: std::collections::HashMap<(u32, u32), MemoAnswer>,
}

impl HashMemo {
    /// Creates an empty table.
    pub fn new() -> Self {
        HashMemo::default()
    }

    /// Drops every entry *and* the map's capacity, actually releasing the
    /// memory (the hash-map arm of the memo-budget degradation ladder —
    /// there is no column structure to evict selectively).
    pub fn purge(&mut self) -> u64 {
        let dropped = self.map.len() as u64;
        self.map = std::collections::HashMap::new();
        dropped
    }
}

impl MemoTable for HashMemo {
    fn probe(&self, slot: u32, pos: u32) -> Option<MemoAnswer> {
        self.map.get(&(slot, pos)).cloned()
    }

    fn store(&mut self, slot: u32, pos: u32, answer: MemoAnswer) {
        self.map.insert((slot, pos), answer);
    }

    fn entries(&self) -> u64 {
        self.map.len() as u64
    }

    fn retained_bytes(&self) -> u64 {
        // Hash map bucket ≈ key + answer + control byte, over capacity.
        let per = std::mem::size_of::<(u32, u32)>() + std::mem::size_of::<MemoAnswer>() + 1;
        (self.map.capacity() * per) as u64
    }
}

/// Chunks per page of [`ChunkMemo`]'s chunk storage: growing the table
/// allocates a whole page at once and never moves a chunk already placed.
const PAGE_CHUNKS: usize = 64;
/// Cells per page.
const PAGE_CELLS: usize = PAGE_CHUNKS * CHUNK_SIZE;
/// "No column" / "no chunk" / "spare column" marker in the index tables.
const NONE: u32 = u32::MAX;

/// Bit position of an [`Entry`]'s kind tag inside its tagged epoch word.
const TAG_SHIFT: u32 = 29;
const EPOCH_MASK: u32 = (1 << TAG_SHIFT) - 1;

// Entry kinds. `EMPTY` is zero so a zeroed cell is an empty one.
const EMPTY: u32 = 0;
const FAIL: u32 = 1;
const UNIT: u32 = 2;
const ABSENT: u32 = 3;
const TEXT: u32 = 4;
const ARENA_NODE: u32 = 5;
const ARENA_LIST: u32 = 6;
const OWNED_TEXT: u32 = 7;

/// One packed memo cell of [`ChunkMemo`]: 16 bytes, `Copy`.
///
/// `tagged` holds the state epoch in its low 29 bits and the kind in its
/// top three. The payload `(a, b)` is the span's `lo`/`hi` for `Text`,
/// the handle's index and generation for `ArenaNode`/`ArenaList`, and an
/// index into the table's owned-text list for `OwnedText`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    end: u32,
    tagged: u32,
    a: u32,
    b: u32,
}

const _: () = assert!(std::mem::size_of::<Entry>() == 16);

impl Entry {
    const EMPTY: Entry = Entry {
        end: 0,
        tagged: 0,
        a: 0,
        b: 0,
    };

    /// Written to the first cell of a chunk that [`ChunkMemo::evict_cold`]
    /// frees: an empty cell no store can produce, so live chunks never
    /// carry it.
    const FREED: Entry = Entry {
        end: NONE,
        ..Entry::EMPTY
    };

    fn kind(self) -> u32 {
        self.tagged >> TAG_SHIFT
    }

    fn is_empty(self) -> bool {
        self.kind() == EMPTY
    }

    /// Packs `answer`, moving an owned-text leaf into `owned`. `None` when
    /// the epoch does not fit in 29 bits.
    ///
    /// # Panics
    ///
    /// Panics on an `Rc` composite ([`Value::Node`] / [`Value::List`]):
    /// chunked-memo runs build their composites in the table's region.
    fn pack(answer: MemoAnswer, owned: &mut Vec<Rc<str>>) -> Option<Entry> {
        if answer.epoch > ChunkMemo::MAX_EPOCH {
            return None;
        }
        let Some((end, value)) = answer.outcome else {
            return Some(Entry {
                tagged: (FAIL << TAG_SHIFT) | answer.epoch,
                ..Entry::EMPTY
            });
        };
        let (kind, a, b) = match value {
            Value::Unit => (UNIT, 0, 0),
            Value::Absent => (ABSENT, 0, 0),
            Value::Text(s) => (TEXT, s.lo(), s.hi()),
            Value::ArenaNode(r) => (ARENA_NODE, r.index(), r.generation()),
            Value::ArenaList(r) => (ARENA_LIST, r.index(), r.generation()),
            Value::OwnedText(s) => {
                owned.push(s);
                (OWNED_TEXT, owned.len() as u32 - 1, 0)
            }
            Value::Node(_) | Value::List(_) => {
                panic!("a chunked memo entry cannot hold an Rc composite; build it in the table's arena")
            }
        };
        Some(Entry {
            end,
            tagged: (kind << TAG_SHIFT) | answer.epoch,
            a,
            b,
        })
    }

    /// The answer this cell holds, `None` when it is empty.
    fn unpack(self, owned: &[Rc<str>]) -> Option<MemoAnswer> {
        let epoch = self.tagged & EPOCH_MASK;
        let value = match self.kind() {
            EMPTY => return None,
            FAIL => return Some(MemoAnswer::fail(epoch)),
            UNIT => Value::Unit,
            ABSENT => Value::Absent,
            TEXT => Value::Text(Span::new(self.a, self.b)),
            ARENA_NODE => Value::ArenaNode(ArenaRef::from_raw(self.a, self.b)),
            ARENA_LIST => Value::ArenaList(ArenaRef::from_raw(self.a, self.b)),
            _ => Value::OwnedText(owned[self.a as usize].clone()),
        };
        Some(MemoAnswer::success(epoch, self.end, value))
    }

    /// Translates the cell's spans by `bias` (arena values are deep-copied
    /// into fresh region nodes, as [`Arena::shifted`] does).
    fn shift(&mut self, bias: i64, arena: &mut Arena) {
        let kind = self.kind();
        if kind == FAIL {
            return;
        }
        self.end = (i64::from(self.end) + bias) as u32;
        match kind {
            TEXT => {
                let s = Span::new(self.a, self.b).shifted(bias);
                (self.a, self.b) = (s.lo(), s.hi());
            }
            ARENA_NODE | ARENA_LIST => {
                let r = ArenaRef::from_raw(self.a, self.b);
                let v = if kind == ARENA_NODE {
                    Value::ArenaNode(r)
                } else {
                    Value::ArenaList(r)
                };
                if let Value::ArenaNode(r) | Value::ArenaList(r) = arena.shifted(&v, bias) {
                    (self.a, self.b) = (r.index(), r.generation());
                }
            }
            _ => {}
        }
    }
}

/// One column header of [`ChunkMemo`]. Its chunks are listed in the
/// table's chunk-index row for the column id.
#[derive(Debug, Clone, Copy)]
struct Column {
    /// The position this column memoizes, or [`NONE`] for a spare column
    /// awaiting reuse.
    pos: u32,
    /// Maximum lookahead of any entry ever stored in this column, as a
    /// *length*: every entry's evaluation examined only input bytes in
    /// `[pos, pos + extent)` (treating a peek at EOF as examining one byte
    /// past the end). Lengths are shift-invariant, so a relocated column
    /// keeps its extent unchanged.
    extent: u32,
    /// Live entries in this column (keeps the table's `stored` total exact
    /// when a whole column is invalidated).
    count: u32,
    /// The next spare column's id ([`NONE`] at the end of the free list).
    next_spare: u32,
    /// Pending span translation from [`ChunkMemo::apply_edit`], applied
    /// lazily to entry end offsets and values on first probe.
    bias: i64,
}

impl Column {
    /// A cleared column on the free list, ahead of `next_spare`.
    fn spare(next_spare: u32) -> Column {
        Column {
            pos: NONE,
            extent: 0,
            count: 0,
            next_spare,
            bias: 0,
        }
    }
}

/// Outcome of [`ChunkMemo::evict_cold`] / [`ChunkMemo::evict_all`]: how
/// much memory an eviction actually released.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvictReport {
    /// Columns whose allocations were freed outright.
    pub columns_freed: u64,
    /// Memo entries discarded with them.
    pub entries_dropped: u64,
    /// Retained-byte estimate released ([`MemoTable::retained_bytes`]
    /// before minus after).
    pub bytes_freed: u64,
}

/// Outcome of [`ChunkMemo::apply_edit`]: how much memoized work survived.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EditReport {
    /// Columns kept (in place to the left of the edit, or relocated with
    /// the text to the right of it).
    pub columns_reused: u64,
    /// Columns dropped because their entries' lookahead overlapped the
    /// edited window.
    pub columns_invalidated: u64,
    /// Memo entries discarded along with invalidated columns.
    pub entries_dropped: u64,
}

/// Chunked column memoization (the paper's *chunks* optimization).
///
/// Memory is proportional to the positions actually visited and, within a
/// column, to the chunks actually written — not to
/// `|productions| × |input|`.
///
/// The storage is flat and index-addressed: a position array maps each
/// position to a column id, a column id selects a header and a row of the
/// chunk-index table, and a chunk id selects [`CHUNK_SIZE`] packed 16-byte
/// cells in a page of chunks. Growing allocates a page at a time and never
/// moves a chunk; invalidated columns go on a free list of ids with their
/// chunks, and [`ChunkMemo::reset_for`] keeps every allocation.
///
/// Entries hold leaves and region handles only. An answer whose epoch
/// exceeds [`ChunkMemo::MAX_EPOCH`] is not stored (the memo is a cache, so
/// the parse is unchanged); storing an `Rc` composite ([`Value::Node`] /
/// [`Value::List`]) panics — chunked-memo runs build composites in the
/// table's [`Arena`].
///
/// # Examples
///
/// ```
/// use modpeg_runtime::{ChunkMemo, MemoAnswer, MemoTable, Value};
///
/// let mut memo = ChunkMemo::new(25, 100);
/// memo.store(24, 7, MemoAnswer::fail(0));
/// assert_eq!(memo.probe(24, 7), Some(MemoAnswer::fail(0)));
/// assert_eq!(memo.probe(3, 7), None);
/// assert_eq!(memo.entries(), 1);
/// ```
#[derive(Debug)]
pub struct ChunkMemo {
    /// Column id per position (`input_len + 1` of them), [`NONE`] where
    /// no column exists.
    col_of: Vec<u32>,
    /// Column headers by id, live and spare.
    columns: Vec<Column>,
    /// Chunk id per (column id, chunk index), `n_chunks` per column.
    chunk_of: Vec<u32>,
    /// Chunk cells, [`PAGE_CHUNKS`] chunks per page. Pages past the last
    /// chunk in use are kept for reuse.
    pages: Vec<Box<[Entry]>>,
    /// Owned-text leaves referenced by `OwnedText` entries.
    owned: Vec<Rc<str>>,
    /// Chunks in use: ids `0..chunks`.
    chunks: u32,
    /// Head of the free list of cleared columns awaiting reuse (session
    /// pooling): invalidated or reset columns are recycled, chunks
    /// included, instead of freed. Linked through `Column::next_spare`.
    spare: u32,
    n_slots: u32,
    n_chunks: u32,
    stored: u64,
    /// Entries whose spans have been translated by lazy settling since the
    /// last [`ChunkMemo::take_entries_shifted`].
    entries_shifted: u64,
    /// The bump region for this table's semantic values. Memo entries hold
    /// [`Value::ArenaNode`]/[`Value::ArenaList`] handles into it, so the
    /// entries and the region live and die together:
    /// [`ChunkMemo::reset_for`] resets both, which is what makes stale
    /// handles unreachable across session recycling by construction.
    arena: Arena,
}

impl ChunkMemo {
    /// The largest state epoch an entry can carry; answers with a later
    /// epoch are not stored.
    pub const MAX_EPOCH: u32 = EPOCH_MASK;

    /// Creates a table for `n_slots` memoized productions over an input of
    /// `input_len` bytes (positions `0..=input_len` are valid).
    pub fn new(n_slots: u32, input_len: u32) -> Self {
        ChunkMemo {
            col_of: vec![NONE; input_len as usize + 1],
            columns: Vec::new(),
            chunk_of: Vec::new(),
            pages: Vec::new(),
            owned: Vec::new(),
            chunks: 0,
            spare: NONE,
            n_slots,
            n_chunks: Self::chunks_for(n_slots),
            stored: 0,
            entries_shifted: 0,
            arena: Arena::new(),
        }
    }

    fn chunks_for(n_slots: u32) -> u32 {
        n_slots.div_ceil(CHUNK_SIZE as u32).max(1)
    }

    /// The bump region backing this table's semantic values.
    pub fn arena(&self) -> &Arena {
        &self.arena
    }

    /// Mutable access to the bump region (parsers allocate through this).
    pub fn arena_mut(&mut self) -> &mut Arena {
        &mut self.arena
    }

    /// Number of columns that have been materialized.
    pub fn columns_allocated(&self) -> u64 {
        self.columns.len() as u64
    }

    /// Number of chunks that have been materialized.
    pub fn chunks_allocated(&self) -> u64 {
        u64::from(self.chunks)
    }

    /// Number of valid positions (`input_len + 1`).
    pub fn n_positions(&self) -> usize {
        self.col_of.len()
    }

    /// Whether the table's geometry matches `n_slots` productions over an
    /// input of `input_len` bytes.
    pub fn fits(&self, n_slots: u32, input_len: u32) -> bool {
        self.n_slots == n_slots && self.col_of.len() == input_len as usize + 1
    }

    /// Takes (and resets) the count of entries relocated by lazy settling
    /// since the last call.
    pub fn take_entries_shifted(&mut self) -> u64 {
        std::mem::take(&mut self.entries_shifted)
    }

    /// Iterates the materialized columns that still hold entries, as
    /// `(pos, extent, entries)` triples.
    ///
    /// This is the observation surface for [`ChunkMemo::apply_edit`]'s
    /// soundness invariant: immediately after `apply_edit(lo, removed,
    /// inserted)`, every occupied column satisfies
    /// `pos + extent <= lo || pos >= lo + inserted` — no surviving entry's
    /// recorded lookahead overlaps the edited window.
    pub fn occupied_columns(&self) -> impl Iterator<Item = (u32, u32, u32)> + '_ {
        self.col_of.iter().enumerate().filter_map(|(pos, &id)| {
            let col = self.columns.get(id as usize)?;
            (col.count > 0).then_some((pos as u32, col.extent, col.count))
        })
    }

    /// The id of the column at `pos`, if one exists.
    fn column_at(&self, pos: u32) -> Option<usize> {
        match self.col_of.get(pos as usize) {
            Some(&id) if id != NONE => Some(id as usize),
            _ => None,
        }
    }

    /// Gives `pos` a column: a recycled one, or a fresh header and
    /// chunk-index row.
    fn open_column(&mut self, pos: u32) -> usize {
        let id = if self.spare == NONE {
            self.chunk_of
                .extend(std::iter::repeat_n(NONE, self.n_chunks as usize));
            self.columns.push(Column::spare(NONE));
            self.columns.len() - 1
        } else {
            let id = self.spare as usize;
            self.spare = self.columns[id].next_spare;
            id
        };
        self.columns[id].pos = pos;
        self.col_of[pos as usize] = id as u32;
        id
    }

    /// Places a new chunk for `chunk_of[row]`, adding a page when the
    /// last one is full.
    fn open_chunk(&mut self, row: usize) -> u32 {
        let c = self.chunks;
        if c as usize / PAGE_CHUNKS == self.pages.len() {
            self.pages
                .push(vec![Entry::EMPTY; PAGE_CELLS].into_boxed_slice());
        } else {
            // A page kept from before an eviction or a reset.
            self.chunk_mut(c).fill(Entry::EMPTY);
        }
        self.chunks += 1;
        self.chunk_of[row] = c;
        c
    }

    /// The page holding chunk `c`, and the chunk's cells within it.
    fn place(c: u32) -> (usize, std::ops::Range<usize>) {
        let at = c as usize % PAGE_CHUNKS * CHUNK_SIZE;
        (c as usize / PAGE_CHUNKS, at..at + CHUNK_SIZE)
    }

    fn chunk(&self, c: u32) -> &[Entry] {
        let (page, cells) = Self::place(c);
        &self.pages[page][cells]
    }

    fn chunk_mut(&mut self, c: u32) -> &mut [Entry] {
        let (page, cells) = Self::place(c);
        &mut self.pages[page][cells]
    }

    /// Where column `id`'s chunk ids sit in `chunk_of`.
    fn row(&self, id: usize) -> std::ops::Range<usize> {
        let n = self.n_chunks as usize;
        id * n..(id + 1) * n
    }

    /// Empties column `id` and puts it on the free list, chunks included.
    fn recycle(&mut self, id: usize) {
        for k in self.row(id) {
            let c = self.chunk_of[k];
            if c != NONE {
                self.chunk_mut(c).fill(Entry::EMPTY);
            }
        }
        self.columns[id] = Column::spare(self.spare);
        self.spare = id as u32;
    }

    /// Applies column `id`'s pending bias to every entry, counting the
    /// entries rewritten. Values are shifted through the arena (a deep
    /// copy into fresh region nodes).
    fn settle(&mut self, id: usize) {
        let bias = std::mem::take(&mut self.columns[id].bias);
        if bias == 0 {
            return;
        }
        for k in self.row(id) {
            let c = self.chunk_of[k];
            if c == NONE {
                continue;
            }
            let (page, cells) = Self::place(c);
            for cell in &mut self.pages[page][cells] {
                if !cell.is_empty() {
                    cell.shift(bias, &mut self.arena);
                    self.entries_shifted += 1;
                }
            }
        }
    }

    /// Records that an evaluation starting at `pos` examined input bytes
    /// `[pos, pos + len)`. Every store at `pos` must be covered by such a
    /// record for [`ChunkMemo::apply_edit`] to invalidate soundly; columns
    /// without entries need no record.
    pub fn record_extent(&mut self, pos: u32, len: u32) {
        if let Some(id) = self.column_at(pos) {
            let col = &mut self.columns[id];
            col.extent = col.extent.max(len);
        }
    }

    /// The recorded lookahead extent (as a length) of the column at `pos`,
    /// or 0 when no column exists.
    pub fn extent_at(&self, pos: u32) -> u32 {
        self.column_at(pos).map_or(0, |id| self.columns[id].extent)
    }

    /// Like [`MemoTable::probe`], but first applies any span translation
    /// pending on the column from an earlier [`ChunkMemo::apply_edit`].
    /// Incremental sessions must probe through this method; the plain
    /// `probe` assumes (and debug-asserts) no translation is pending.
    pub fn probe_settled(&mut self, slot: u32, pos: u32) -> Option<MemoAnswer> {
        let id = self.column_at(pos)?;
        if self.columns[id].bias != 0 {
            self.settle(id);
        }
        self.answer(id, slot)
    }

    /// The answer column `id` holds for `slot`.
    fn answer(&self, id: usize, slot: u32) -> Option<MemoAnswer> {
        if slot >= self.n_slots {
            return None;
        }
        let c = self.chunk_of[id * self.n_chunks as usize + slot as usize / CHUNK_SIZE];
        if c == NONE {
            return None;
        }
        self.chunk(c)[slot as usize % CHUNK_SIZE].unpack(&self.owned)
    }

    /// Rewrites the table for an edit replacing bytes `[lo, lo + removed)`
    /// with `inserted` new bytes:
    ///
    /// * columns left of the edit whose recorded lookahead stays left of
    ///   `lo` are kept in place;
    /// * columns at or right of the removed window move with their text to
    ///   position `pos + inserted - removed`, carrying a pending span
    ///   translation that [`ChunkMemo::probe_settled`] applies lazily;
    /// * every other column (lookahead overlapping the edited window, or
    ///   inside the removed range) is invalidated, its allocation recycled.
    ///
    /// After this call the table is sized for the post-edit input; probing
    /// must go through [`ChunkMemo::probe_settled`] until every surviving
    /// column has settled.
    pub fn apply_edit(&mut self, lo: u32, removed: u32, inserted: u32) -> EditReport {
        let old_positions = self.col_of.len();
        let old_len = old_positions as u32 - 1;
        let lo = lo.min(old_len);
        let removed = removed.min(old_len - lo);
        let delta = i64::from(inserted) - i64::from(removed);
        let new_positions = (old_positions as i64 + delta) as usize;

        let mut report = EditReport::default();
        for id in 0..self.columns.len() {
            let col = self.columns[id];
            if col.pos == NONE {
                continue;
            }
            let keep_left = col.pos < lo && col.pos.saturating_add(col.extent) <= lo;
            let shift_right = col.pos >= lo + removed;
            if keep_left {
                report.columns_reused += 1;
            } else if shift_right {
                report.columns_reused += 1;
                let col = &mut self.columns[id];
                col.pos = (i64::from(col.pos) + delta) as u32;
                col.bias += delta;
            } else {
                report.columns_invalidated += 1;
                report.entries_dropped += u64::from(col.count);
                self.stored -= u64::from(col.count);
                self.recycle(id);
            }
        }
        self.col_of.clear();
        self.col_of.resize(new_positions, NONE);
        for (id, col) in self.columns.iter().enumerate() {
            if col.pos != NONE {
                self.col_of[col.pos as usize] = id as u32;
            }
        }
        report
    }

    /// Releases the memory of every *cold* column — those at positions
    /// strictly left of `hot_from` — plus the spare columns, actually
    /// freeing the storage (unlike invalidation, which recycles it): the
    /// surviving columns and their chunks are compacted in place and the
    /// pages past the last chunk in use are freed. Nothing is allocated.
    ///
    /// This is the first rung of the memo-budget degradation ladder: memo
    /// entries are a pure cache, so dropping them can never change a parse
    /// result, only cost re-evaluation if the parser backtracks far left.
    pub fn evict_cold(&mut self, hot_from: u32) -> EvictReport {
        let before = self.retained_bytes();
        let mut report = EvictReport::default();
        // Columns: slide the survivors down over the freed ids, marking
        // every chunk of a freed column.
        let mut kept = 0;
        let mut freed_chunks = 0;
        for id in 0..self.columns.len() {
            let col = self.columns[id];
            if col.pos == NONE || col.pos < hot_from {
                report.columns_freed += 1;
                report.entries_dropped += u64::from(col.count);
                self.stored -= u64::from(col.count);
                if col.pos != NONE {
                    self.col_of[col.pos as usize] = NONE;
                }
                for k in self.row(id) {
                    let c = self.chunk_of[k];
                    if c != NONE {
                        self.chunk_mut(c)[0] = Entry::FREED;
                        freed_chunks += 1;
                    }
                }
                continue;
            }
            if kept != id {
                self.columns[kept] = col;
                let row = self.row(id);
                self.chunk_of
                    .copy_within(row, kept * self.n_chunks as usize);
                self.col_of[col.pos as usize] = kept as u32;
            }
            kept += 1;
        }
        self.columns.truncate(kept);
        self.chunk_of.truncate(kept * self.n_chunks as usize);
        self.spare = NONE;
        // Chunks: move each surviving chunk past the new end into a freed
        // one below it. There are exactly as many of those as of these.
        let live = self.chunks - freed_chunks;
        let mut hole = 0;
        for k in 0..self.chunk_of.len() {
            let c = self.chunk_of[k];
            if c == NONE || c < live {
                continue;
            }
            while self.chunk(hole)[0] != Entry::FREED {
                hole += 1;
            }
            let cells: [Entry; CHUNK_SIZE] = self
                .chunk(c)
                .try_into()
                .expect("a chunk is CHUNK_SIZE cells");
            self.chunk_mut(hole).copy_from_slice(&cells);
            self.chunk_of[k] = hole;
            hole += 1;
        }
        self.chunks = live;
        self.pages.truncate((live as usize).div_ceil(PAGE_CHUNKS));
        report.bytes_freed = before - self.retained_bytes();
        report
    }

    /// Releases every column, live or spare, and all chunk storage; only
    /// the (input-sized) position array remains. The last rung before
    /// giving up.
    pub fn evict_all(&mut self) -> EvictReport {
        let before = self.retained_bytes();
        let report = EvictReport {
            columns_freed: self.columns_allocated(),
            entries_dropped: self.stored,
            bytes_freed: 0,
        };
        self.col_of.fill(NONE);
        self.columns = Vec::new();
        self.chunk_of = Vec::new();
        self.pages = Vec::new();
        self.owned = Vec::new();
        self.chunks = 0;
        self.spare = NONE;
        self.stored = 0;
        EvictReport {
            bytes_freed: before - self.retained_bytes(),
            ..report
        }
    }

    /// Re-shapes the table for a fresh parse of `n_slots` productions over
    /// `input_len` bytes, keeping all storage (the pooling half of the
    /// session engine): every column goes on the free list with its
    /// chunks, or — when the chunk count per column changes — every chunk
    /// is left free for the new geometry's columns to take.
    /// The value region is reset in the same operation — entries and the
    /// arena nodes they reference die together, so recycling can never
    /// resurrect a stale handle.
    pub fn reset_for(&mut self, n_slots: u32, input_len: u32) {
        let n_chunks = Self::chunks_for(n_slots);
        if n_chunks == self.n_chunks {
            for c in 0..self.chunks {
                self.chunk_mut(c).fill(Entry::EMPTY);
            }
            for (id, col) in self.columns.iter_mut().enumerate() {
                *col = Column::spare(id as u32 + 1);
            }
            if let Some(last) = self.columns.last_mut() {
                last.next_spare = NONE;
            }
            self.spare = if self.columns.is_empty() { NONE } else { 0 };
        } else {
            // Rows of the old width cannot serve the new geometry; the
            // pages stay, and `open_chunk` clears each chunk it reuses.
            self.columns.clear();
            self.chunk_of.clear();
            self.chunks = 0;
            self.spare = NONE;
            self.n_chunks = n_chunks;
        }
        self.n_slots = n_slots;
        self.col_of.clear();
        self.col_of.resize(input_len as usize + 1, NONE);
        self.owned.clear();
        self.stored = 0;
        self.entries_shifted = 0;
        self.arena.reset();
    }
}

impl MemoTable for ChunkMemo {
    fn probe(&self, slot: u32, pos: u32) -> Option<MemoAnswer> {
        let id = self.column_at(pos)?;
        debug_assert_eq!(
            self.columns[id].bias, 0,
            "column {pos} probed with a pending edit translation; \
             incremental sessions must use probe_settled"
        );
        self.answer(id, slot)
    }

    /// Stores an answer; one whose epoch exceeds [`ChunkMemo::MAX_EPOCH`]
    /// is not stored and clears the cell instead.
    ///
    /// # Panics
    ///
    /// Panics when the answer's value is an `Rc` composite
    /// ([`Value::Node`] / [`Value::List`]).
    fn store(&mut self, slot: u32, pos: u32, answer: MemoAnswer) {
        if slot >= self.n_slots || pos as usize >= self.col_of.len() {
            // Out-of-range slots and positions are ignored rather than
            // grown into (the last chunk's padding cells stay unused).
            return;
        }
        let entry = Entry::pack(answer, &mut self.owned);
        let id = match (self.column_at(pos), entry) {
            (Some(id), _) => id,
            (None, Some(_)) => self.open_column(pos),
            (None, None) => return,
        };
        // A store into a column still carrying an edit translation must
        // settle it first, or settling later would corrupt this entry.
        if self.columns[id].bias != 0 {
            self.settle(id);
        }
        let row = id * self.n_chunks as usize + slot as usize / CHUNK_SIZE;
        let c = match (self.chunk_of[row], entry) {
            (NONE, None) => return,
            (NONE, Some(_)) => self.open_chunk(row),
            (c, _) => c,
        };
        let cell = &mut self.chunk_mut(c)[slot as usize % CHUNK_SIZE];
        let was_empty = cell.is_empty();
        *cell = entry.unwrap_or(Entry::EMPTY);
        match (was_empty, entry.is_some()) {
            (true, true) => {
                self.stored += 1;
                self.columns[id].count += 1;
            }
            (false, false) => {
                self.stored -= 1;
                self.columns[id].count -= 1;
            }
            _ => {}
        }
    }

    fn entries(&self) -> u64 {
        self.stored
    }

    fn retained_bytes(&self) -> u64 {
        // Every buffer the table owns, by capacity. Deliberately excludes
        // the arena: the memo budget is enforced by evicting columns,
        // which cannot free region memory — counting the region here would
        // make the eviction ladder unable to satisfy the budget and turn
        // recoverable pressure into spurious aborts. The region (and the
        // owned-text leaves' own bytes) are accounted by the parsers'
        // value-byte stats instead.
        fn bytes<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        let pages = self.pages.len() * PAGE_CELLS * std::mem::size_of::<Entry>();
        (bytes(&self.col_of)
            + bytes(&self.columns)
            + bytes(&self.chunk_of)
            + bytes(&self.pages)
            + pages
            + bytes(&self.owned)) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Span;

    fn success(end: u32) -> MemoAnswer {
        MemoAnswer::success(0, end, Value::Text(Span::new(0, end)))
    }

    fn fail() -> MemoAnswer {
        MemoAnswer::fail(0)
    }

    #[test]
    fn hash_memo_roundtrip() {
        let mut m = HashMemo::new();
        assert_eq!(m.probe(1, 2), None);
        m.store(1, 2, success(5));
        assert_eq!(m.probe(1, 2), Some(success(5)));
        m.store(1, 2, fail());
        assert_eq!(m.probe(1, 2), Some(fail()));
        assert_eq!(m.entries(), 1);
        assert!(m.retained_bytes() > 0);
    }

    #[test]
    fn chunk_memo_roundtrip_across_chunks() {
        let mut m = ChunkMemo::new(CHUNK_SIZE as u32 * 3, 10);
        m.store(0, 0, success(1));
        m.store(CHUNK_SIZE as u32, 0, success(2));
        m.store(CHUNK_SIZE as u32 * 2 + 3, 10, fail());
        assert_eq!(m.probe(0, 0), Some(success(1)));
        assert_eq!(m.probe(CHUNK_SIZE as u32, 0), Some(success(2)));
        assert_eq!(m.probe(CHUNK_SIZE as u32 * 2 + 3, 10), Some(fail()));
        assert_eq!(m.probe(1, 0), None);
        assert_eq!(m.entries(), 3);
    }

    #[test]
    fn chunk_memo_allocates_lazily() {
        let mut m = ChunkMemo::new(40, 1000);
        assert_eq!(m.columns_allocated(), 0);
        m.store(0, 500, fail());
        assert_eq!(m.columns_allocated(), 1);
        assert_eq!(m.chunks_allocated(), 1);
        // Same chunk: no new allocation.
        m.store(5, 500, fail());
        assert_eq!(m.chunks_allocated(), 1);
        // Different chunk, same column.
        m.store(15, 500, fail());
        assert_eq!(m.chunks_allocated(), 2);
        assert_eq!(m.columns_allocated(), 1);
    }

    #[test]
    fn chunk_memo_overwrite_does_not_double_count() {
        let mut m = ChunkMemo::new(5, 5);
        m.store(2, 2, fail());
        m.store(2, 2, success(3));
        assert_eq!(m.entries(), 1);
        assert_eq!(m.probe(2, 2), Some(success(3)));
    }

    #[test]
    fn chunk_memo_position_bounds() {
        let mut m = ChunkMemo::new(5, 3);
        // Position input_len is valid (EOF position).
        m.store(0, 3, fail());
        assert_eq!(m.probe(0, 3), Some(fail()));
        // Out-of-range store is ignored, probe returns None.
        m.store(0, 4, fail());
        assert_eq!(m.probe(0, 4), None);
    }

    #[test]
    fn chunk_memo_zero_slots_still_valid() {
        let m = ChunkMemo::new(0, 10);
        assert_eq!(m.probe(0, 0), None);
    }

    #[test]
    fn retained_bytes_grow_with_chunks() {
        let mut m = ChunkMemo::new(100, 100);
        let before = m.retained_bytes();
        for pos in 0..50 {
            m.store(0, pos, fail());
        }
        assert!(m.retained_bytes() > before);
    }

    #[test]
    fn last_chunk_straddling_slots_roundtrip() {
        // 25 slots → 3 chunks; the last chunk holds slots 20..24 plus five
        // padding cells. Every real slot of the partial chunk must work.
        let n_slots = CHUNK_SIZE as u32 * 2 + 5;
        let mut m = ChunkMemo::new(n_slots, 10);
        for slot in 20..n_slots {
            m.store(slot, 4, success(slot));
        }
        for slot in 20..n_slots {
            assert_eq!(m.probe(slot, 4), Some(success(slot)));
        }
        assert_eq!(m.entries(), 5);
    }

    #[test]
    fn out_of_range_slots_in_last_chunk_padding_are_rejected() {
        // Slots 25..29 fall inside the allocated last chunk but past
        // n_slots; they used to leak into the padding cells. They must be
        // ignored exactly like slots past the chunk array.
        let n_slots = CHUNK_SIZE as u32 * 2 + 5;
        let mut m = ChunkMemo::new(n_slots, 10);
        for slot in [n_slots, n_slots + 4, CHUNK_SIZE as u32 * 3, 1000] {
            m.store(slot, 2, fail());
            assert_eq!(m.probe(slot, 2), None);
        }
        assert_eq!(m.entries(), 0);
    }

    #[test]
    fn exact_chunk_multiple_has_no_padding_issues() {
        let n_slots = CHUNK_SIZE as u32 * 2;
        let mut m = ChunkMemo::new(n_slots, 5);
        m.store(n_slots - 1, 0, success(1));
        assert_eq!(m.probe(n_slots - 1, 0), Some(success(1)));
        m.store(n_slots, 0, fail());
        assert_eq!(m.probe(n_slots, 0), None);
        assert_eq!(m.entries(), 1);
    }

    #[test]
    fn edit_keeps_left_columns_with_small_extents() {
        let mut m = ChunkMemo::new(5, 20);
        m.store(0, 2, success(4));
        m.record_extent(2, 2); // examined [2,4): safely left of the edit
        m.store(0, 8, success(9));
        m.record_extent(8, 4); // examined [8,12): overlaps the edit at 10
        let report = m.apply_edit(10, 3, 5);
        assert_eq!(report.columns_reused, 1);
        assert_eq!(report.columns_invalidated, 1);
        assert_eq!(report.entries_dropped, 1);
        assert_eq!(m.probe_settled(0, 2), Some(success(4)));
        assert_eq!(m.probe_settled(0, 8), None);
        assert_eq!(m.entries(), 1);
    }

    #[test]
    fn edit_shifts_right_columns_and_settles_lazily() {
        let mut m = ChunkMemo::new(5, 20);
        m.store(1, 15, MemoAnswer::success(0, 18, Value::Text(Span::new(15, 18))));
        m.record_extent(15, 3);
        // Replace [5, 8) with 1 byte: delta = -2.
        let report = m.apply_edit(5, 3, 1);
        assert_eq!(report.columns_reused, 1);
        assert_eq!(m.n_positions(), 19); // 20 - 3 + 1 + 1
        // The column moved from 15 to 13 and its spans settle on probe.
        assert_eq!(
            m.probe_settled(1, 13),
            Some(MemoAnswer::success(0, 16, Value::Text(Span::new(13, 16))))
        );
        assert_eq!(m.take_entries_shifted(), 1);
        // Extent survives relocation (it is a length).
        assert_eq!(m.extent_at(13), 3);
    }

    #[test]
    fn edit_at_eof_invalidates_columns_that_peeked_past_the_end() {
        let mut m = ChunkMemo::new(5, 10);
        // A `!.` at EOF examines the (absent) byte at 10 → extent 1.
        m.store(0, 10, success(10));
        m.record_extent(10, 1);
        // A column that stopped short of EOF.
        m.store(0, 3, success(5));
        m.record_extent(3, 2);
        // Append 4 bytes at EOF.
        let report = m.apply_edit(10, 0, 4);
        // The EOF column moves with the (empty) suffix to the new EOF —
        // where `.` still fails — and the left column is untouched.
        assert_eq!(report.columns_reused, 2);
        assert_eq!(report.columns_invalidated, 0);
        assert_eq!(
            m.probe_settled(0, 14).map(|a| a.outcome.map(|o| o.0)),
            Some(Some(14))
        );
        assert_eq!(m.probe_settled(0, 3), Some(success(5)));
    }

    #[test]
    fn store_into_unsettled_column_settles_first() {
        let mut m = ChunkMemo::new(5, 10);
        m.store(0, 6, MemoAnswer::success(0, 8, Value::Text(Span::new(6, 8))));
        m.record_extent(6, 2);
        m.apply_edit(2, 0, 3); // insert 3 bytes: column 6 → 9, bias +3
        // A store at the relocated column must not be corrupted by the
        // later settling of the pre-existing entry.
        m.store(1, 9, MemoAnswer::success(0, 10, Value::Text(Span::new(9, 10))));
        assert_eq!(
            m.probe_settled(0, 9),
            Some(MemoAnswer::success(0, 11, Value::Text(Span::new(9, 11))))
        );
        assert_eq!(
            m.probe_settled(1, 9),
            Some(MemoAnswer::success(0, 10, Value::Text(Span::new(9, 10))))
        );
    }

    #[test]
    fn reset_for_recycles_columns(){
        let mut m = ChunkMemo::new(10, 50);
        for pos in 0..30 {
            m.store(0, pos, fail());
        }
        let allocated = m.columns_allocated();
        m.reset_for(10, 80);
        assert_eq!(m.entries(), 0);
        assert_eq!(m.n_positions(), 81);
        for pos in 0..30 {
            assert_eq!(m.probe(0, pos), None);
        }
        // New stores draw from the recycled pool: no new column allocations.
        for pos in 0..30 {
            m.store(0, pos, fail());
        }
        assert_eq!(m.columns_allocated(), allocated);
    }

    #[test]
    fn occupied_columns_reflect_stores_and_edits() {
        let mut m = ChunkMemo::new(5, 20);
        assert_eq!(m.occupied_columns().count(), 0);
        m.store(0, 2, success(4));
        m.record_extent(2, 2);
        m.store(0, 12, success(14));
        m.record_extent(12, 2);
        let cols: Vec<_> = m.occupied_columns().collect();
        assert_eq!(cols, vec![(2, 2, 1), (12, 2, 1)]);
        // Replace [6, 8) with 3 bytes: left column kept, right shifted.
        let lo = 6u32;
        let inserted = 3u32;
        m.apply_edit(lo, 2, inserted);
        for (pos, extent, _) in m.occupied_columns() {
            assert!(
                pos + extent <= lo || pos >= lo + inserted,
                "column {pos} (extent {extent}) overlaps the edit"
            );
        }
        assert_eq!(m.occupied_columns().count(), 2);
    }

    #[test]
    fn evict_cold_frees_left_columns_and_spares() {
        let mut m = ChunkMemo::new(5, 40);
        for pos in [2u32, 10, 20, 30] {
            m.store(0, pos, success(pos + 1));
            m.record_extent(pos, 1);
        }
        // Invalidate one column into the spare pool first.
        m.apply_edit(10, 1, 1);
        assert_eq!(m.entries(), 3);
        let before = m.retained_bytes();
        let report = m.evict_cold(25);
        // Columns 2 and 20 freed, plus the spare from the invalidation.
        assert_eq!(report.columns_freed, 3);
        assert_eq!(report.entries_dropped, 2);
        // Storage goes back a page of chunks at a time: all four chunks
        // shared one page, which the survivor keeps (see
        // `evict_cold_compacts_survivors_and_frees_trailing_pages`).
        assert_eq!(m.chunks_allocated(), 1);
        assert_eq!(report.bytes_freed, 0);
        assert_eq!(m.retained_bytes(), before - report.bytes_freed);
        assert_eq!(m.probe(0, 2), None);
        assert_eq!(m.probe(0, 20), None);
        // The hot column survives untouched.
        assert_eq!(m.probe(0, 30), Some(success(31)));
        assert_eq!(m.entries(), 1);
        // Accounting still exact: new stores re-allocate from scratch.
        let cols = m.columns_allocated();
        m.store(0, 2, fail());
        assert_eq!(m.columns_allocated(), cols + 1);
    }

    #[test]
    fn evict_all_leaves_only_the_pointer_array() {
        let mut m = ChunkMemo::new(5, 10);
        for pos in 0..8 {
            m.store(0, pos, fail());
        }
        let report = m.evict_all();
        assert_eq!(report.columns_freed, 8);
        assert_eq!(report.entries_dropped, 8);
        assert_eq!(m.entries(), 0);
        assert_eq!(m.columns_allocated(), 0);
        assert_eq!(m.chunks_allocated(), 0);
        assert!(m.occupied_columns().next().is_none());
        // The table still works after a full eviction.
        m.store(0, 3, fail());
        assert_eq!(m.probe(0, 3), Some(fail()));
    }

    #[test]
    fn eviction_preserves_occupied_columns_invariant_after_edit() {
        // Mid-life eviction composed with an edit: the survivors must
        // still satisfy the apply_edit soundness invariant.
        let mut m = ChunkMemo::new(5, 30);
        for pos in [1u32, 5, 12, 20, 25] {
            m.store(0, pos, success(pos + 2));
            m.record_extent(pos, 2);
        }
        m.evict_cold(10);
        let (lo, removed, inserted) = (14u32, 2u32, 5u32);
        m.apply_edit(lo, removed, inserted);
        for (pos, extent, _) in m.occupied_columns() {
            assert!(
                pos + extent <= lo || pos >= lo + inserted,
                "column {pos} (extent {extent}) overlaps the edit"
            );
        }
    }

    #[test]
    fn hash_memo_purge_releases_capacity() {
        let mut m = HashMemo::new();
        for pos in 0..100 {
            m.store(0, pos, fail());
        }
        assert!(m.retained_bytes() > 0);
        assert_eq!(m.purge(), 100);
        assert_eq!(m.entries(), 0);
        assert_eq!(m.retained_bytes(), 0);
        assert_eq!(m.probe(0, 5), None);
    }

    #[test]
    fn reset_for_with_more_chunks_keeps_stores_past_the_old_chunk_count() {
        let mut m = ChunkMemo::new(5, 10);
        for pos in 0..10 {
            m.store(0, pos, fail());
        }
        m.reset_for(35, 10);
        m.store(30, 3, fail());
        assert_eq!(m.entries(), 1);
        assert_eq!(m.probe(30, 3), Some(fail()));
    }

    #[test]
    fn repeated_geometry_changes_leave_no_phantom_columns() {
        let mut m = ChunkMemo::new(5, 10);
        for pos in 0..10 {
            m.store(0, pos, fail());
        }
        let held = m.retained_bytes();
        m.reset_for(35, 10);
        m.reset_for(5, 10);
        assert_eq!(m.entries(), 0);
        assert_eq!(m.columns_allocated(), 0);
        assert_eq!(m.chunks_allocated(), 0);
        assert!(m.occupied_columns().next().is_none());
        // The storage is kept and reused, not duplicated.
        assert_eq!(m.retained_bytes(), held);
        for pos in 0..10 {
            m.store(0, pos, fail());
        }
        assert_eq!(m.columns_allocated(), 10);
        assert_eq!(m.chunks_allocated(), 10);
        assert_eq!(m.retained_bytes(), held);
        // Only the position array is left after a full eviction.
        m.evict_all();
        assert_eq!(m.retained_bytes(), 11 * 4);
    }

    #[test]
    fn every_entry_kind_roundtrips_and_settles() {
        let mut m = ChunkMemo::new(8, 20);
        let node = {
            let arena = m.arena_mut();
            let leaf = Value::Text(Span::new(10, 12));
            Value::ArenaNode(arena.alloc_node(crate::NodeKind::new("N"), vec![leaf], None))
        };
        let list = Value::ArenaList(
            m.arena_mut()
                .alloc_list(vec![Value::Text(Span::new(10, 11))]),
        );
        let owned: Rc<str> = Rc::from("xy");
        let answers = [
            MemoAnswer::fail(3),
            MemoAnswer::success(1, 10, Value::Unit),
            MemoAnswer::success(2, 10, Value::Absent),
            MemoAnswer::success(0, 12, Value::Text(Span::new(10, 12))),
            MemoAnswer::success(4, 12, Value::OwnedText(owned.clone())),
            MemoAnswer::success(5, 12, node),
            MemoAnswer::success(ChunkMemo::MAX_EPOCH, 11, list),
        ];
        for (slot, ans) in answers.iter().enumerate() {
            m.store(slot as u32, 10, ans.clone());
        }
        for (slot, ans) in answers.iter().enumerate() {
            assert_eq!(m.probe(slot as u32, 10).as_ref(), Some(ans), "slot {slot}");
        }
        let before = "0123456789xy01234567";
        let after = format!("abc{before}");
        m.record_extent(10, 2);
        m.apply_edit(0, 0, 3);
        for (slot, ans) in answers.iter().enumerate() {
            let moved = m
                .probe_settled(slot as u32, 13)
                .expect("entry survives the edit");
            assert_eq!(moved.epoch, ans.epoch, "slot {slot}");
            let (Some((end, v)), Some((old_end, old_v))) = (&moved.outcome, &ans.outcome) else {
                assert_eq!(moved.outcome, None, "slot {slot}");
                continue;
            };
            assert_eq!(*end, old_end + 3, "slot {slot}");
            assert_eq!(
                m.arena().to_sexpr(v, &after),
                m.arena().to_sexpr(old_v, before)
            );
        }
        assert_eq!(m.take_entries_shifted(), answers.len() as u64);
        assert_eq!(
            m.probe(4, 13).and_then(|a| a.outcome),
            Some((15, Value::OwnedText(owned)))
        );
    }

    #[test]
    fn epochs_past_29_bits_are_not_stored() {
        assert_eq!(ChunkMemo::MAX_EPOCH, (1 << 29) - 1);
        let mut m = ChunkMemo::new(5, 10);
        let top = ChunkMemo::MAX_EPOCH;
        m.store(0, 1, MemoAnswer::fail(top));
        m.store(
            1,
            1,
            MemoAnswer::success(top, 3, Value::Text(Span::new(1, 3))),
        );
        assert_eq!(m.probe(0, 1), Some(MemoAnswer::fail(top)));
        assert_eq!(
            m.probe(1, 1),
            Some(MemoAnswer::success(top, 3, Value::Text(Span::new(1, 3))))
        );
        // One past the limit: not stored, and the cell's old answer goes.
        m.store(0, 1, MemoAnswer::fail(top + 1));
        assert_eq!(m.probe(0, 1), None);
        assert_eq!(m.entries(), 1);
        // No column is opened for an answer that cannot be stored.
        m.store(0, 2, MemoAnswer::success(u32::MAX, 2, Value::Unit));
        assert_eq!(m.probe(0, 2), None);
        assert_eq!(m.columns_allocated(), 1);
        assert_eq!(m.entries(), 1);
    }

    #[test]
    #[should_panic(expected = "Rc composite")]
    fn storing_an_rc_composite_panics() {
        let mut m = ChunkMemo::new(5, 10);
        m.store(
            0,
            0,
            MemoAnswer::success(0, 1, Value::node("N", Vec::new())),
        );
    }

    #[test]
    fn evict_cold_compacts_survivors_and_frees_trailing_pages() {
        // Enough columns for several pages of chunks, three quarters cold.
        let mut m = ChunkMemo::new(CHUNK_SIZE as u32 * 2, 400);
        // The second chunks are placed in reverse position order, so chunk
        // ids do not follow column ids.
        for pos in 0..400 {
            m.store(0, pos, success(pos + 1));
        }
        for pos in (0..400).rev() {
            m.store(CHUNK_SIZE as u32, pos, fail());
        }
        assert_eq!(m.chunks_allocated(), 800);
        let report = m.evict_cold(300);
        assert_eq!(report.columns_freed, 300);
        assert_eq!(report.entries_dropped, 600);
        assert_eq!(m.chunks_allocated(), 200);
        assert!(report.bytes_freed >= 9 * (PAGE_CELLS * std::mem::size_of::<Entry>()) as u64);
        for pos in 0..400 {
            let hot = pos >= 300;
            assert_eq!(m.probe(0, pos), hot.then(|| success(pos + 1)), "pos {pos}");
            assert_eq!(m.probe(CHUNK_SIZE as u32, pos), hot.then(fail), "pos {pos}");
        }
        assert_eq!(m.entries(), 200);
        // The compacted table keeps working.
        m.store(1, 5, fail());
        m.store(1, 350, fail());
        assert_eq!(m.probe(1, 5), Some(fail()));
        assert_eq!(m.probe(1, 350), Some(fail()));
        assert_eq!(m.probe(0, 350), Some(success(351)));
    }

    #[test]
    fn edit_report_counts_dropped_entries() {
        let mut m = ChunkMemo::new(5, 10);
        m.store(0, 5, fail());
        m.store(1, 5, fail());
        m.store(2, 5, success(6));
        m.record_extent(5, 1);
        let report = m.apply_edit(5, 1, 1);
        assert_eq!(report.columns_invalidated, 1);
        assert_eq!(report.entries_dropped, 3);
        assert_eq!(m.entries(), 0);
    }
}
