//! The chunked memo table's byte accounting, checked against the heap.
//!
//! A counting global allocator tracks the live heap bytes and the
//! allocations of each thread. `ChunkMemo::retained_bytes` must equal the
//! live heap the table holds, and an eviction must shrink the live heap by
//! exactly the `bytes_freed` it reports without allocating anything: the
//! memo-budget ladder runs evictions while the table is over budget, and
//! its decisions are only as good as these numbers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;

use modpeg_runtime::{ChunkMemo, MemoAnswer, MemoTable, Span, Value, CHUNK_SIZE};

thread_local! {
    // Per thread, so tests running in parallel do not see each other's
    // heap. Const-initialized and drop-free: touching them from inside the
    // allocator never allocates.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note(bytes: i64, allocations: u64) {
    // `try_with` fails only while the thread is being torn down.
    let _ = LIVE.try_with(|n| n.set(n.get() + bytes));
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + allocations));
}

/// Counts the requested bytes of every block, so the totals are exact
/// (the system allocator's rounding is the only slack, and it is not
/// counted on either side).
struct CountingAlloc;

// SAFETY: every operation is delegated to `System` unchanged, with the
// caller's layout; the bookkeeping never touches the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64, 1);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64, 1);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as i64), 0);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as i64 - layout.size() as i64, 1);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Live heap bytes of this thread.
fn live() -> i64 {
    LIVE.with(Cell::get)
}

/// Runs `f`, returning its result, the change in live bytes and the
/// number of allocations it made on this thread.
fn measured<T>(f: impl FnOnce() -> T) -> (T, i64, u64) {
    let (live0, n0) = (live(), ALLOCATIONS.with(Cell::get));
    let out = f();
    (out, live() - live0, ALLOCATIONS.with(Cell::get) - n0)
}

const SLOTS: u32 = 37;
const LEN: u32 = 2000;

/// Answers of every kind but arena composites (the arena is accounted by
/// the parsers, not the table), made before any measurement starts.
/// Owned texts stay referenced by the returned list, so dropping the
/// table's copies never frees their bytes.
fn answers() -> (Vec<MemoAnswer>, Vec<Rc<str>>) {
    let texts: Vec<Rc<str>> = vec![Rc::from("alpha"), Rc::from("beta")];
    let answers = vec![
        MemoAnswer::fail(0),
        MemoAnswer::success(0, 5, Value::Unit),
        MemoAnswer::success(1, 5, Value::Absent),
        MemoAnswer::success(0, 9, Value::Text(Span::new(3, 9))),
        MemoAnswer::success(2, 9, Value::OwnedText(texts[0].clone())),
        MemoAnswer::success(0, 9, Value::OwnedText(texts[1].clone())),
    ];
    (answers, texts)
}

/// Fills a table the way a parse does: most positions get a few slots,
/// spread over several chunks.
fn fill(memo: &mut ChunkMemo, answers: &[MemoAnswer]) {
    for pos in 0..LEN {
        for (i, ans) in answers.iter().enumerate() {
            let slot = (pos as usize * 7 + i * CHUNK_SIZE) as u32 % SLOTS;
            if !(pos as usize + i).is_multiple_of(3) {
                memo.store(slot, pos, ans.clone());
            }
        }
        memo.record_extent(pos, 2);
    }
}

#[test]
fn retained_bytes_match_the_live_heap() {
    let (answers, _texts) = answers();
    let (memo, grew, _) = measured(|| {
        let mut memo = ChunkMemo::new(SLOTS, LEN);
        fill(&mut memo, &answers);
        // Invalidate a stretch so the spare list is in use too.
        memo.apply_edit(700, 40, 10);
        memo
    });
    assert!(memo.entries() > 0);
    assert_eq!(memo.retained_bytes() as i64, grew, "after building");

    // Reuse keeps the storage and reports it.
    let (mut memo, grew_more, _) = measured(|| {
        let mut memo = memo;
        memo.reset_for(SLOTS, LEN);
        fill(&mut memo, &answers);
        memo
    });
    assert_eq!(
        memo.retained_bytes() as i64,
        grew + grew_more,
        "after reuse"
    );

    // So does a change of geometry.
    let (_, grew_again, _) = measured(|| {
        memo.reset_for(SLOTS * 3, LEN / 2);
        for pos in 0..LEN / 2 {
            memo.store(SLOTS * 3 - 1, pos, MemoAnswer::fail(0));
        }
    });
    assert_eq!(
        memo.retained_bytes() as i64,
        grew + grew_more + grew_again,
        "after a geometry change"
    );
}

#[test]
fn evictions_free_what_they_report_without_allocating() {
    let (answers, _texts) = answers();
    let (mut memo, grew, _) = measured(|| {
        let mut memo = ChunkMemo::new(SLOTS, LEN);
        fill(&mut memo, &answers);
        memo.apply_edit(1500, 40, 10);
        memo
    });
    assert_eq!(memo.retained_bytes() as i64, grew);

    let (report, shrank, allocations) = measured(|| memo.evict_cold(LEN / 2));
    assert_eq!(allocations, 0, "evict_cold allocated");
    assert!(report.bytes_freed > 0, "{report:?}");
    assert_eq!(-shrank, report.bytes_freed as i64, "evict_cold: {report:?}");
    assert_eq!(memo.retained_bytes() as i64, grew + shrank);

    let (report, shrank_all, allocations) = measured(|| memo.evict_all());
    assert_eq!(allocations, 0, "evict_all allocated");
    assert_eq!(
        -shrank_all, report.bytes_freed as i64,
        "evict_all: {report:?}"
    );
    // Only the position array is left.
    assert_eq!(memo.retained_bytes() as i64, grew + shrank + shrank_all);
    assert_eq!(
        memo.retained_bytes(),
        4 * u64::from(LEN + 1),
        "evict_all kept more than the position array"
    );
}
