//! Allocation budget of the batched HMAC paths.
//!
//! A batched MAC stages each lane group on the stack, so a call allocates
//! only its job list and its result (plus the id bytes an anonymous-ID
//! batch borrows its parts from). A counting global allocator with a
//! per-thread counter pins that budget: a scheduler that stages the batch
//! on the heap again fails here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pnm_crypto::{
    anon_id_many_prepared, mark_mac_prepared, verify_mark_macs_prepared, HmacKey, KeyStore, MacTag,
    Sha256xN, DEFAULT_MAC_LEN,
};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator may run while this thread's locals are
    // being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: both methods forward to `System` unchanged; the counter is a
// const-initialized thread-local `Cell`, which never allocates. The
// default `alloc_zeroed` and `realloc` go through `alloc`, so they count
// too.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded with the caller's own contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded with the caller's own contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the allocations this thread made
/// inside it.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    // The first batch reads the backend choice (an environment lookup that
    // allocates) into a `OnceLock`; settle it outside the count.
    let _ = Sha256xN::backend();
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    let after = ALLOCATIONS.with(Cell::get);
    (out, after - before)
}

fn keys(n: u16) -> KeyStore {
    KeyStore::derive_from_master(b"batch-allocations", n)
}

#[test]
fn mac_many_allocates_its_job_list_and_result_only() {
    let store = keys(8);
    let schedule = store.schedule();
    let message = b"a mark-sized message: report bytes plus anon id";
    for batch in [1, 3, 8] {
        let jobs: Vec<(&HmacKey, &[u8])> = schedule.prepared()[..batch]
            .iter()
            .map(|k| (k, &message[..]))
            .collect();
        let (tags, n) = allocations(|| HmacKey::mac_many(&jobs));
        assert_eq!(tags.len(), batch);
        assert!(n <= 2, "mac_many at batch {batch}: {n} allocations");
    }
}

#[test]
fn verify_mark_macs_allocates_its_job_list_and_result_only() {
    let store = keys(8);
    let schedule = store.schedule();
    let message = b"report bytes";
    let tags: Vec<MacTag> = schedule
        .prepared()
        .iter()
        .map(|k| mark_mac_prepared(k, message, DEFAULT_MAC_LEN))
        .collect();
    for batch in [1, 3, 8] {
        let jobs: Vec<(&HmacKey, &[u8], &MacTag)> = schedule.prepared()[..batch]
            .iter()
            .zip(&tags)
            .map(|(k, t)| (k, &message[..], t))
            .collect();
        let (verdicts, n) = allocations(|| verify_mark_macs_prepared(&jobs));
        assert_eq!(verdicts, vec![true; batch]);
        assert!(
            n <= 2,
            "verify_mark_macs_prepared at batch {batch}: {n} allocations"
        );
    }
}

#[test]
fn anon_id_batch_of_400_allocates_at_most_three_times() {
    let store = keys(400);
    let schedule = store.schedule();
    let (ids, n) =
        allocations(|| anon_id_many_prepared(schedule.prepared(), b"report", schedule.ids()));
    assert_eq!(ids.len(), 400);
    assert!(
        n <= 3,
        "anon_id_many_prepared over 400 keys: {n} allocations"
    );
}
