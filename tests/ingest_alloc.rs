//! Steady-state allocation discipline of the block-ingest hot path:
//! once the arena's free list, the level rings and the engine scratch
//! have warmed up, ingesting a block must not allocate per line — slot
//! `String`s are recycled with their capacity, generation buckets come
//! from the spare pool, and the routing queue never touches the heap in
//! a linear pipeline.
//!
//! This file holds exactly one test: the counting allocator is
//! process-global, so it gets an integration-test binary of its own and
//! no parallel test threads that would pollute the counters.

#![allow(clippy::unwrap_used)]
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use perpos::prelude::*;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn warmed_ingest_allocates_independent_of_batch_size() {
    let mut mw = Middleware::new();
    let src = mw.add_component(FnSource::new("trace", kinds::RAW_STRING, |_| None));
    let mut prev = src;
    for d in 0..4 {
        let node = mw.add_component(FnRelay::new(
            format!("stage{d}"),
            vec![kinds::RAW_STRING],
            kinds::RAW_STRING,
        ));
        mw.connect(prev, node, 0).unwrap();
        prev = node;
    }
    let app = mw.application_sink();
    mw.connect(prev, app, 0).unwrap();

    let line = "$GPGGA,123519,4807.038,N,01131.000,E,1,08,0.9,545.4,M,46.9,M,,0042";
    let tick = SimDuration::from_micros(1);
    let batch = |n: usize| vec![line; n];

    // Warm-up: fill the arena free list, grow the level rings to their
    // steady depth, and settle every engine-side buffer.
    let warm = batch(20_000);
    mw.ingest_batch(src, kinds::RAW_STRING, &warm, tick)
        .unwrap();

    // Two measured batches whose sizes differ by 30k lines. Absolute
    // zero is not the claim — a handful of setup allocations per
    // `ingest_batch` call is fine — the claim is that the *per-line*
    // path is allocation-free, so the counts must not scale with the
    // batch size.
    let small = batch(10_000);
    let big = batch(40_000);

    let before_small = ALLOCS.load(Ordering::Relaxed);
    mw.ingest_batch(src, kinds::RAW_STRING, &small, tick)
        .unwrap();
    let small_allocs = ALLOCS.load(Ordering::Relaxed) - before_small;

    let before_big = ALLOCS.load(Ordering::Relaxed);
    mw.ingest_batch(src, kinds::RAW_STRING, &big, tick).unwrap();
    let big_allocs = ALLOCS.load(Ordering::Relaxed) - before_big;

    assert!(
        big_allocs <= small_allocs.saturating_add(8),
        "ingest allocates per line: {small_allocs} allocs for 10k lines, \
         {big_allocs} for 40k"
    );
    eprintln!("ingest allocs: small(10k)={small_allocs} big(40k)={big_allocs}");
}
