//! Heap-accounting integration tests. These run in their own process
//! (integration-test binary) because enabling accounting is one-way and
//! process-global.

use obsv::alloc;
use std::sync::Mutex;

/// Serializes the tests: both measure global allocator totals and would
/// see each other's churn if the harness ran them on parallel threads.
static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn accounting_tracks_scoped_peaks() {
    let _lock = SERIAL.lock().unwrap();
    if !alloc::accounting_enabled() {
        assert_eq!(alloc::current_bytes(), 0, "disabled accounting stays at 0");
        let inert = alloc::scope();
        assert_eq!(inert.peak(), 0);
        drop(inert);
    }

    alloc::enable_accounting();
    assert!(alloc::accounting_enabled());

    // Far above the 1 MiB publish slack.
    const BIG: usize = 32 << 20;
    // What the totals may under-report: the publish slack, and blocks the
    // harness allocated before accounting was on and frees while we look.
    const SEEN: u64 = BIG as u64 - (1 << 20);
    let outer = alloc::scope();
    let baseline = alloc::current_bytes();
    {
        let inner = alloc::scope();
        // `black_box`: an optimized build otherwise elides a buffer that
        // is only ever dropped, and there is nothing left to account.
        let buf = std::hint::black_box(vec![7u8; BIG]);
        let live = alloc::current_bytes();
        assert!(
            live >= SEEN,
            "a live {BIG}-byte buffer must be visible in the total (got {live})"
        );
        assert!(inner.peak() >= SEEN, "inner scope sees the peak");
        drop(buf);
        // The scope's recorded peak survives the free.
        assert!(inner.peak() >= SEEN);
    }
    // Freeing the buffer brings the live total back near the baseline.
    let after = alloc::current_bytes();
    assert!(
        after < baseline + BIG as u64,
        "freed buffer must leave the live total (baseline {baseline}, after {after})"
    );
    // The outer scope's peak covers the inner scope's burst.
    assert!(outer.peak() >= SEEN);
    assert!(alloc::peak_bytes() >= SEEN);

    // Gauges publish only while enabled.
    let reg = obsv::Registry::new();
    alloc::publish_gauges(&reg);
    let snap = reg.snapshot();
    assert!(snap.gauges["mem.peak_bytes"] >= SEEN as i64);
    assert!(snap.gauges.contains_key("mem.current_bytes"));
}

#[test]
fn realloc_and_zeroed_paths_balance() {
    let _lock = SERIAL.lock().unwrap();
    alloc::enable_accounting();
    let before = alloc::current_bytes() as i64;
    {
        let mut v: Vec<u64> = Vec::with_capacity(1024);
        for i in 0..1_000_000u64 {
            v.push(i); // grows through realloc repeatedly
        }
        let z = std::hint::black_box(vec![0u8; 4 << 20]); // alloc_zeroed path
        assert!(alloc::current_bytes() as i64 >= before + (4 << 20));
        drop(z);
    }
    let after = alloc::current_bytes() as i64;
    // Everything allocated in the block was freed; the counters must
    // return to (near) the starting point rather than drifting by the
    // reallocation churn (~8 MB of growth steps).
    assert!(
        (after - before).abs() < (1 << 20),
        "leak-free block must roughly balance: before {before}, after {after}"
    );
}
