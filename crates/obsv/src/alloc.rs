//! Memory accounting via an instrumenting `#[global_allocator]`.
//!
//! The wrapper delegates every call to [`std::alloc::System`] (the
//! default allocator, so behavior is unchanged) and, when accounting is
//! enabled, maintains the process's live heap byte count in [`SHARDS`]
//! cache-padded atomic shards selected by pointer hash — alloc and
//! dealloc of the same block always hit the same shard, so per-shard
//! counts stay coherent without any thread-local state (and therefore
//! without TLS re-entry hazards inside the allocator).
//!
//! Peak tracking is slack-triggered: a shard republishes the global
//! total only after drifting [`SLACK`] bytes from its last published
//! value, so the common alloc path is two relaxed atomics. The reported
//! peak may under-estimate the true instantaneous maximum by at most
//! `SHARDS * SLACK` bytes (1 MiB) — a bounded error in the same spirit
//! as the metrics layer's 1/16-error histograms.
//!
//! [`scope`] opens a [`MemScope`] guard over a fixed-size slot table
//! (never allocating inside the allocator path); every published total
//! is folded into all open scopes, so a plan stage, an ingest
//! compaction, or a serve batch can report the peak resident bytes
//! observed while it ran. Accounting is **off by default** (one relaxed
//! bool load per alloc) and enabling it is one-way for the process
//! lifetime, which keeps shard counts consistent: blocks allocated
//! before enabling and freed after subtract untracked bytes, so totals
//! are clamped at zero and converge as pre-enable blocks retire.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicUsize, Ordering};

/// Independent byte-count shards (pointer-hashed).
const SHARDS: usize = 16;
/// Bytes a shard may drift from its published value before it
/// re-samples the global total into the peak trackers.
const SLACK: i64 = 64 * 1024;
/// Concurrently open [`MemScope`]s tracked exactly; later scopes fall
/// back to close-time sampling only.
const MAX_SCOPES: usize = 64;

#[repr(align(64))]
struct Shard {
    /// Live bytes attributed to this shard (may go negative when blocks
    /// allocated before [`enable_accounting`] are freed after it).
    current: AtomicI64,
    /// Value of `current` at the last global republish.
    published: AtomicI64,
}

static MEM: [Shard; SHARDS] = [const {
    Shard {
        current: AtomicI64::new(0),
        published: AtomicI64::new(0),
    }
}; SHARDS];

static ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL_PEAK: AtomicI64 = AtomicI64::new(0);
static ACTIVE_SCOPES: AtomicUsize = AtomicUsize::new(0);

struct ScopeSlot {
    claimed: AtomicBool,
    peak: AtomicI64,
}

static SCOPES: [ScopeSlot; MAX_SCOPES] = [const {
    ScopeSlot {
        claimed: AtomicBool::new(false),
        peak: AtomicI64::new(0),
    }
}; MAX_SCOPES];

/// The instrumenting wrapper around [`System`]; installed as the
/// workspace-wide `#[global_allocator]` by this crate.
pub struct CountingAlloc;

#[inline]
fn shard_for(ptr: *mut u8) -> &'static Shard {
    // Low bits carry alignment; >> 4 mixes distinct blocks across shards.
    &MEM[(ptr as usize >> 4) & (SHARDS - 1)]
}

#[inline]
fn on_alloc(ptr: *mut u8, size: usize) {
    if ptr.is_null() || !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let s = shard_for(ptr);
    let cur = s.current.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
    if cur > s.published.load(Ordering::Relaxed) + SLACK {
        s.published.store(cur, Ordering::Relaxed);
        publish_total();
    }
}

#[inline]
fn on_dealloc(ptr: *mut u8, size: usize) {
    if ptr.is_null() || !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let s = shard_for(ptr);
    let cur = s.current.fetch_sub(size as i64, Ordering::Relaxed) - size as i64;
    // Shrinking never raises a peak; just keep the published point near
    // the truth so the next growth re-triggers promptly.
    if cur < s.published.load(Ordering::Relaxed) - SLACK {
        s.published.store(cur, Ordering::Relaxed);
    }
}

/// Folds the freshly-sampled global total into the process peak and
/// every open scope. Out of line: runs at most once per `SLACK` bytes of
/// shard growth.
#[cold]
fn publish_total() {
    let total = current_bytes() as i64;
    GLOBAL_PEAK.fetch_max(total, Ordering::Relaxed);
    if ACTIVE_SCOPES.load(Ordering::Relaxed) > 0 {
        for slot in &SCOPES {
            if slot.claimed.load(Ordering::Relaxed) {
                slot.peak.fetch_max(total, Ordering::Relaxed);
            }
        }
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its pointer, so `System`'s `GlobalAlloc` contract
// carries over; the accounting beside it only touches atomics and never
// allocates, so it cannot re-enter the allocator. `obsv --test
// alloc_accounting` (`realloc_and_zeroed_paths_balance`,
// `accounting_tracks_scoped_peaks`) runs every path and checks that the
// counts balance.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        on_alloc(p, layout.size());
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        on_alloc(p, layout.size());
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        on_dealloc(ptr, layout.size());
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            on_dealloc(ptr, layout.size());
            on_alloc(p, new_size);
        }
        p
    }
}

#[global_allocator]
static GLOBAL_ALLOC: CountingAlloc = CountingAlloc;

/// Turns heap accounting on for the rest of the process (idempotent,
/// one-way — see the module docs for why there is no disable).
pub fn enable_accounting() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Whether heap accounting is on.
#[inline]
pub fn accounting_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Live tracked heap bytes (0 while accounting is off).
pub fn current_bytes() -> u64 {
    MEM.iter()
        .map(|s| s.current.load(Ordering::Relaxed))
        .sum::<i64>()
        .max(0) as u64
}

/// Peak tracked heap bytes since accounting was enabled (folds in the
/// instantaneous total, so a caller polling right after a burst still
/// sees it).
pub fn peak_bytes() -> u64 {
    let now = current_bytes() as i64;
    GLOBAL_PEAK
        .fetch_max(now, Ordering::Relaxed)
        .max(now)
        .max(0) as u64
}

/// Publishes allocator gauges (`mem.current_bytes`, `mem.peak_bytes`)
/// into `reg`. No-op while accounting is off, so scrapes never invent
/// zero gauges on untracked runs.
pub fn publish_gauges(reg: &crate::metrics::Registry) {
    if !accounting_enabled() {
        return;
    }
    reg.gauge("mem.current_bytes").set(current_bytes() as i64);
    reg.gauge("mem.peak_bytes").set(peak_bytes() as i64);
}

/// Guard measuring the peak resident bytes observed while it is open.
/// Obtain via [`scope`]; read with [`MemScope::peak`].
pub struct MemScope {
    slot: Option<usize>,
}

/// Opens a memory scope. While accounting is off (or all [`MAX_SCOPES`]
/// slots are taken) the scope is inert and reports 0.
pub fn scope() -> MemScope {
    if !accounting_enabled() {
        return MemScope { slot: None };
    }
    let total = current_bytes() as i64;
    for (i, s) in SCOPES.iter().enumerate() {
        if s.claimed
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            s.peak.store(total, Ordering::Relaxed);
            ACTIVE_SCOPES.fetch_add(1, Ordering::Relaxed);
            return MemScope { slot: Some(i) };
        }
    }
    MemScope { slot: None }
}

impl MemScope {
    /// Peak total resident bytes observed while this scope has been
    /// open: the max of every slack-triggered republish plus a sample
    /// taken right now. 0 for inert scopes.
    pub fn peak(&self) -> u64 {
        match self.slot {
            Some(i) => {
                let now = current_bytes() as i64;
                SCOPES[i]
                    .peak
                    .fetch_max(now, Ordering::Relaxed)
                    .max(now)
                    .max(0) as u64
            }
            None => 0,
        }
    }
}

impl Drop for MemScope {
    fn drop(&mut self) {
        if let Some(i) = self.slot.take() {
            ACTIVE_SCOPES.fetch_sub(1, Ordering::Relaxed);
            SCOPES[i].claimed.store(false, Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Enabling accounting is process-global and one-way, so assertive
    // coverage lives in the crate's `alloc_accounting` integration test
    // (its own process). Here we only exercise the inert paths that hold
    // under the disabled default shared with the other unit tests.

    #[test]
    fn disabled_scope_is_inert() {
        if accounting_enabled() {
            return; // another test in this binary flipped it on
        }
        let s = scope();
        assert_eq!(s.slot, None);
        assert_eq!(s.peak(), 0);
        assert_eq!(current_bytes(), 0);
    }

    #[test]
    fn shard_selection_is_stable_per_pointer() {
        let p = 0x7f00_1234_5678usize as *mut u8;
        assert!(std::ptr::eq(shard_for(p), shard_for(p)));
    }
}
