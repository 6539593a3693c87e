//! # cleanml-parallel
//!
//! The nested data-parallelism *bridge* between compute kernels and
//! whatever thread pool hosts them.
//!
//! Kernels (random-forest tree fitting, GBDT split search, the O(n²)
//! duplicate/outlier sweeps) are pure functions over an index range. They
//! call [`run_indexed`] — "run `f(i)` for `i in 0..n` and give me the
//! results in order" — and stay completely ignorant of threads. The
//! *host* decides what that means:
//!
//! * No bridge installed (unit tests, the serial reference path, remote
//!   workers, a 1-worker pool): `run_indexed` is a plain serial loop with
//!   zero overhead beyond the closure calls.
//! * A [`SubworkBridge`] installed on the thread (the engine's resident
//!   pool installs one on every worker): the bridge fans the indices out
//!   to idle helper threads while the *calling* thread keeps claiming
//!   indices itself, so the call always makes progress even with zero
//!   helpers and never parks a claimed task lease.
//! * A [`ThreadBridge`] installed on the thread (hosts without a pool,
//!   such as the off-engine table binaries): each call spawns scoped
//!   helper threads for its duration.
//!
//! This is the one fan-out primitive outside the engine pool: a host
//! chooses parallelism by installing a bridge, never through a config
//! knob, so results cannot depend on which executor ran an index.
//!
//! ## Determinism contract
//!
//! Results are collected into slot `i` regardless of which thread ran
//! `f(i)`, so the returned `Vec` is byte-identical to the serial loop for
//! any worker count — the engine's core invariant (R1–R3 CSVs never
//! depend on parallelism) extends through nested subwork. Kernels must
//! keep `f(i)` a pure function of `i` (derive per-index RNG streams from
//! a base seed, never share a mutable RNG across indices).
//!
//! Nested calls (an `f(i)` that itself calls [`run_indexed`]) run serially
//! inline: one level of fan-out is where the parallelism profit is, and
//! inlining the rest makes re-entrant deadlocks unrepresentable.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// A host-provided executor for indexed subwork. `run` must invoke
/// `work(i)` exactly once for every `i in 0..n` (on any threads it likes)
/// and must not return before all `n` invocations have completed — or,
/// if one of them panics, unwind with that panic once every invocation
/// in flight has finished.
pub trait SubworkBridge: Send + Sync {
    fn run(&self, n: usize, work: &(dyn Fn(usize) + Sync));
}

thread_local! {
    static BRIDGE: Cell<Option<&'static dyn SubworkBridge>> = const { Cell::new(None) };
    /// Set while this thread is inside a `run_indexed` item or drive loop;
    /// nested calls see it and stay serial.
    static IN_SUBWORK: Cell<bool> = const { Cell::new(false) };
}

/// Installs `bridge` as this thread's subwork executor for the thread's
/// lifetime. The bridge is leaked into `'static` — hosts install one
/// long-lived bridge per worker thread at spawn, not one per task.
pub fn install_bridge(bridge: Arc<dyn SubworkBridge>) {
    let leaked: &'static Arc<dyn SubworkBridge> = Box::leak(Box::new(bridge));
    BRIDGE.with(|b| b.set(Some(&**leaked)));
}

/// Removes this thread's bridge (tests; worker threads normally keep
/// theirs until exit).
pub fn clear_bridge() {
    BRIDGE.with(|b| b.set(None));
}

/// Marks this thread as executing subwork for the duration of `f`:
/// `run_indexed` calls made inside run serially inline. The flag is
/// restored even when `f` unwinds, so a caught panic does not leave the
/// thread serial for good.
fn enter_subwork<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            IN_SUBWORK.with(|flag| flag.set(self.0));
        }
    }
    let _restore = Restore(IN_SUBWORK.with(|flag| flag.replace(true)));
    f()
}

/// Runs `f(i)` for every `i in 0..n` and returns the results in index
/// order. Fans out through the thread's installed [`SubworkBridge`] when
/// one exists and the call is not already nested subwork; otherwise a
/// serial loop. Panics in `f` propagate to the caller in both modes.
pub fn run_indexed<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let bridge = BRIDGE.with(|b| b.get());
    let nested = IN_SUBWORK.with(|flag| flag.get());
    match bridge {
        Some(bridge) if !nested && n > 1 => {
            let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
            let work = |i: usize| {
                let out = enter_subwork(|| f(i));
                *slots[i].lock().expect("subwork slot") = Some(out);
            };
            bridge.run(n, &work);
            slots
                .into_iter()
                .map(|s| s.into_inner().expect("subwork slot").expect("bridge ran every index"))
                .collect()
        }
        _ => (0..n).map(f).collect(),
    }
}

/// Splits `0..n` into at most `max_chunks` contiguous ranges of
/// near-equal length (the leading `n % k` ranges are one longer). Empty
/// input yields no ranges. The canonical way to batch a long sweep before
/// [`run_indexed`]: per-chunk closures amortize the per-index dispatch.
pub fn chunk_ranges(n: usize, max_chunks: usize) -> Vec<std::ops::Range<usize>> {
    if n == 0 || max_chunks == 0 {
        return Vec::new();
    }
    let k = max_chunks.min(n);
    let (base, extra) = (n / k, n % k);
    let mut out = Vec::with_capacity(k);
    let mut start = 0;
    for i in 0..k {
        let len = base + usize::from(i < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// A self-contained bridge that runs subwork on up to `helpers` freshly
/// spawned threads per call while the caller drives too. The engine's
/// pool bridges onto its resident workers instead; this bridge is how a
/// host without a pool fans out: the §VII table and ablation binaries
/// install `ThreadBridge { helpers: workers - 1 }` on their main thread,
/// and tests install one to run the kernels on several threads.
///
/// A panic in `work` reaches the caller with its *original* payload: the
/// first one is kept, the remaining indices are abandoned so every thread
/// winds down promptly, and the payload is re-raised after the scope
/// (instead of the scope's generic "a scoped thread panicked").
pub struct ThreadBridge {
    pub helpers: usize,
}

impl SubworkBridge for ThreadBridge {
    fn run(&self, n: usize, work: &(dyn Fn(usize) + Sync)) {
        let next = AtomicUsize::new(0);
        let panicked: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
        let drive = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| work(i))) {
                panicked.lock().expect("panic slot").get_or_insert(payload);
                next.store(n, Ordering::Relaxed);
                break;
            }
        };
        std::thread::scope(|scope| {
            for _ in 0..self.helpers.min(n.saturating_sub(1)) {
                scope.spawn(drive);
            }
            drive();
        });
        if let Some(payload) = panicked.into_inner().expect("panic slot") {
            resume_unwind(payload);
        }
    }
}

/// Shared claim/completion counters for one batch of indexed subwork —
/// the building block pool-hosted bridges coordinate on. `claim` hands
/// out indices; `complete` tallies finished ones; `is_done` flips once
/// every index has completed.
pub struct BatchCounters {
    n: usize,
    next: AtomicUsize,
    done: AtomicUsize,
}

impl BatchCounters {
    pub fn new(n: usize) -> Self {
        BatchCounters { n, next: AtomicUsize::new(0), done: AtomicUsize::new(0) }
    }

    pub fn len(&self) -> usize {
        self.n
    }

    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Claims the next unclaimed index, or `None` when all are claimed.
    pub fn claim(&self) -> Option<usize> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.n).then_some(i)
    }

    /// Whether every index has been claimed (not necessarily completed).
    pub fn fully_claimed(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.n
    }

    /// Records one completed index; returns true if it was the last.
    pub fn complete(&self) -> bool {
        self.done.fetch_add(1, Ordering::AcqRel) + 1 == self.n
    }

    pub fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire) >= self.n
    }
}

/// A tiny parker: waiters sleep until `notify_all` after a state change.
/// Pool bridges pair it with [`BatchCounters`] so a caller can sleep out
/// the tail of a batch its helpers are still finishing.
#[derive(Default)]
pub struct Parker {
    lock: Mutex<u64>,
    cv: Condvar,
}

impl Parker {
    /// Blocks until `cond` holds, re-checking after every notification
    /// (and a timeout heartbeat, so a missed wakeup degrades to latency,
    /// never deadlock).
    pub fn wait_until(&self, cond: impl Fn() -> bool) {
        let mut epoch = self.lock.lock().expect("parker lock");
        while !cond() {
            let (e, _) = self
                .cv
                .wait_timeout(epoch, std::time::Duration::from_millis(10))
                .expect("parker wait");
            epoch = e;
        }
    }

    pub fn notify_all(&self) {
        let mut epoch = self.lock.lock().expect("parker lock");
        *epoch = epoch.wrapping_add(1);
        drop(epoch);
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_without_bridge() {
        let out = run_indexed(5, |i| i * i);
        assert_eq!(out, vec![0, 1, 4, 9, 16]);
        assert_eq!(run_indexed(0, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn thread_bridge_matches_serial_order() {
        let serial: Vec<u64> = run_indexed(97, |i| (i as u64).wrapping_mul(0x9E37_79B9));
        install_bridge(Arc::new(ThreadBridge { helpers: 3 }));
        let parallel: Vec<u64> = run_indexed(97, |i| (i as u64).wrapping_mul(0x9E37_79B9));
        clear_bridge();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn nested_calls_run_inline() {
        install_bridge(Arc::new(ThreadBridge { helpers: 2 }));
        let out = run_indexed(4, |i| run_indexed(3, move |j| i * 10 + j));
        clear_bridge();
        assert_eq!(out[2], vec![20, 21, 22]);
    }

    #[test]
    fn chunk_ranges_cover_exactly() {
        for (n, k) in [(10, 3), (3, 10), (1, 1), (0, 4), (16, 4), (7, 1)] {
            let ranges = chunk_ranges(n, k);
            let mut covered = 0;
            for (i, r) in ranges.iter().enumerate() {
                assert_eq!(r.start, covered, "contiguous at {i}");
                covered = r.end;
            }
            assert_eq!(covered, n, "n={n} k={k}");
            if n > 0 {
                assert!(ranges.len() <= k.min(n));
                let lens: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
                assert!(lens.iter().max().unwrap() - lens.iter().min().unwrap() <= 1);
            }
        }
    }

    #[test]
    fn batch_counters_protocol() {
        let b = BatchCounters::new(3);
        assert_eq!(b.claim(), Some(0));
        assert_eq!(b.claim(), Some(1));
        assert!(!b.fully_claimed());
        assert_eq!(b.claim(), Some(2));
        assert!(b.fully_claimed());
        assert_eq!(b.claim(), None);
        assert!(!b.complete());
        assert!(!b.complete());
        assert!(!b.is_done());
        assert!(b.complete(), "last completion reports done");
        assert!(b.is_done());
    }

    #[test]
    fn parker_wakes_waiter() {
        let parker = Arc::new(Parker::default());
        let flag = Arc::new(AtomicUsize::new(0));
        let (p2, f2) = (Arc::clone(&parker), Arc::clone(&flag));
        let t = std::thread::spawn(move || {
            p2.wait_until(|| f2.load(Ordering::Acquire) == 1);
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        flag.store(1, Ordering::Release);
        parker.notify_all();
        t.join().unwrap();
    }

    /// The text of a caught panic payload (`panic!` with arguments
    /// carries a `String`, a literal a `&'static str`).
    fn payload_text(payload: &(dyn Any + Send)) -> String {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("payload must stay downcastable")
    }

    #[test]
    fn panics_propagate_through_bridge() {
        install_bridge(Arc::new(ThreadBridge { helpers: 1 }));
        let caught = catch_unwind(AssertUnwindSafe(|| {
            run_indexed(4, |i| {
                if i == 2 {
                    panic!("boom");
                }
                i
            })
        }));
        clear_bridge();
        assert_eq!(payload_text(&*caught.expect_err("panic must propagate")), "boom");
    }

    /// The original panic payload must reach the caller — not a poisoned
    /// mutex message, not the scope's generic "a scoped thread panicked".
    #[test]
    fn thread_bridge_panic_surfaces_its_original_payload() {
        for helpers in [1, 7] {
            install_bridge(Arc::new(ThreadBridge { helpers }));
            let caught = catch_unwind(AssertUnwindSafe(|| {
                run_indexed(64, |i| {
                    if i == 7 {
                        panic!("boom at item {i}");
                    }
                    i
                })
            }));
            clear_bridge();
            let msg = payload_text(&*caught.expect_err("panicking f must propagate"));
            assert_eq!(msg, "boom at item 7", "helpers={helpers}");
        }
        // &'static str payloads survive too
        install_bridge(Arc::new(ThreadBridge { helpers: 1 }));
        let caught = catch_unwind(AssertUnwindSafe(|| {
            run_indexed(3, |_| -> usize { std::panic::panic_any("static-str") })
        }));
        clear_bridge();
        let payload = caught.expect_err("panic_any must propagate");
        assert_eq!(payload.downcast_ref::<&str>().copied(), Some("static-str"));
    }

    #[test]
    fn thread_bridge_panic_abandons_the_remaining_items() {
        let ran = AtomicUsize::new(0);
        install_bridge(Arc::new(ThreadBridge { helpers: 1 }));
        let caught = catch_unwind(AssertUnwindSafe(|| {
            run_indexed(1000, |i| {
                ran.fetch_add(1, Ordering::Relaxed);
                if i == 0 {
                    panic!("first item fails");
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            })
        }));
        clear_bridge();
        assert!(caught.is_err());
        // each item takes a millisecond, far longer than the panic takes to
        // stop the claims, so the other thread finishes about the one item
        // it holds, far short of the full range
        assert!(ran.load(Ordering::Relaxed) < 100, "ran {} items", ran.load(Ordering::Relaxed));
    }

    #[test]
    fn caught_panic_leaves_the_thread_fanning_out() {
        // with no helpers the calling thread runs the item itself, so the
        // panic unwinds out of its own subwork scope
        install_bridge(Arc::new(ThreadBridge { helpers: 0 }));
        let caught = catch_unwind(AssertUnwindSafe(|| {
            run_indexed(2, |_| -> usize { panic!("subtask fails") })
        }));
        assert!(caught.is_err());
        assert!(!IN_SUBWORK.with(|flag| flag.get()), "subwork flag left set after unwinding");
        install_bridge(Arc::new(ThreadBridge { helpers: 1 }));
        // each item waits for the other to start: fanned out, the two run
        // at once on two threads; left serial, the first waits out the
        // deadline and both run on the caller
        let started = AtomicUsize::new(0);
        let threads = run_indexed(2, |_| {
            started.fetch_add(1, Ordering::SeqCst);
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
            while started.load(Ordering::SeqCst) < 2 && std::time::Instant::now() < deadline {
                std::thread::yield_now();
            }
            std::thread::current().id()
        });
        clear_bridge();
        assert_ne!(threads[0], threads[1], "the next call stayed serial");
    }
}
