//! `gtw-par`: the workspace's whole parallel executor.
//!
//! [`for_each`] runs a closure once per item of an ordinary `std`
//! iterator on scoped threads. Call sites build the iterator from
//! `chunks_mut` / `zip` / `enumerate`, so every output element is written
//! by exactly one call and nothing is combined across items (an integer
//! sum excepted): the result is bit-identical at any width. No pool, no
//! global state: threads live for one call, and the width is the host's
//! core count unless [`with_threads`] overrides it for the calling thread.

use std::cell::Cell;
use std::sync::Mutex;

/// Worker stack size: the kernels keep their buffers on the heap.
const WORKER_STACK: usize = 256 * 1024;

thread_local! {
    /// This thread's width override; 0 = none.
    static WIDTH: Cell<usize> = const { Cell::new(0) };
}

/// How many threads a [`for_each`] issued from this thread uses.
pub fn threads() -> usize {
    match WIDTH.get() {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
}

/// Run `f` with [`threads`] reading `n` (0 is clamped to 1) on this
/// thread; the previous width is restored on return and on unwind.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            WIDTH.set(self.0);
        }
    }
    let _restore = Restore(WIDTH.replace(n.max(1)));
    f()
}

/// Call `f` once for every item of `iter`, on up to [`threads`] threads.
///
/// The caller and `threads() − 1` scoped workers pull items one at a
/// time from the shared iterator, so items should be chunks worth a lock
/// round-trip. At width 1 this is `iter.for_each(f)`. While it runs `f`,
/// every participating thread has width 1: a nested `for_each` runs
/// inline instead of multiplying threads. A panic in `f` or in the
/// iterator reaches the caller once every thread has been joined.
pub fn for_each<I, F>(iter: I, f: F)
where
    I: Iterator + Send,
    F: Fn(I::Item) + Sync,
{
    let width = threads();
    if width == 1 {
        return iter.for_each(f);
    }
    let queue = Mutex::new(iter);
    // The guard is dropped before `f` runs. A poisoned lock means the
    // iterator itself panicked: stop pulling from it.
    let next = || queue.lock().ok().and_then(|mut q| q.next());
    let drain = || with_threads(1, || std::iter::from_fn(next).for_each(&f));
    std::thread::scope(|s| {
        for _ in 1..width {
            let worker = std::thread::Builder::new().stack_size(WORKER_STACK);
            // A host that refuses a thread only narrows the run.
            if worker.spawn_scoped(s, drain).is_err() {
                break;
            }
        }
        drain();
    });
}

#[cfg(test)]
mod tests;
