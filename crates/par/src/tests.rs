use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

use super::{for_each, threads, with_threads};

#[test]
fn every_item_is_visited_exactly_once() {
    for width in [1usize, 2, 3, 8] {
        for n in [0usize, 1, 7, 1000] {
            let mut hits = vec![0u32; n];
            with_threads(width, || for_each(hits.iter_mut(), |h| *h += 1));
            assert!(hits.iter().all(|&h| h == 1), "width {width}, {n} items");
        }
    }
}

#[test]
fn all_threads_of_the_width_take_part() {
    // Each of the three items waits for the other two: this only
    // returns if three threads run items at the same time.
    let barrier = Barrier::new(3);
    with_threads(3, || {
        for_each(0..3, |_| {
            barrier.wait();
        })
    });
}

#[test]
fn with_threads_nests_restores_and_clamps_zero() {
    let host = threads();
    assert!(host >= 1);
    with_threads(3, || {
        assert_eq!(threads(), 3);
        assert_eq!(with_threads(7, threads), 7);
        assert_eq!(threads(), 3);
        assert_eq!(with_threads(0, threads), 1);
    });
    assert_eq!(threads(), host);
    // Restored on unwind too.
    let caught = std::panic::catch_unwind(|| with_threads(5, || panic!("boom")));
    assert!(caught.is_err());
    assert_eq!(threads(), host);
}

#[test]
fn the_default_width_is_the_host_core_count_on_every_thread() {
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert_eq!(threads(), host);
    // A fresh thread has no override: it reads the same count, and a
    // nested override on it is undone back to that count.
    let fresh = std::thread::spawn(move || {
        let nested = with_threads(host + 1, || (threads(), with_threads(3, threads), threads()));
        (nested, threads())
    });
    assert_eq!(fresh.join().unwrap(), ((host + 1, 3, host + 1), host));
}

#[test]
fn a_panicking_item_reaches_the_caller() {
    for width in [1usize, 2, 4] {
        let caught = std::panic::catch_unwind(|| {
            with_threads(width, || for_each(0..64, |i| assert_ne!(i, 13, "item 13 fails")))
        });
        assert!(caught.is_err(), "width {width}");
    }
}

#[test]
fn a_panicking_iterator_reaches_the_caller() {
    let items = (0..64).inspect(|&i| assert_ne!(i, 13, "the iterator fails at 13"));
    let caught = std::panic::catch_unwind(|| with_threads(3, || for_each(items, |_| {})));
    assert!(caught.is_err());
}

#[test]
fn nested_for_each_runs_inline() {
    let (live, high_water) = (AtomicUsize::new(0), AtomicUsize::new(0));
    with_threads(4, || {
        for_each(0..4, |_| {
            assert_eq!(threads(), 1);
            for_each(0..16, |_| {
                let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                high_water.fetch_max(now, Ordering::SeqCst);
                std::thread::yield_now();
                live.fetch_sub(1, Ordering::SeqCst);
            });
        })
    });
    assert!(high_water.load(Ordering::SeqCst) <= 4);
}
