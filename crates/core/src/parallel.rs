//! Deterministic fork/join helpers for the train/estimate pipeline.
//!
//! SPIRE's per-metric work (roofline fits, estimate merges) is
//! embarrassingly parallel: the paper's setup trains 424 independent
//! rooflines, and `collect` simulates each workload on its own core.
//! [`map`] fans a slice of such jobs across scoped worker threads and
//! returns results **in input order**, so a parallel run is bit-identical
//! to a serial one — thread scheduling can reorder execution but never
//! the output, and each job's floating-point reductions stay within one
//! thread.
//!
//! Thread counts follow the convention used by
//! [`TrainConfig::threads`](crate::ensemble::TrainConfig::threads):
//! `0` means "use [`available_parallelism`]", `1` forces the serial
//! path (no threads are spawned), and any other value caps the worker
//! count. The cap is additionally clamped to the number of jobs.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of hardware threads available to this process, with a fallback
/// of 1 when the runtime cannot determine it.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Resolves a user-facing thread-count knob: `0` (auto) becomes
/// [`available_parallelism`], anything else is returned unchanged.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        available_parallelism()
    } else {
        requested
    }
}

/// Applies `f` to every item and collects the results in input order,
/// fanning the items across at most `threads` scoped worker threads.
///
/// `threads` follows the module convention (`0` = auto, `1` = serial).
/// Workers claim the next unclaimed items through a shared index, so jobs
/// of uneven cost balance across them; each result lands in its item's
/// output slot, so the returned vector is independent of scheduling.
///
/// # Panics
///
/// Propagates a panic from `f` (the scope joins all workers first).
pub fn map<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let threads = resolve_threads(threads).min(items.len());
    if threads <= 1 {
        return items.iter().map(f).collect();
    }

    // Claims are small blocks, so jobs of uneven cost still balance while
    // fine-grained jobs do not contend on the index.
    let block = (items.len() / (threads * 8)).max(1);
    let next = AtomicUsize::new(0);
    let out: Vec<Mutex<Option<U>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| loop {
                    let start = next.fetch_add(block, Ordering::Relaxed);
                    if start >= items.len() {
                        return;
                    }
                    for i in start..(start + block).min(items.len()) {
                        let result = f(&items[i]);
                        *out[i].lock().expect("no job panics holding a slot") = Some(result);
                    }
                })
            })
            .collect();
        for worker in workers {
            worker.join().expect("parallel::map worker panicked");
        }
    });

    out.into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("no job panics holding a slot")
                .expect("every item is claimed by exactly one worker")
        })
        .collect()
}

/// Like [`map`], but contains panics at the per-item boundary: a job that
/// panics yields `Err(message)` in its output slot while every other job
/// still runs and the scoped thread pool joins normally.
///
/// This is the containment layer under fault-isolated training: one
/// poisoned metric's fit must not tear down the fan-out for the other
/// metrics. The panic payload is recovered when it is a `&str` or
/// `String` (the overwhelmingly common case for `panic!`/`assert!`/
/// indexing panics); other payloads are reported as an opaque message.
///
/// Determinism matches [`map`]: output order is input order, and each
/// item's result is independent of the thread count.
///
/// Note: a panicking job still routes through the global panic hook, so
/// callers running many injected panics may want to silence the default
/// stderr backtrace in their harness.
pub fn map_catching<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<Result<U, String>>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    map(items, threads, |item| {
        // `AssertUnwindSafe` is sound here: `f` is `Fn` (no interior state
        // to observe half-mutated) and a panicking job writes nothing to
        // its output slot besides this Result.
        catch_unwind(AssertUnwindSafe(|| f(item)))
            .map_err(|payload| panic_message(payload.as_ref()))
    })
}

/// Runs one closure with panic containment: `Ok(value)` on success,
/// `Err(message)` if the closure panics.
///
/// This is the single-job form of [`map_catching`], intended for request
/// isolation in resident services: one malformed or adversarial request
/// must not tear down the worker thread serving every other connection.
/// Payload recovery matches [`map_catching`] (`&str` / `String`
/// payloads become the message, anything else is opaque), and the same
/// panic-hook note applies.
pub fn run_catching<U>(f: impl FnOnce() -> U) -> Result<U, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| panic_message(payload.as_ref()))
}

/// Extracts a human-readable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_resolves_to_available_parallelism() {
        assert_eq!(resolve_threads(0), available_parallelism());
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<usize> = (0..97).collect();
        for threads in [1, 2, 3, 8, 200] {
            let out = map(&items, threads, |&x| x * 2);
            let expect: Vec<usize> = items.iter().map(|&x| x * 2).collect();
            assert_eq!(out, expect, "threads = {threads}");
        }
    }

    #[test]
    fn map_handles_empty_and_single_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(map(&empty, 4, |&x| x).is_empty());
        assert_eq!(map(&[7u32], 4, |&x| x + 1), vec![8]);
    }

    #[test]
    fn parallel_equals_serial_for_float_reductions() {
        // Each job reduces its own slice; per-job summation order is
        // fixed, so the result is bit-identical at any thread count.
        let jobs: Vec<Vec<f64>> = (0..17)
            .map(|i| (0..1000).map(|j| (i * 1000 + j) as f64 * 1e-3).collect())
            .collect();
        let serial = map(&jobs, 1, |v| v.iter().sum::<f64>());
        for threads in [2, 4, 8] {
            let par = map(&jobs, threads, |v| v.iter().sum::<f64>());
            assert_eq!(serial, par);
        }
    }

    #[test]
    #[should_panic(expected = "worker panicked")]
    fn worker_panics_propagate() {
        let items = vec![1, 2, 3, 4];
        let _ = map(&items, 2, |&x| {
            if x == 3 {
                panic!("boom");
            }
            x
        });
    }

    #[test]
    fn map_catching_contains_panics_to_their_slot() {
        let items: Vec<usize> = (0..23).collect();
        for threads in [1, 2, 4, 8] {
            let out = map_catching(&items, threads, |&x| {
                if x % 7 == 3 {
                    panic!("poisoned item {x}");
                }
                x * 10
            });
            assert_eq!(out.len(), items.len(), "threads = {threads}");
            for (i, r) in out.iter().enumerate() {
                if i % 7 == 3 {
                    assert_eq!(r.as_ref().err(), Some(&format!("poisoned item {i}")));
                } else {
                    assert_eq!(r.as_ref().ok(), Some(&(i * 10)));
                }
            }
        }
    }

    #[test]
    fn map_catching_recovers_string_and_str_payloads() {
        let out = map_catching(&[0, 1], 1, |&x| {
            if x == 0 {
                panic!("static str");
            }
            std::panic::panic_any(String::from("owned string"));
        });
        let _: &Vec<Result<(), String>> = &out;
        assert_eq!(
            out[0].as_ref().err().map(String::as_str),
            Some("static str")
        );
        assert_eq!(
            out[1].as_ref().err().map(String::as_str),
            Some("owned string")
        );
    }

    #[test]
    fn run_catching_contains_and_passes_through() {
        assert_eq!(run_catching(|| 6 * 7), Ok(42));
        let err = run_catching(|| -> u32 { panic!("request poisoned") });
        assert_eq!(err, Err("request poisoned".to_owned()));
    }

    #[test]
    fn map_catching_matches_map_when_nothing_panics() {
        let items: Vec<u64> = (0..50).collect();
        let plain = map(&items, 4, |&x| x * x);
        let caught = map_catching(&items, 4, |&x| x * x);
        assert_eq!(
            plain,
            caught.into_iter().map(Result::unwrap).collect::<Vec<_>>()
        );
    }
}
