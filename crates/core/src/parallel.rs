//! The workspace's one deterministic parallel map.
//!
//! Every fan-out in the workspace goes through [`parallel_map_indexed`]:
//! the detection engine's trie-subtree split, the experiment drivers'
//! grids of independent solves (one item per `(B, ε)` cell, budget or
//! scenario), and the runtime fleet, which runs each tenant from cold
//! start to horizon as one item.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Deterministic parallel map: apply `f` to every item of `items` on at
/// most `threads` scoped workers, which claim indices one at a time from a
/// shared cursor (so uneven items never idle a worker while work remains),
/// and merge results back **by index**. `f` must be pure — given that, the
/// output is byte-identical at every thread count, because each slot is
/// computed exactly once from `(index, item)` alone and the merge is
/// positional. Runs inline (no threads spawned) when one worker suffices.
/// A panic in `f` propagates to the caller with its original payload.
pub fn parallel_map_indexed<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = threads.max(1).min(items.len());
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let claim = || {
                        // Relaxed: the cursor publishes no data. Items are
                        // shared before the spawn, results return by join.
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        items.get(i).map(|x| (i, f(i, x)))
                    };
                    std::iter::from_fn(claim).collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            let done = handle
                .join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            for (i, r) in done {
                out[i] = Some(r);
            }
        }
    });
    out.into_iter()
        .map(|r| r.expect("every index is claimed by exactly one worker"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_is_identical_at_every_thread_count() {
        let items: Vec<usize> = (0..97).collect();
        let f = |i: usize, &x: &usize| (i as f64).sin() + (x as f64).sqrt();
        let base = parallel_map_indexed(1, &items, f);
        for threads in [2usize, 3, 4, 8] {
            let got = parallel_map_indexed(threads, &items, f);
            assert_eq!(base.len(), got.len());
            for (a, b) in base.iter().zip(&got) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        assert!(parallel_map_indexed(4, &[] as &[usize], f).is_empty());
    }

    #[test]
    #[should_panic(expected = "item 5 failed")]
    fn a_panic_in_f_reaches_the_caller() {
        let items: Vec<usize> = (0..16).collect();
        parallel_map_indexed(3, &items, |_, &x| {
            assert!(x != 5, "item {x} failed");
            x
        });
    }
}
