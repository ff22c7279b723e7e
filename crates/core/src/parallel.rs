//! The workspace's one deterministic parallel map.
//!
//! Every short-lived fan-out in the workspace goes through
//! [`parallel_map_indexed`]: the detection engine's trie-subtree split and
//! the experiment drivers' per-budget sweeps. (The fleet keeps its own
//! long-lived worker pool.)

/// Deterministic parallel map: apply `f` to every item of `items`,
/// splitting the index range into contiguous chunks across at most
/// `threads` scoped workers and merging results back **by index**. `f`
/// must be pure — given that, the output is byte-identical at every thread
/// count, because each slot is computed exactly once from `(index, item)`
/// alone and the merge is positional. Runs inline (no threads spawned)
/// when one worker suffices. A panic in `f` propagates to the caller.
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
    let chunk = items.len().div_ceil(workers);
    let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    std::thread::scope(|s| {
        let f = &f;
        for (ci, (in_chunk, out_chunk)) in
            items.chunks(chunk).zip(out.chunks_mut(chunk)).enumerate()
        {
            s.spawn(move || {
                for (j, (x, slot)) in in_chunk.iter().zip(out_chunk.iter_mut()).enumerate() {
                    *slot = Some(f(ci * chunk + j, x));
                }
            });
        }
    });
    out.into_iter()
        .map(|r| r.expect("every index slot is covered by exactly one worker"))
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
}
