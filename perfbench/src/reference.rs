//! The reference kernel: a fixed loop, independent of the program under
//! test, timed right beside every operation so that the benchmark can
//! report operation times corrected for the host's contention phases.
//!
//! The benchmark runs on a few cores of a shared host. In phases that last
//! from seconds to minutes, work of other tenants on the same physical
//! cores slows throughput-bound code by 1.5× to 3× (a cold solve by up to
//! 1.8×), while latency-bound loops barely move. A phase can cover a whole
//! run, so no statistic over one run's raw times removes it.
//!
//! The kernel is throughput-bound like the program and has two parts: a
//! sweep over 128 KB, which stays in the core's cache and slows somewhat
//! less than a solve, and a sweep over 1.6 MB, which loses the cache to the
//! other tenant and slows more. Timed together, they track the program:
//! on the 2-core host the benchmark was tuned on, a cold solve's ratio to
//! the kernel beside it moved by ±3% across phases in which its raw time
//! moved by ±20%.
//!
//! A timed quantity is reported as `ms × NOMINAL_MS / ref_ms`: its time
//! at the kernel's nominal speed. The kernel never changes with the
//! program, so a faster program still reads faster.

use std::hint::black_box;
use std::time::Instant;

/// Nominal wall time of one kernel pass, in ms: a round figure near its
/// time on an idle core of the host the benchmark was tuned on. Only the
/// ratio between two runs of the benchmark matters.
pub const NOMINAL_MS: f64 = 5.0;

/// Elements of the kernel's working array (1.6 MB of `f64`).
const LEN: usize = 200_000;

/// Elements of the cache-resident part (128 KB).
const HOT_LEN: usize = 16_384;

/// Sweeps per pass over the cache-resident part and over the whole array;
/// the first part takes about 60% of a pass.
const HOT_SWEEPS: usize = 240;
const FULL_SWEEPS: usize = 4;

/// The kernel's working arrays and its timings.
pub struct Reference {
    data: Vec<f64>,
    threads: usize,
    samples: Vec<f64>,
}

impl Reference {
    /// A kernel that runs on `threads` threads at once, each on its own
    /// array: 1 beside single-threaded operations, the worker count beside
    /// a worker pool, so that it sees every core the operation used.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        Self {
            data: (0..LEN * threads).map(|i| i as f64).collect(),
            threads,
            samples: Vec::new(),
        }
    }

    /// Heap the kernel holds, in MB (`peak_heap_mb` leaves it out).
    pub fn heap_mb(&self) -> f64 {
        (self.data.len() * std::mem::size_of::<f64>()) as f64 / (1024.0 * 1024.0)
    }

    /// Run one pass of the kernel on every thread at once; returns its
    /// time in ms. With several threads this is the harmonic mean of the
    /// threads' own times: the time at their combined throughput, which
    /// is what a worker pool that balances its load sees when one core is
    /// slowed and the other is not.
    pub fn sample(&mut self) -> f64 {
        let ms = if self.threads == 1 {
            timed_pass(&mut self.data)
        } else {
            let times: Vec<f64> = std::thread::scope(|s| {
                let handles: Vec<_> = self
                    .data
                    .chunks_mut(LEN)
                    .map(|chunk| s.spawn(move || timed_pass(chunk)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("reference pass"))
                    .collect()
            });
            times.len() as f64 / times.iter().map(|t| 1.0 / t).sum::<f64>()
        };
        self.samples.push(ms);
        ms
    }

    /// The median of `n` passes, in ms.
    pub fn sample_median(&mut self, n: usize) -> f64 {
        let times: Vec<f64> = (0..n.max(1)).map(|_| self.sample()).collect();
        crate::stats::median(&times).expect("at least one pass")
    }

    /// Every pass timed so far, in ms.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// One pass over one array, the cache-resident part and then the whole
/// array; returns its wall time in ms.
fn timed_pass(data: &mut [f64]) -> f64 {
    let t = Instant::now();
    black_box(sweep::<HOT_LEN>(data, HOT_SWEEPS) + sweep::<LEN>(data, FULL_SWEEPS));
    t.elapsed().as_secs_f64() * 1e3
}

/// `sweeps` passes over the first `N` elements of `data`, each updating
/// every element in order and reading one at a stride. A constant `N`
/// lets the compiler turn the modulo into a multiply and shift, which
/// keeps the loop throughput-bound.
fn sweep<const N: usize>(data: &mut [f64], sweeps: usize) -> f64 {
    let data = &mut data[..N];
    let mut acc = 0.0;
    for s in 0..sweeps {
        for i in 0..N {
            // Bounded: each element converges to 2 · s.
            data[i] = data[i] * 0.5 + s as f64;
            acc += data[(i * 7919) % N];
        }
    }
    acc
}

/// `ms` at the kernel's nominal speed, `ref_ms` being the kernel's time
/// beside it.
pub fn scaled(ms: f64, ref_ms: f64) -> f64 {
    ms * NOMINAL_MS / ref_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_cancels_a_common_slowdown() {
        assert_eq!(scaled(20.0, NOMINAL_MS), 20.0);
        // A phase that slows both the operation and the kernel 1.6x.
        assert!((scaled(20.0 * 1.6, NOMINAL_MS * 1.6) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn samples_are_recorded_and_positive() {
        for threads in [1, 2] {
            let mut r = Reference::new(threads);
            let ms = r.sample();
            assert!(ms > 0.0);
            assert_eq!(r.samples(), &[ms]);
            r.sample_median(3);
            assert_eq!(r.samples().len(), 4);
            assert!(r.data.iter().all(|x| x.is_finite()));
            assert!((r.heap_mb() - threads as f64 * 1.526).abs() < 0.01);
        }
    }
}
