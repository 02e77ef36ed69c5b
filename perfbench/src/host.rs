//! Host ceilings and the pool's claim cost, measured with the benchmark's
//! own loops in the traced run that uses them.
//!
//! The ceilings are single-threaded, like the serial replay whose XMV
//! applies they bound: `xmv.roofline_fraction` compares one core's XMV
//! rate with one core's ceiling.

use std::hint::black_box;
use std::time::Instant;

use rayon::prelude::*;

use crate::report::median;

/// Bytes in each triad array: 1.2 GiB, four times the 300 MiB last-level
/// cache the guest reports, so the loop streams from memory.
pub const TRIAD_ARRAY_BYTES: usize = 1_288_490_189;

/// STREAM-style triad `a[i] = b[i] + s * c[i]` over three `f64` arrays of
/// `bytes_per_array` bytes each; the best of `passes` timed passes, in
/// GB/s (24 bytes moved per element: two loads and one store).
pub fn triad_gbps(bytes_per_array: usize, passes: usize) -> f64 {
    let len = bytes_per_array.div_ceil(8);
    let mut a = vec![0.0f64; len];
    let b = vec![1.0f64; len];
    let c = vec![2.0f64; len];
    // touch `a` so page faults stay out of the timed passes
    a.iter_mut().for_each(|v| *v = 0.5);
    let scalar = black_box(3.0f64);
    let mut best = 0.0f64;
    for _ in 0..passes.max(1) {
        let start = Instant::now();
        for ((ai, bi), ci) in a.iter_mut().zip(&b).zip(&c) {
            *ai = bi + scalar * ci;
        }
        let secs = start.elapsed().as_secs_f64();
        black_box(&a);
        best = best.max(24.0 * len as f64 / secs / 1e9);
    }
    best
}

/// Single-thread `f32` multiply-add throughput: 64 independent
/// accumulators, so the loop is bound by the arithmetic units, not by a
/// dependency chain; the best of `passes`, in GFLOP/s (2 flops per
/// multiply-add).
pub fn peak_gflops(iterations: usize, passes: usize) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..passes.max(1) {
        let mut acc = black_box([1.0f32; 64]);
        let (mul, add) = (black_box(0.999_999f32), black_box(1e-7f32));
        let start = Instant::now();
        for _ in 0..iterations {
            for v in acc.iter_mut() {
                *v = *v * mul + add;
            }
        }
        let secs = start.elapsed().as_secs_f64();
        black_box(&acc);
        best = best.max(2.0 * 64.0 * iterations as f64 / secs / 1e9);
    }
    best
}

/// Nanoseconds per item of a `par_iter` over trivial items, pinned to two
/// participants: the pool's per-item claim and dispatch cost. Median of
/// `reps` regions of `items` items.
pub fn pool_claim_ns(items: usize, reps: usize) -> f64 {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .expect("building a pool shim cannot fail");
    let input: Vec<u64> = (0..items as u64).collect();
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            let out: Vec<u64> =
                pool.install(|| input.par_iter().map(|&x| black_box(x.wrapping_mul(3))).collect());
            let ns = start.elapsed().as_nanos() as f64;
            black_box(out);
            ns / items as f64
        })
        .collect();
    median(&samples)
}
