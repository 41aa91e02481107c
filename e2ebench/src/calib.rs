//! Host-speed calibration.
//!
//! The benchmark runs on shared hosts whose memory system slows down by
//! up to 2x for tens of seconds at a time when other tenants load it.
//! Every workload is bound by memory latency (the simulator's cache
//! model, the host kernels' gathers), so its run-to-run spread is mostly
//! that slowdown. A run therefore also times a fixed memory-bound kernel,
//! which no change to the repository can alter, between its queries, and
//! states its host times in reference seconds: seconds on a host where
//! the kernel takes [`REFERENCE_NS`] per access.
//!
//! The kernel is sampled right after work that has evicted its buffer
//! from the caches (a query, a serving window), the way it was measured:
//! on a 2-CPU Xeon host, over two runs of 16 consecutive 20 s windows of
//! BFS/SSSP simulation, its median time tracked the simulation's with
//! correlation 0.98, and divided by it the spread (interquartile range
//! over median) of the simulation's time fell from 0.16 to 0.04 and from
//! 0.60 to 0.08. Sampled warm instead, it over-corrects (0.17).

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// Kernel time per access on the reference host, in ns: what the kernel
/// took, sampled as above, in the quietest fifth of those windows. On a
/// quiet host, reference seconds are close to host seconds.
pub const REFERENCE_NS: f64 = 6.3;

/// Elements of the kernel's buffer: 8 MiB of `u32`, the size that
/// showed the correlation above.
const WORDS: usize = 1 << 21;

/// Random read-modify-writes per sample: about 5 ms.
const ACCESSES: usize = 1 << 20;

/// The kernel's buffer, generator state and timings.
#[derive(Debug)]
pub struct Calibration {
    buf: Vec<u32>,
    state: u64,
    ns_per_access: Vec<f64>,
}

impl Calibration {
    /// A calibration with its buffer touched once.
    pub fn new() -> Self {
        Calibration {
            buf: (0..WORDS as u32).collect(),
            state: 0x2545_F491_4F6C_DD1D,
            ns_per_access: Vec::new(),
        }
    }

    /// Times one round of random read-modify-writes over the buffer.
    pub fn sample(&mut self) {
        let start = Instant::now();
        let mut x = self.state;
        let mut acc = 0u32;
        for _ in 0..ACCESSES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x as usize) & (WORDS - 1);
            acc = acc.wrapping_add(self.buf[i]);
            self.buf[i] = acc;
        }
        self.state = black_box(x);
        let ns = start.elapsed().as_nanos() as f64;
        self.ns_per_access.push(ns / ACCESSES as f64);
    }

    /// Host seconds per reference second: the median of the samples over
    /// [`REFERENCE_NS`]. Host times divided by it are in reference
    /// seconds.
    pub fn slowdown(&self) -> f64 {
        median(&self.ns_per_access).map_or(1.0, |ns| ns / REFERENCE_NS)
    }

    /// Samples taken.
    pub fn samples(&self) -> usize {
        self.ns_per_access.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_the_median_sample_over_the_reference() {
        let mut c = Calibration::new();
        assert_eq!(c.slowdown(), 1.0);
        c.sample();
        assert!(c.slowdown() > 0.0);
        c.ns_per_access = vec![2.0 * REFERENCE_NS, REFERENCE_NS, 20.0 * REFERENCE_NS];
        assert_eq!(c.slowdown(), 2.0);
    }
}
