//! The frozen reference: a scalar squared-L2 scan that calls nothing from the
//! workspace, so no later change to the product can move it.
//!
//! Two jobs. [`HostProbe`] times a fixed amount of scanning on every core:
//! if that time differs between two runs, the host moved, not the program,
//! and the timing metrics are scaled by it. And a sample of the product's
//! brute-force truth is re-derived with [`knn`], so the oracle every answer
//! is checked against is itself checked by code the product cannot touch.

use std::hint::black_box;
use std::time::Instant;

/// Squared Euclidean distance, f32 differences widened to f64 and summed in
/// order. Deliberately plain: this is a yardstick, not a kernel.
#[inline(never)]
pub fn squared_l2(a: &[f32], b: &[f32]) -> f64 {
    let mut sum = 0.0f64;
    for (x, y) in a.iter().zip(b) {
        let d = f64::from(x - y);
        sum += d * d;
    }
    sum
}

/// The `k` nearest points by one full scan: `(index, distance)` ascending by
/// distance then index, distances as square roots (Euclidean).
pub fn knn(flat: &[f32], dim: usize, query: &[f32], k: usize) -> Vec<(usize, f64)> {
    let mut all: Vec<(usize, f64)> = flat
        .chunks_exact(dim)
        .enumerate()
        .map(|(i, row)| (i, squared_l2(row, query)))
        .collect();
    let k = k.min(all.len());
    if k == 0 {
        return Vec::new();
    }
    let by_dist_then_index =
        |a: &(usize, f64), b: &(usize, f64)| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0));
    all.select_nth_unstable_by(k - 1, by_dist_then_index);
    all.truncate(k);
    all.sort_by(by_dist_then_index);
    all.into_iter().map(|(i, d2)| (i, d2.sqrt())).collect()
}

/// Squared distance in f32, written so the compiler vectorises it: the host
/// probe's inner loop. Like the product's kernels it streams the database
/// faster than it computes, so it slows down when a neighbour takes memory
/// bandwidth as well as when one takes cycles. Not used for truth.
#[inline(always)]
fn squared_l2_f32(a: &[f32], b: &[f32]) -> f32 {
    let mut lanes = [0.0f32; 8];
    for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        for i in 0..8 {
            let d = x[i] - y[i];
            lanes[i] += d * d;
        }
    }
    lanes.iter().sum()
}

/// Smallest f32 squared distance from `query` to a row of `flat`.
#[inline(never)]
fn nearest_f32(flat: &[f32], dim: usize, query: &[f32]) -> f32 {
    flat.chunks_exact(dim)
        .map(|row| squared_l2_f32(row, query))
        .fold(f32::INFINITY, f32::min)
}

/// What a probe reads on the reference host: the timing metrics are scaled
/// to a machine that scans a point in this many nanoseconds. (The sandbox the
/// benchmark was written on reads 5.1–6.3 in its quiet phases, more for the
/// larger databases that leave its cache, and up to 40 % more in noisy ones.)
pub const REF_NS_PER_POINT: f64 = 6.0;

/// Points one thread of a host probe scans: enough that thread start-up is
/// noise (a few milliseconds at the reference speed).
const PROBE_POINTS: usize = 1_600_000;

/// How fast is the host right now? One probe runs the frozen scan on every
/// hardware thread at once (interference may take either core) over the
/// workload's own database, a fixed number of points per thread.
pub struct HostProbe<'a> {
    flat: &'a [f32],
    dim: usize,
    passes: usize,
    threads: usize,
}

impl<'a> HostProbe<'a> {
    pub fn new(flat: &'a [f32], dim: usize) -> Self {
        let points = flat.len() / dim;
        Self {
            flat,
            dim,
            passes: PROBE_POINTS.div_ceil(points).max(1),
            threads: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        }
    }

    /// Points each thread scans in one probe.
    pub fn points_per_probe(&self) -> usize {
        self.passes * (self.flat.len() / self.dim)
    }

    /// One probe; nanoseconds per point scanned by a thread.
    pub fn ns_per_point(&self) -> f64 {
        let points = self.flat.len() / self.dim;
        let start = Instant::now();
        std::thread::scope(|scope| {
            for thread in 0..self.threads {
                scope.spawn(move || {
                    for pass in 0..self.passes {
                        let row = (thread * 7919 + pass * 104_729) % points;
                        let query = &self.flat[row * self.dim..(row + 1) * self.dim];
                        black_box(nearest_f32(self.flat, self.dim, query));
                    }
                });
            }
        });
        start.elapsed().as_nanos() as f64 / self.points_per_probe() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_probe_scans_a_fixed_number_of_points_whatever_the_database() {
        let small = vec![0.5f32; 1000 * 4];
        let probe = HostProbe::new(&small, 4);
        assert_eq!(probe.passes, 1600);
        assert!(probe.ns_per_point() > 0.0);
        let large = vec![0.5f32; 2_000_000 * 2];
        assert_eq!(HostProbe::new(&large, 2).passes, 1);
    }

    #[test]
    fn knn_orders_by_distance_then_index() {
        // Points (i, 0) for i in 0..10.
        let flat: Vec<f32> = (0..10).flat_map(|i| [i as f32, 0.0]).collect();
        let got = knn(&flat, 2, &[3.2, 0.0], 3);
        assert_eq!(got.iter().map(|p| p.0).collect::<Vec<_>>(), vec![3, 4, 2]);
        assert!((got[0].1 - 0.2).abs() < 1e-6);
        // Equidistant points come back lowest index first.
        let tie = knn(&flat, 2, &[3.5, 0.0], 2);
        assert_eq!(tie.iter().map(|p| p.0).collect::<Vec<_>>(), vec![3, 4]);
        assert!(knn(&flat, 2, &[0.0, 0.0], 0).is_empty());
    }
}
