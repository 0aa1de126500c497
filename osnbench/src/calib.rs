//! Host-speed calibration. The benchmark's host is a few vCPUs of a
//! shared machine whose speed moves by a third and more between phases
//! that last minutes, mostly with no steal time counted, so two runs of
//! the same code can differ by more than a regression bound. A run
//! therefore times a fixed piece of work of the benchmark's own — a burst
//! — between its units and reports its end-to-end timings at the host
//! speed [`REF_BURST_S`] stands for: times are multiplied and rates
//! divided by the host's speed relative to it. The burst runs no code of
//! the program, so a change to the program moves the scaled figures
//! exactly as it moves the raw ones.
//!
//! The burst fills a buffer larger than a last-level cache and walks it in
//! a scattered order on one thread. Over 19 runs per workload in a noisy
//! phase of the host, scaling by its median cut every timing metric's
//! spread (first to third quartile over the median, worst ten-run window)
//! from 0.17–0.22 to 0.02–0.11. A sort-and-hash burst, the same bursts on
//! two threads, and the geometric means of pairs of them did no better.
//!
//! Two speeds come from the same bursts. In phases where the host stalls
//! the VM (steal), most stalls miss both a typical request and a typical
//! burst, so the latency percentiles scale with the median burst; totals
//! of work over time, and set-up, absorb every stall, and scale with the
//! mean burst. Over six sets of five to ten runs, one of them with
//! 40–50% stalls, the worst spread with the median alone was 0.23
//! (`analyze_events_per_s`); with the split it was 0.14.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::stats;

/// Median burst wall time at the reference host speed (a 2-vCPU shared
/// VM); it only fixes the scale of the reported figures.
pub const REF_BURST_S: f64 = 0.025;
/// Least time between bursts; a burst runs before the next unit after it.
const INTERVAL: Duration = Duration::from_millis(500);
/// Words in the burst's buffer (16 MiB).
const WORDS: usize = 1 << 21;

#[derive(Default)]
pub struct Calib {
    bursts: Vec<f64>,
    last: Option<Instant>,
}

impl Calib {
    /// Time one burst.
    pub fn burst(&mut self) {
        let start = Instant::now();
        black_box(walk());
        self.bursts.push(start.elapsed().as_secs_f64());
        self.last = Some(Instant::now());
    }

    /// A burst, if [`INTERVAL`] has passed since the last one.
    pub fn maybe(&mut self) {
        if self.last.map_or(true, |t| t.elapsed() >= INTERVAL) {
            self.burst();
        }
    }

    /// Host speed relative to the reference from the median burst, the
    /// way a percentile of request latency sees it: below 1 on a slow
    /// host.
    pub fn speed(&self) -> f64 {
        speed_of(&self.bursts)
    }

    /// Host speed from the total burst time, the way a total of work
    /// over time sees it: a stall of the host counts in both.
    pub fn total_speed(&self) -> f64 {
        total_speed_of(&self.bursts)
    }

    /// The speed each burst alone gives, for the spread output.
    pub fn samples(&self) -> Vec<f64> {
        self.bursts.iter().map(|b| REF_BURST_S / b).collect()
    }
}

/// [`REF_BURST_S`] over the median burst time (1 with no bursts).
pub fn speed_of(bursts: &[f64]) -> f64 {
    if bursts.is_empty() {
        return 1.0;
    }
    REF_BURST_S / stats::median(&stats::sorted(bursts))
}

/// [`REF_BURST_S`] over the mean burst time (1 with no bursts).
pub fn total_speed_of(bursts: &[f64]) -> f64 {
    if bursts.is_empty() {
        return 1.0;
    }
    REF_BURST_S * bursts.len() as f64 / bursts.iter().sum::<f64>()
}

/// Fill a fresh buffer, then visit every word once in a scattered order
/// (an odd stride over a power-of-two length), each visit depending on
/// the last.
fn walk() -> u64 {
    let mut words = vec![1u64; WORDS];
    let mut acc = 0u64;
    for i in 0..WORDS {
        let j = i.wrapping_mul(7919) & (WORDS - 1);
        acc = acc.wrapping_add(words[j]);
        words[j] ^= acc & 1;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_is_reference_over_median_burst() {
        assert_eq!(speed_of(&[]), 1.0);
        let slow = [REF_BURST_S * 2.0, REF_BURST_S * 2.0, REF_BURST_S * 11.0];
        assert!((speed_of(&slow) - 0.5).abs() < 1e-12);
        assert_eq!(total_speed_of(&[]), 1.0);
        assert!((total_speed_of(&slow) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn maybe_waits_for_the_interval() {
        let mut c = Calib::default();
        c.burst();
        c.maybe();
        assert_eq!(c.samples().len(), 1);
        assert!(c.speed() > 0.0);
    }
}
