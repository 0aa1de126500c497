//! `capture`: native FTQ capture on the real host (0.5 s at a 1 ms
//! quantum), written as a `.osn` store and re-analyzed out-of-core. The
//! only workload that measures the host rather than the simulator, and
//! the only one where the recorder's probe cost shows. It has no
//! end-to-end metric, so it runs only as a probe in traced runs. A unit
//! is one capture.

use std::path::PathBuf;
use std::time::Instant;

use osn_ftq::capture::CaptureReport;
use osn_kernel::time::Nanos;

use crate::layers;
use crate::outcome::{Ctx, Outcome};
use crate::spans::{self, Recorder};
use crate::Family;

const QUANTUM: Nanos = Nanos::from_millis(1);
const DURATION: Nanos = Nanos::from_millis(500);
/// Set-up warms the procfs readers and the spin loop with a short
/// capture.
const WARMUP: Nanos = Nanos::from_millis(100);
/// `ProcSnapshot::read` calls timed in the traced run: enough for a p99
/// with ten samples beyond it.
const SNAPSHOTS: usize = 1000;

pub struct Capture {
    path: PathBuf,
    rec: Recorder,
    /// Each unit's capture report.
    units: Vec<CaptureReport>,
}

impl Capture {
    pub fn setup(ctx: &mut Ctx) -> Result<Capture, String> {
        let mut off = Recorder::new(false);
        layers::proc_snapshot(&mut off).map_err(|e| format!("procfs: {e}"))?;
        std::hint::black_box(layers::run_capture(&mut off, WARMUP, QUANTUM));
        Ok(Capture {
            path: ctx.work.join("capture.osn"),
            rec: ctx.recorder(40),
            units: Vec::new(),
        })
    }
}

impl Family for Capture {
    /// Capture, write the store, re-analyze it; check that the store
    /// holds every captured event and analyzes.
    fn unit(&mut self, out: &mut Outcome) -> Result<(), String> {
        let k = self.units.len() as u64;
        let path = &self.path;
        let result = self
            .rec
            .unit("unit.capture", k, |rec| -> Result<_, String> {
                let capture = layers::run_capture(rec, DURATION, QUANTUM);
                let summary =
                    layers::write_capture(rec, &capture, path).map_err(|e| e.to_string())?;
                let analyzed = layers::streamed_report(rec, path);
                Ok((capture, summary, analyzed))
            });
        let (capture, summary, analyzed) = result?;
        let captured = capture.events.len() as u64;
        out.check(analyzed.is_ok() && summary.events == captured, || {
            format!(
                "capture: stored {} of {captured} events, re-analysis {:?}",
                summary.events,
                analyzed.as_ref().err()
            )
        });
        self.units.push(capture.report);
        Ok(())
    }

    fn ready(&self) -> bool {
        self.units.iter().any(|r| r.gaps > 0)
    }

    fn finish(mut self: Box<Self>, ctx: &mut Ctx) -> Result<(), String> {
        // The capture's metrics are all per-layer: the per-gap probe cost
        // includes whatever host noise lands inside the procfs read, and
        // moved by a quarter between runs on a shared host.
        let reports = &self.units;
        let overhead: f64 = reports
            .iter()
            .map(|r| r.probe_overhead.as_nanos() as f64)
            .sum();
        let gaps: f64 = reports.iter().map(|r| r.gaps as f64).sum();
        let per_unit = reports
            .iter()
            .filter(|r| r.gaps > 0)
            .map(|r| r.probe_overhead.as_nanos() as f64 / r.gaps as f64 / 1e3)
            .collect();
        ctx.out
            .ratio("ftq.probe_us_per_gap", overhead / gaps / 1e3, per_unit);

        let mut snapshot_us = Vec::with_capacity(SNAPSHOTS);
        self.rec
            .unit("unit.capture_layers", 0, |rec| -> Result<(), String> {
                for _ in 0..SNAPSHOTS {
                    let t = Instant::now();
                    layers::proc_snapshot(rec).map_err(|e| format!("procfs: {e}"))?;
                    snapshot_us.push(t.elapsed().as_secs_f64() * 1e6);
                }
                Ok(())
            })?;
        let col = |f: &dyn Fn(&CaptureReport) -> f64| reports.iter().map(f).collect::<Vec<f64>>();
        let out = &mut ctx.out;
        out.median("ftq.snapshot_p50_us", snapshot_us.clone());
        out.percentile("ftq.snapshot_p99_us", snapshot_us, 99.0);
        out.median("ftq.gaps", col(&|r| r.gaps as f64));
        out.median("ftq.quanta", col(&|r| r.quanta as f64));
        out.median(
            "ftq.overhead_frac",
            col(&|r| r.probe_overhead_per_quantum.as_nanos() as f64 / r.quantum.as_nanos() as f64),
        );
        out.median("ftq.classified_frac", col(&|r| r.classified_fraction));
        out.median("ftq.sample_errors", col(&|r| r.sample_errors as f64));
        out.median(
            "ftq.write_ms",
            spans::durations_ms(self.rec.spans(), "core.write_capture"),
        );
        ctx.keep(self.rec);
        Ok(())
    }
}
