//! `pipeline`: the paper's batch run. Each app is recorded into an
//! `.osn` store while it simulates, then analyzed back out-of-core into
//! the pretty report JSON (`osnoise record` + `osnoise analyze --json`).
//! AMG is page-fault heavy, UMT the largest in events and helper
//! processes, SPHOT light, so both per-event and fixed costs show. A
//! unit is one app; units cycle through the apps.

use std::path::{Path, PathBuf};
use std::time::Instant;

use osn_core::ExperimentConfig;
use osn_kernel::time::Nanos;
use osn_trace::EventMask;
use osn_workloads::App;

use crate::layers;
use crate::outcome::{Ctx, Outcome};
use crate::spans::{self, Recorder};
use crate::{stats, Family, Role};

const SIM: Nanos = Nanos::from_secs(10);
/// The probe runs the same apps and only fewer units: SPHOT alone, in
/// units a fifth as long, moved twice as much between runs.
const APPS: [App; 3] = [App::Amg, App::Umt, App::Sphot];
/// Unit ids at or above this are layer units (traced run only).
const LAYER_BASE: u64 = 1 << 32;

struct Input {
    config: ExperimentConfig,
    path: PathBuf,
    /// Report bytes from the in-memory reference run.
    expected: Vec<u8>,
    events: u64,
}

struct UnitRec {
    app: usize,
    events: u64,
    bytes: u64,
    record_s: f64,
    analyze_s: f64,
    wall_s: f64,
    traced: bool,
    report_bytes: usize,
    instances: usize,
}

/// Counts from one pass of layer units over the apps.
#[derive(Default)]
struct LayerCounts {
    loop_events: u64,
    trace_events: u64,
    lost: u64,
    write_bytes: u64,
    chunks: u64,
    decoded: u64,
    peak_resident: u64,
    decode_errors: u64,
}

pub struct Pipeline {
    role: Role,
    trace: bool,
    inputs: Vec<Input>,
    scratch: PathBuf,
    rec: Recorder,
    units: Vec<UnitRec>,
}

impl Pipeline {
    /// Runs each app in memory once for the reference report bytes the
    /// units are checked against.
    pub fn setup(ctx: &mut Ctx, role: Role) -> Result<Pipeline, String> {
        let dir = ctx.work.join(format!("pipeline-{role:?}"));
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let mut off = Recorder::new(false);
        let mut inputs = Vec::with_capacity(APPS.len());
        for (i, &app) in APPS.iter().enumerate() {
            let config = ExperimentConfig::paper(app, SIM).with_seed(ctx.derive(i as u64));
            let (expected, events, lost) = layers::reference_report(&mut off, config.clone());
            ctx.out.check(lost == 0, || {
                format!("pipeline: reference {} lost {lost} events", app.name())
            });
            inputs.push(Input {
                config,
                path: dir.join(format!("{}.osn", app.name())),
                expected,
                events,
            });
        }
        Ok(Pipeline {
            role,
            trace: ctx.trace,
            inputs,
            scratch: dir.join("written.osn"),
            rec: ctx.recorder(1),
            units: Vec::new(),
        })
    }

    fn napps(&self) -> usize {
        self.inputs.len()
    }

    /// Σ over apps of the median time (ms) of the spans named `name` in
    /// that app's end-to-end (`layer` false) or layer units.
    fn per_app_ms(&self, name: &str, layer: bool) -> f64 {
        let n = self.napps() as u64;
        let mut by_app = vec![Vec::new(); self.napps()];
        for s in self.rec.spans().iter().filter(|s| s.name == name) {
            if (s.unit >= LAYER_BASE) == layer {
                by_app[(s.unit % n) as usize].push(s.dur_ns() as f64 / 1e6);
            }
        }
        sum_of_medians(&by_app)
    }
}

fn sum_of_medians(groups: &[Vec<f64>]) -> f64 {
    groups
        .iter()
        .filter(|v| !v.is_empty())
        .map(|v| stats::median(&stats::sorted(v)))
        .sum()
}

/// Time each layer alone for one app: the simulation into an in-memory
/// session with and without probes, a columnar decode of the recorded
/// store, and writing the in-memory trace as a store.
fn layer_unit(
    rec: &mut Recorder,
    input: &Input,
    scratch: &Path,
    c: &mut LayerCounts,
) -> Result<(), String> {
    let (result, trace) = layers::simulate(rec, &input.config, EventMask::ALL);
    drop(layers::simulate(rec, &input.config, EventMask::NONE));
    c.loop_events += result.stats.loop_events;
    c.trace_events += trace.events.len() as u64;
    c.lost += trace.lost.iter().sum::<u64>();
    let (reader, _) = layers::open_store(rec, &input.path).map_err(|e| e.to_string())?;
    c.decoded += layers::decode_all(rec, &reader);
    let stats = reader.stats();
    c.peak_resident = c.peak_resident.max(stats.peak_resident as u64);
    c.decode_errors += stats.decode_errors as u64;
    let summary =
        layers::write_store(rec, scratch, &trace, reader.metadata()).map_err(|e| e.to_string())?;
    c.write_bytes += summary.bytes;
    c.chunks += summary.chunks as u64;
    Ok(())
}

impl Family for Pipeline {
    /// Record one app and analyze it back; check the report bytes, the
    /// event count, and that the store needed no recovery. A traced
    /// unit takes the same path one public call at a time; on the home
    /// workload every other pass over the apps runs untraced, as the
    /// baseline for the tracing overhead.
    fn unit(&mut self, out: &mut Outcome) -> Result<(), String> {
        let id = self.units.len();
        let app = id % self.napps();
        let traced = self.trace && (self.role == Role::Probe || (id / self.napps()) % 2 == 1);
        let input = &self.inputs[app];
        self.rec.set_on(traced);
        let start = Instant::now();
        let result = self
            .rec
            .unit("unit.pipeline", id as u64, |rec| -> Result<_, String> {
                let t = Instant::now();
                let (_meta, summary) = layers::record_app(rec, input.config.clone(), &input.path)
                    .map_err(|e| e.to_string())?;
                let record_s = t.elapsed().as_secs_f64();
                let t = Instant::now();
                let (json, recovery, instances) = if traced {
                    layers::analyze_json_split(rec, &input.path)
                } else {
                    layers::analyze_json(rec, &input.path).map(|(j, r)| (j, r, 0))
                }
                .map_err(|e| e.to_string())?;
                let ok =
                    json == input.expected && summary.events == input.events && recovery.clean();
                Ok((
                    summary,
                    record_s,
                    t.elapsed().as_secs_f64(),
                    json.len(),
                    instances,
                    ok,
                ))
            });
        let wall_s = start.elapsed().as_secs_f64();
        self.rec.set_on(self.trace);
        let (summary, record_s, analyze_s, report_bytes, instances, ok) = result?;
        out.check(ok, || {
            format!(
                "pipeline: {} report, event count {}/{} or recovery differs from the reference",
                input.config.app.name(),
                summary.events,
                input.events
            )
        });
        self.units.push(UnitRec {
            app,
            events: summary.events,
            bytes: summary.bytes,
            record_s,
            analyze_s,
            wall_s,
            traced,
            report_bytes,
            instances,
        });
        Ok(())
    }

    fn ready(&self) -> bool {
        self.units.len() >= self.napps()
    }

    fn finish(mut self: Box<Self>, ctx: &mut Ctx) -> Result<(), String> {
        let units = &self.units;
        let sum = |f: &dyn Fn(&UnitRec) -> f64| units.iter().map(f).sum::<f64>();
        let per = |f: &dyn Fn(&UnitRec) -> f64| units.iter().map(f).collect::<Vec<f64>>();
        if !self.trace {
            let events = sum(&|u| u.events as f64);
            let out = &mut ctx.out;
            out.ratio(
                "record_events_per_s",
                events / sum(&|u| u.record_s),
                per(&|u| u.events as f64 / u.record_s),
            );
            out.ratio(
                "analyze_events_per_s",
                events / sum(&|u| u.analyze_s),
                per(&|u| u.events as f64 / u.analyze_s),
            );
            out.ratio(
                "store_bytes_per_event",
                sum(&|u| u.bytes as f64) / events,
                per(&|u| u.bytes as f64 / u.events as f64),
            );
            ctx.keep(self.rec);
            return Ok(());
        }

        // Layer units: one pass over the apps (two on the home run).
        let passes = if self.role == Role::Home { 2 } else { 1 };
        let n = self.napps();
        let mut counts = Vec::with_capacity(passes);
        for p in 0..passes {
            let mut c = LayerCounts::default();
            for (app, input) in self.inputs.iter().enumerate() {
                let id = LAYER_BASE + (p * n + app) as u64;
                self.rec.unit("unit.pipeline_layers", id, |rec| {
                    layer_unit(rec, input, &self.scratch, &mut c)
                })?;
            }
            counts.push(c);
        }
        let col = |f: &dyn Fn(&LayerCounts) -> u64| {
            counts.iter().map(|c| f(c) as f64).collect::<Vec<f64>>()
        };
        let by_app = |f: &dyn Fn(&UnitRec) -> f64, traced: bool| -> Vec<Vec<f64>> {
            (0..n)
                .map(|a| {
                    self.units
                        .iter()
                        .filter(|u| u.app == a && u.traced == traced)
                        .map(f)
                        .collect()
                })
                .collect()
        };
        let med = |v: &[f64]| stats::median(&stats::sorted(v));
        let sim = self.per_app_ms("kernel.run", true);
        let untraced = self.per_app_ms("kernel.run_untraced", true);
        let write = self.per_app_ms("store.write_store", true);
        let decode = self.per_app_ms("store.decode", true);
        let analyze = self.per_app_ms("analysis.analyze_store", false);
        let loop_events = col(&|c| c.loop_events);
        let bytes = col(&|c| c.write_bytes);
        let out = &mut ctx.out;
        out.value("kernel.sim_ms", sim);
        out.value("kernel.untraced_sim_ms", untraced);
        out.value("kernel.events_per_s", med(&loop_events) / (sim / 1e3));
        out.median("kernel.loop_events", loop_events);
        out.value("trace.probe_ms", sim - untraced);
        out.value(
            "trace.spill_ms",
            self.per_app_ms("core.record_app", false) - sim,
        );
        out.median("trace.events", col(&|c| c.trace_events));
        out.median("trace.lost", col(&|c| c.lost));
        out.value("store.write_ms", write);
        out.value("store.write_mb_per_s", med(&bytes) / 1e6 / (write / 1e3));
        out.median("store.bytes", bytes);
        out.median("store.chunks", col(&|c| c.chunks));
        out.value("store.open_ms", self.per_app_ms("store.recover", false));
        out.value("store.decode_ms", decode);
        out.value(
            "store.decode_events_per_s",
            med(&col(&|c| c.decoded)) / (decode / 1e3),
        );
        out.median("store.peak_resident_chunks", col(&|c| c.peak_resident));
        out.median("store.decode_errors", col(&|c| c.decode_errors));
        out.value("analysis.analyze_ms", analyze);
        out.value("analysis.self_ms", analyze - decode);
        out.value(
            "analysis.instances",
            sum_of_medians(&by_app(&|u| u.instances as f64, true)),
        );
        out.value(
            "core.report_build_ms",
            self.per_app_ms("core.report_build", false),
        );
        out.value(
            "core.serialize_ms",
            self.per_app_ms("core.serialize", false),
        );
        out.value(
            "core.report_bytes",
            sum_of_medians(&by_app(&|u| u.report_bytes as f64, true)),
        );
        if self.role == Role::Home {
            let traced = sum_of_medians(&by_app(&|u| u.wall_s, true));
            let untraced = sum_of_medians(&by_app(&|u| u.wall_s, false));
            out.value("bench.trace_overhead_frac", traced / untraced - 1.0);
            let mut cov = spans::coverage(self.rec.spans(), "unit.pipeline");
            cov.extend(spans::coverage(self.rec.spans(), "unit.pipeline_layers"));
            out.median("bench.coverage_frac", cov);
        }
        ctx.keep(self.rec);
        Ok(())
    }
}
