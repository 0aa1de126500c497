//! Every call the benchmark makes into the program's crates, each
//! wrapped in a span named `<layer>.<call>`. Workloads reach the
//! program only through this file, so a change to the program's entry
//! points needs edits here alone.

use std::io;
use std::net::SocketAddr;
use std::path::Path;

use osn_analysis::EventClass;
use osn_catalog::{Catalog, Client, Service, ServiceConfig, SliceResponse};
use osn_core::report::{AppReport, PaperReport};
use osn_core::{ClusterConfig, ClusterOutcome, ExperimentConfig, RunOpts, StoredRunMeta};
use osn_ftq::capture::{Capture, CaptureConfig};
use osn_ftq::ProcSnapshot;
use osn_kernel::ids::CpuId;
use osn_kernel::node::{Node, RunResult};
use osn_kernel::time::Nanos;
use osn_store::{RecoveryReport, StoreOptions, StoreReader, StoreSummary};
use osn_trace::{Event, EventMask, Trace, TraceSession};

use crate::spans::Recorder;

fn invalid(e: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

fn pretty_report(report: AppReport) -> Vec<u8> {
    serde_json::to_vec_pretty(&PaperReport { apps: vec![report] }).expect("report serializes")
}

// ---- kernel + trace -------------------------------------------------

/// One app run into an in-memory trace session with `mask`: the node
/// set-up `record_app` does, `Node::run`, then the ring drain.
pub fn simulate(
    rec: &mut Recorder,
    config: &ExperimentConfig,
    mask: EventMask,
) -> (RunResult, Trace) {
    let run_span = if mask.0 == EventMask::NONE.0 {
        "kernel.run_untraced"
    } else {
        "kernel.run"
    };
    let mut node = rec.span("kernel.spawn", |_| {
        let mut node = Node::new(config.node.clone());
        node.spawn_job(
            config.app.name(),
            osn_workloads::ranks(config.app, config.nranks, config.duration),
        );
        for (i, helper) in osn_workloads::helpers(config.app, config.duration)
            .into_iter()
            .enumerate()
        {
            node.spawn_process(&format!("python.{i}"), helper);
        }
        node
    });
    let (session, mut tracer) =
        TraceSession::new(config.node.cpus as usize, config.ring_capacity, mask);
    let result = rec.span(run_span, |_| node.run(&mut tracer));
    let trace = rec.span("trace.collect", |_| session.stop());
    (result, trace)
}

// ---- core: record / analyze glue ------------------------------------

/// Reference report bytes from the in-memory path (`run_app` +
/// `AppReport::build`), with the trace's event and loss totals.
pub fn reference_report(rec: &mut Recorder, config: ExperimentConfig) -> (Vec<u8>, u64, u64) {
    let run = rec.span("core.run_app", |_| osn_core::run_app(config));
    let json = rec.span("core.serialize", |_| pretty_report(AppReport::build(&run)));
    (
        json,
        run.trace.events.len() as u64,
        run.trace.lost.iter().sum(),
    )
}

pub fn record_app(
    rec: &mut Recorder,
    config: ExperimentConfig,
    path: &Path,
) -> io::Result<(StoredRunMeta, StoreSummary)> {
    rec.span("core.record_app", |_| {
        osn_core::record_app(config, path, StoreOptions::default())
    })
}

/// `osnoise analyze --json`: `recovered_report` plus pretty JSON.
pub fn analyze_json(rec: &mut Recorder, path: &Path) -> io::Result<(Vec<u8>, RecoveryReport)> {
    let (report, _meta, recovery) = rec.span("core.recovered_report", |_| {
        osn_core::recovered_report(path)
    })?;
    let json = rec.span("core.serialize", |_| pretty_report(report));
    Ok((json, recovery))
}

/// The same path as [`analyze_json`], one public call at a time so the
/// traced run can split it by layer. Returns the JSON and the analysis'
/// instance count.
pub fn analyze_json_split(
    rec: &mut Recorder,
    path: &Path,
) -> io::Result<(Vec<u8>, RecoveryReport, usize)> {
    let (reader, recovery) = open_store(rec, path)?;
    let meta = rec.span("core.meta", |_| {
        StoredRunMeta::from_bytes(reader.metadata())
    })?;
    let analysis = rec.span("analysis.analyze_store", |_| {
        osn_core::analyze_store(&reader, &meta.result)
    })?;
    let report = rec.span("core.report_build", |_| {
        AppReport::from_analysis(
            meta.config.app,
            &meta.ranks,
            meta.config.node.net_irq_cpu,
            &analysis,
        )
    });
    let json = rec.span("core.serialize", |_| pretty_report(report));
    Ok((json, recovery, analysis.instances.len()))
}

// ---- store ------------------------------------------------------------

pub fn write_store(
    rec: &mut Recorder,
    path: &Path,
    trace: &Trace,
    meta: &[u8],
) -> io::Result<StoreSummary> {
    rec.span("store.write_store", |_| {
        osn_store::write_store(path, trace, meta, StoreOptions::default())
    })
}

pub fn open_store(rec: &mut Recorder, path: &Path) -> io::Result<(StoreReader, RecoveryReport)> {
    rec.span("store.recover", |_| StoreReader::recover(path))
        .map_err(invalid)
}

/// Decode every chunk of every CPU through the columnar cursor, as
/// `analyze_store` does. Returns the events decoded.
pub fn decode_all(rec: &mut Recorder, reader: &StoreReader) -> u64 {
    rec.span("store.decode", |_| {
        let mut events = 0u64;
        for c in 0..reader.ncpus() {
            let mut cursor = reader.column_chunks(CpuId(c as u16));
            while let Some(Ok(cols)) = cursor.next_chunk() {
                events += cols.len() as u64;
            }
        }
        events
    })
}

// ---- catalog ------------------------------------------------------------

pub fn start_service(rec: &mut Recorder, root: &Path, threads: usize) -> io::Result<Service> {
    let mut config = ServiceConfig::new(root.to_path_buf());
    config.threads = threads;
    config.rescan = None;
    rec.span("catalog.start", |_| Service::start(config))
}

/// Cold index of `root`: every store analyzed afresh. Returns the
/// number of runs indexed.
pub fn scan_cold(rec: &mut Recorder, root: &Path) -> io::Result<usize> {
    rec.span("catalog.scan", |_| {
        osn_catalog::scan(root, &Catalog::default())
    })
    .map(|(catalog, _)| catalog.entries.len())
}

pub fn connect(addr: SocketAddr) -> io::Result<Client> {
    Client::connect(addr)
}

/// One HTTP GET, spanned as `span` (one name per endpoint).
pub fn get(
    rec: &mut Recorder,
    span: &'static str,
    client: &mut Client,
    target: &str,
) -> io::Result<(u16, Vec<u8>)> {
    rec.span(span, |_| client.get(target))
}

/// The `/slice` library path on an open reader. Returns the events and
/// the chunks decoded.
pub fn slice_events(
    rec: &mut Recorder,
    reader: &StoreReader,
    t0: u64,
    t1: u64,
    class: Option<EventClass>,
) -> (Vec<Event>, usize, usize) {
    rec.span("catalog.slice_events", |_| {
        osn_catalog::slice_events(reader, Nanos(t0), Nanos(t1), None, class)
    })
}

/// Pretty JSON of a slice response, as the endpoint writes it.
pub fn slice_json(rec: &mut Recorder, response: &SliceResponse) -> Vec<u8> {
    rec.span("catalog.slice_serialize", |_| {
        serde_json::to_vec_pretty(response).expect("slice serializes")
    })
}

// ---- cluster --------------------------------------------------------------

/// `osnoise cluster --json`: the campaign plus its pretty report.
pub fn run_cluster(rec: &mut Recorder, config: &ClusterConfig) -> (ClusterOutcome, Vec<u8>) {
    let outcome = rec.span("cluster.run", |_| {
        osn_core::run_cluster_opts(config, RunOpts::default())
    });
    let json = rec.span("core.serialize", |_| {
        serde_json::to_vec_pretty(&outcome.report).expect("cluster report serializes")
    });
    (outcome, json)
}

/// One planned node's simulation, as the cluster engine runs it.
pub fn node_simulation(rec: &mut Recorder, config: &ClusterConfig, index: usize) -> u64 {
    rec.span("cluster.node_sim", |_| {
        osn_core::run_app(config.node_experiment(index))
            .trace
            .events
            .len() as u64
    })
}

// ---- ftq + capture glue ------------------------------------------------------

pub fn run_capture(rec: &mut Recorder, duration: Nanos, quantum: Nanos) -> Capture {
    let cfg = CaptureConfig {
        duration,
        quantum,
        ..CaptureConfig::default()
    };
    rec.span("ftq.capture", |_| osn_ftq::run_capture(cfg))
}

pub fn write_capture(
    rec: &mut Recorder,
    capture: &Capture,
    path: &Path,
) -> io::Result<StoreSummary> {
    rec.span("core.write_capture", |_| {
        osn_core::write_capture(capture, path, StoreOptions::default())
    })
    .map(|(_, summary)| summary)
}

/// Out-of-core report of a store: its pretty JSON.
pub fn streamed_report(rec: &mut Recorder, path: &Path) -> io::Result<Vec<u8>> {
    let (report, _meta) = rec.span("core.streamed_report", |_| osn_core::streamed_report(path))?;
    Ok(rec.span("core.serialize", |_| pretty_report(report)))
}

pub fn proc_snapshot(rec: &mut Recorder) -> io::Result<ProcSnapshot> {
    rec.span("ftq.snapshot", |_| ProcSnapshot::read())
}

pub fn schedstat_readable() -> bool {
    ProcSnapshot::schedstat_available()
}
