//! `catalog`: an in-process `osn-catalog` service over two recorded
//! stores, driven by two keep-alive clients in a closed loop with no
//! think time (catalog callers wait for each reply). Each cycle sends
//! every bulk query once and every point query equally often, about ten
//! point queries to one bulk query. Slices seek chunk ranges in the
//! store instead of scanning it, so this reads the store layer
//! differently from `pipeline`. A unit is one cycle of the mix on each
//! client at once.

use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::Instant;

use osn_analysis::EventClass;
use osn_catalog::{Client, RunsResponse, Service, SliceResponse, StatsResponse};
use osn_core::ExperimentConfig;
use osn_kernel::time::Nanos;
use osn_workloads::App;

use crate::layers;
use crate::outcome::{Ctx, Outcome, ENDPOINTS};
use crate::spans::{self, Recorder};
use crate::{Family, Role};

/// Stores served: the bulk slice's store, then the class slice's; both
/// are exported to Paraver. The probe serves the same stores and mix as the home workload
/// and only runs fewer units: on smaller stores the queries shrink to
/// where scheduling jitter, not the service, sets the tail latencies.
const STORES: [App; 2] = [App::Amg, App::Sphot];
const SIM: Nanos = Nanos::from_secs(10);
const CLIENTS: usize = 2;
/// Server worker threads, one per client connection: a worker serves
/// one keep-alive connection until it closes, so requests made after
/// set-up reuse the first client's connection. Each worker holds its
/// own allocator arena, and with spare workers the peak RSS split
/// between runs by which arenas the connections met.
const SERVER_THREADS: usize = CLIENTS;
/// Samples a run needs: enough for a p99 of point queries and a p90 of
/// bulk ones with ten samples beyond each.
const MIN_POINT: usize = 1000;
const MIN_BULK: usize = 100;
/// Home cycles that open the run sending only the bulk queries, each in
/// step on every client: rounds of the worst case the mix reaches, every
/// bulk query on both connections at once, so that the peak RSS read
/// after the alone phase holds it rather than whether shuffled cycles
/// happened to line two bulk queries up. Their latencies are not sampled.
const LOCKSTEP_CYCLES: u64 = 8;
/// Sequential requests per endpoint in the traced per-endpoint pass.
const PASS_POINT: usize = 30;
const PASS_BULK: usize = 8;

/// Span name of each endpoint's client call, in [`ENDPOINTS`] order.
const SPAN_NAMES: [&str; 8] = [
    "catalog.runs",
    "catalog.report",
    "catalog.slice",
    "catalog.slice_class",
    "catalog.histogram",
    "catalog.compare",
    "catalog.stats",
    "catalog.paraver",
];

/// `/stats` path of each endpoint, in [`ENDPOINTS`] order.
const STATS_NAMES: [&str; 8] = [
    "/runs",
    "/runs/{id}/report",
    "/runs/{id}/slice",
    "/runs/{id}/slice",
    "/runs/{id}/histogram",
    "/compare",
    "/stats",
    "/runs/{id}/paraver",
];

#[derive(Clone)]
enum Expect {
    /// Body equal to these bytes.
    Bytes(Vec<u8>),
    /// A slice whose `count` is this.
    Count(usize),
    /// Any 200 response.
    Ok,
}

struct Query {
    target: String,
    /// Index into [`ENDPOINTS`].
    endpoint: usize,
    bulk: bool,
    expect: Expect,
}

/// One answered (or failed) request.
struct Sample {
    bulk: bool,
    ms: f64,
    traced: bool,
}

/// One client connection with its own shuffle and span recorder.
struct Conn {
    client: Client,
    rng: u64,
    order: Vec<usize>,
    rec: Recorder,
}

pub struct Catalog {
    role: Role,
    trace: bool,
    /// Dropped before the service: its workers serve these connections
    /// until they close.
    conns: Vec<Conn>,
    /// Held only to keep the service running.
    _service: Service,
    queries: Vec<Query>,
    /// The bulk slice's store and window, for the library-path timing.
    bulk_store: PathBuf,
    window: (u64, u64),
    dir: PathBuf,
    samples: Vec<Sample>,
    /// Σ wall time and requests of the untraced units.
    wall_s: f64,
    requests: usize,
    cycles: u64,
}

fn endpoint(name: &str) -> usize {
    ENDPOINTS
        .iter()
        .position(|e| *e == name)
        .expect("known endpoint")
}

/// The first `"count": N` of a slice body (it precedes the events).
fn slice_count(body: &[u8]) -> Option<usize> {
    let key = b"\"count\": ";
    let at = body.windows(key.len()).position(|w| w == key)? + key.len();
    let digits: Vec<u8> = body[at..]
        .iter()
        .take_while(|b| b.is_ascii_digit())
        .copied()
        .collect();
    std::str::from_utf8(&digits).ok()?.parse().ok()
}

/// Check one reply against its query; returns the body size and, on a
/// failed check, why.
fn judge(q: &Query, reply: std::io::Result<(u16, Vec<u8>)>) -> (usize, Option<String>) {
    let (status, body) = match reply {
        Ok(r) => r,
        Err(e) => return (0, Some(format!("{}: {e}", q.target))),
    };
    let ok = status == 200
        && match &q.expect {
            Expect::Bytes(b) => body == *b,
            Expect::Count(n) => slice_count(&body) == Some(*n),
            Expect::Ok => true,
        };
    let error = (!ok).then(|| format!("{} answered {status} with an unexpected body", q.target));
    (body.len(), error)
}

/// xorshift64* step: a value below `n`.
fn below(state: &mut u64, n: usize) -> usize {
    *state ^= *state >> 12;
    *state ^= *state << 25;
    *state ^= *state >> 27;
    (state.wrapping_mul(0x2545_f491_4f6c_dd1d) % n as u64) as usize
}

/// A quarter of the store's span, starting a quarter in.
fn quarter(path: &Path) -> Result<(osn_store::StoreReader, u64, u64), String> {
    let (reader, _) =
        layers::open_store(&mut Recorder::new(false), path).map_err(|e| e.to_string())?;
    let (start, end) = reader.span().ok_or("empty store")?;
    let q = (end.as_nanos() - start.as_nanos()) / 4;
    let t0 = start.as_nanos() + q;
    Ok((reader, t0, t0 + q))
}

impl Catalog {
    /// Record both stores, compute the offline answers the replies are
    /// checked against, start the service, and send every query once
    /// (which fills the analysis cache before anything is timed).
    pub fn setup(ctx: &mut Ctx, role: Role) -> Result<Catalog, String> {
        let dir = ctx.work.join(format!("catalog-{role:?}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let mut off = Recorder::new(false);
        let mut paths = Vec::new();
        let mut reports = Vec::new();
        for (i, app) in STORES.iter().enumerate() {
            let config = ExperimentConfig::paper(*app, SIM).with_seed(ctx.derive(10 + i as u64));
            let path = dir.join(format!("{}-{i}.osn", app.name()));
            layers::record_app(&mut off, config, &path).map_err(|e| e.to_string())?;
            reports.push(
                layers::analyze_json(&mut off, &path)
                    .map_err(|e| e.to_string())?
                    .0,
            );
            paths.push(path);
        }
        let (big, t0, t1) = quarter(&paths[0])?;
        let bulk_count = layers::slice_events(&mut off, &big, t0, t1, None).0.len();
        let (small, s0, s1) = quarter(&paths[1])?;
        let class_count =
            layers::slice_events(&mut off, &small, s0, s1, Some(EventClass::TimerInterrupt))
                .0
                .len();

        let service =
            layers::start_service(&mut off, &dir, SERVER_THREADS).map_err(|e| e.to_string())?;
        let mut client = layers::connect(service.addr()).map_err(|e| e.to_string())?;
        let (status, body) = layers::get(&mut off, "catalog.runs", &mut client, "/runs")
            .map_err(|e| e.to_string())?;
        if status != 200 {
            return Err(format!("/runs answered {status}"));
        }
        let runs: RunsResponse = serde_json::from_slice(&body).map_err(|e| e.to_string())?;
        let id_of = |path: &Path| -> Result<String, String> {
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default();
            runs.runs
                .iter()
                .find(|r| r.path == name)
                .map(|r| r.id.clone())
                .ok_or_else(|| format!("{name} not indexed"))
        };
        let (a, b) = (id_of(&paths[0])?, id_of(&paths[1])?);

        // Every query the workload names is sent equally often within
        // its class; point queries are repeated only so that a run
        // reaches its point and bulk sample minimums in the same number
        // of cycles.
        let bulk = [
            (
                format!("/runs/{a}/slice?t0={t0}&t1={t1}"),
                "slice",
                Expect::Count(bulk_count),
            ),
            (format!("/runs/{a}/paraver"), "paraver", Expect::Ok),
            (format!("/runs/{b}/paraver"), "paraver", Expect::Ok),
        ];
        let point = [
            ("/runs".to_string(), "runs", Expect::Ok),
            (
                format!("/runs/{a}/report"),
                "report",
                Expect::Bytes(reports[0].clone()),
            ),
            (
                format!("/runs/{b}/report"),
                "report",
                Expect::Bytes(reports[1].clone()),
            ),
            ("/stats".to_string(), "stats", Expect::Ok),
            (
                format!("/runs/{a}/histogram?class=page_fault"),
                "histogram",
                Expect::Ok,
            ),
            (
                format!("/runs/{b}/slice?t0={s0}&t1={s1}&class=timer_interrupt"),
                "slice_class",
                Expect::Count(class_count),
            ),
            (format!("/compare?a={a}&b={b}"), "compare", Expect::Ok),
        ];
        let point_repeat = (MIN_POINT * bulk.len()).div_ceil(MIN_BULK * point.len());
        let mut queries = Vec::new();
        for (targets, is_bulk, repeat) in [(&bulk[..], true, 1), (&point[..], false, point_repeat)]
        {
            for (target, name, expect) in targets {
                for _ in 0..repeat {
                    queries.push(Query {
                        target: target.clone(),
                        endpoint: endpoint(name),
                        bulk: is_bulk,
                        expect: expect.clone(),
                    });
                }
            }
        }

        // Warm-up: the deterministic bodies it returns become the
        // expected bytes of the queries checked only for status so far.
        for q in queries.iter_mut() {
            let (status, body) =
                layers::get(&mut off, SPAN_NAMES[q.endpoint], &mut client, &q.target)
                    .map_err(|e| e.to_string())?;
            if status != 200 {
                return Err(format!("warm-up {} answered {status}", q.target));
            }
            if matches!(q.expect, Expect::Ok) && !["runs", "stats"].contains(&ENDPOINTS[q.endpoint])
            {
                q.expect = Expect::Bytes(body);
            }
        }
        let mut conns = Vec::with_capacity(CLIENTS);
        for c in 0..CLIENTS {
            conns.push(Conn {
                client: layers::connect(service.addr()).map_err(|e| e.to_string())?,
                rng: ctx.derive(20 + c as u64) | 1,
                order: (0..queries.len()).collect(),
                rec: ctx.recorder(10 + c as u32),
            });
        }
        Ok(Catalog {
            role,
            trace: ctx.trace,
            _service: service,
            queries,
            conns,
            bulk_store: paths[0].clone(),
            window: (t0, t1),
            dir,
            samples: Vec::new(),
            wall_s: 0.0,
            requests: 0,
            cycles: 0,
        })
    }

    /// Traced pass over each endpoint alone: sequential requests on one
    /// connection, with the server's busy time from `/stats` deltas;
    /// then the slice's library path and serialization without HTTP,
    /// and a cold index of the served directory.
    fn endpoint_pass(&mut self, ctx: &mut Ctx) -> Result<(), String> {
        let mut rec = ctx.recorder(20);
        let client = &mut self.conns[0].client;
        for (ep, name) in ENDPOINTS.iter().enumerate() {
            let Some(q) = self.queries.iter().find(|q| q.endpoint == ep) else {
                continue;
            };
            let n = if q.bulk { PASS_BULK } else { PASS_POINT };
            let before = server_totals(client, ep)?;
            let mut latencies = Vec::with_capacity(n);
            let mut sizes = Vec::with_capacity(n);
            let mut errors = 0;
            for i in 0..n {
                let t = Instant::now();
                let (bytes, error) = rec.unit("unit.catalog_pass", (ep * 1000 + i) as u64, |rec| {
                    judge(q, layers::get(rec, SPAN_NAMES[ep], client, &q.target))
                });
                latencies.push(t.elapsed().as_secs_f64() * 1e3);
                sizes.push(bytes as f64);
                errors += usize::from(error.is_some());
                ctx.out.check(error.is_none(), || {
                    format!("catalog: {}", error.unwrap_or_default())
                });
            }
            let after = server_totals(client, ep)?;
            let server_ms = (after.1 - before.1) as f64 / 1e3 / (after.0 - before.0).max(1) as f64;
            let mean = latencies.iter().sum::<f64>() / n as f64;
            ctx.out
                .median(&format!("catalog.{name}.client_p50_ms"), latencies);
            ctx.out
                .value(&format!("catalog.{name}.server_ms"), server_ms);
            ctx.out
                .value(&format!("catalog.{name}.wait_ms"), mean - server_ms);
            ctx.out.median(&format!("catalog.{name}.bytes"), sizes);
            ctx.out
                .value(&format!("catalog.{name}.errors"), errors as f64);
        }

        let (t0, t1) = self.window;
        let (reader, _) = layers::open_store(&mut Recorder::new(false), &self.bulk_store)
            .map_err(|e| e.to_string())?;
        let (mut lib, mut ser, mut decoded) = (Vec::new(), Vec::new(), Vec::new());
        for i in 0..PASS_BULK {
            rec.unit("unit.catalog_layers", i as u64, |rec| {
                let t = Instant::now();
                let (events, chunks_decoded, chunks_total) =
                    layers::slice_events(rec, &reader, t0, t1, None);
                lib.push(t.elapsed().as_secs_f64() * 1e3);
                decoded.push(chunks_decoded as f64);
                let response = SliceResponse {
                    run: "bench".into(),
                    t0,
                    t1,
                    cpu: None,
                    class: None,
                    chunks_total,
                    chunks_decoded,
                    count: events.len(),
                    events,
                };
                let t = Instant::now();
                std::hint::black_box(layers::slice_json(rec, &response));
                ser.push(t.elapsed().as_secs_f64() * 1e3);
            });
        }
        ctx.out.median("catalog.slice.lib_ms", lib);
        ctx.out.median("catalog.slice.serialize_ms", ser);
        ctx.out.median("catalog.slice.chunks_decoded", decoded);
        let t = Instant::now();
        let indexed = rec.unit("unit.catalog_layers", 1000, |rec| {
            layers::scan_cold(rec, &self.dir)
        });
        ctx.out
            .value("catalog.scan_ms", t.elapsed().as_secs_f64() * 1e3);
        ctx.out.check(matches!(indexed, Ok(2)), || {
            format!("catalog: cold scan indexed {indexed:?}")
        });
        ctx.keep(rec);
        Ok(())
    }
}

/// `(requests, total_us)` the server has logged for endpoint `ep`.
fn server_totals(client: &mut Client, ep: usize) -> Result<(u64, u64), String> {
    let (status, body) = layers::get(&mut Recorder::new(false), "catalog.stats", client, "/stats")
        .map_err(|e| e.to_string())?;
    if status != 200 {
        return Err(format!("/stats answered {status}"));
    }
    let stats: StatsResponse = serde_json::from_slice(&body).map_err(|e| e.to_string())?;
    Ok(stats
        .endpoints
        .iter()
        .find(|e| e.endpoint == STATS_NAMES[ep])
        .map_or((0, 0), |e| (e.requests, e.total_us)))
}

impl Family for Catalog {
    /// One seed-shuffled cycle of the mix on every client at once, or a
    /// lockstep round of the bulk queries. In a traced run every other
    /// home cycle is untraced, as the baseline for the tracing overhead.
    fn unit(&mut self, out: &mut Outcome) -> Result<(), String> {
        let traced = self.trace && (self.role == Role::Probe || self.cycles % 2 == 1);
        let cycle = self.cycles;
        let lockstep = self.role == Role::Home && cycle < LOCKSTEP_CYCLES;
        let queries = &self.queries;
        // The bulk queries come first in `queries`.
        let bulk: &[usize] = &(0..queries.iter().filter(|q| q.bulk).count()).collect::<Vec<_>>();
        let together = &Barrier::new(self.conns.len());
        let start = Instant::now();
        let results: Vec<Vec<(Sample, Option<String>)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .map(|d| {
                    scope.spawn(move || {
                        let order = if lockstep {
                            bulk
                        } else {
                            for i in (1..d.order.len()).rev() {
                                let j = below(&mut d.rng, i + 1);
                                d.order.swap(i, j);
                            }
                            &d.order
                        };
                        d.rec.set_on(traced);
                        let mut samples = Vec::with_capacity(order.len());
                        for (k, &qi) in order.iter().enumerate() {
                            let q = &queries[qi];
                            if lockstep {
                                together.wait();
                            }
                            let t = Instant::now();
                            let (_, error) =
                                d.rec.unit("unit.catalog", cycle * 100 + k as u64, |rec| {
                                    judge(
                                        q,
                                        layers::get(
                                            rec,
                                            SPAN_NAMES[q.endpoint],
                                            &mut d.client,
                                            &q.target,
                                        ),
                                    )
                                });
                            let ms = t.elapsed().as_secs_f64() * 1e3;
                            samples.push((
                                Sample {
                                    bulk: q.bulk,
                                    ms,
                                    traced,
                                },
                                error,
                            ));
                        }
                        d.rec.set_on(true);
                        samples
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("catalog client thread"))
                .collect()
        });
        let wall = start.elapsed().as_secs_f64();
        for (sample, error) in results.into_iter().flatten() {
            out.check(error.is_none(), || {
                format!("catalog: {}", error.unwrap_or_default())
            });
            if lockstep {
                continue;
            }
            if !traced {
                self.requests += 1;
            }
            self.samples.push(sample);
        }
        if !traced && !lockstep {
            self.wall_s += wall;
        }
        self.cycles += 1;
        Ok(())
    }

    fn ready(&self) -> bool {
        let bulk = self.samples.iter().filter(|s| s.bulk).count();
        bulk >= MIN_BULK && self.samples.len() - bulk >= MIN_POINT
    }

    fn finish(mut self: Box<Self>, ctx: &mut Ctx) -> Result<(), String> {
        let lat = |bulk: bool, traced: bool| -> Vec<f64> {
            self.samples
                .iter()
                .filter(|s| s.bulk == bulk && s.traced == traced)
                .map(|s| s.ms)
                .collect()
        };
        if !self.trace {
            let (point, bulk) = (lat(false, false), lat(true, false));
            let out = &mut ctx.out;
            out.value("catalog_qps", self.requests as f64 / self.wall_s);
            // p50 and p99 go to the spread summary and detail file only.
            // The p99 moved by half between runs while p90 held. The p50
            // falls among the four sub-millisecond queries (`/runs`, both
            // `/report`s, `/stats`), where host wake-up latency rather than
            // the service sets it, and it moved by up to a quarter.
            out.median("point_p50_ms", point.clone());
            out.percentile("point_p90_ms", point.clone(), 90.0);
            out.percentile("point_p99_ms", point, 99.0);
            out.median("bulk_p50_ms", bulk.clone());
            out.percentile("bulk_p90_ms", bulk, 90.0);
        } else {
            self.endpoint_pass(ctx)?;
            if self.role == Role::Home {
                let mean = |traced: bool| {
                    let v: Vec<f64> = self
                        .samples
                        .iter()
                        .filter(|s| s.traced == traced)
                        .map(|s| s.ms)
                        .collect();
                    v.iter().sum::<f64>() / v.len().max(1) as f64
                };
                ctx.out
                    .value("bench.trace_overhead_frac", mean(true) / mean(false) - 1.0);
                let mut cov = Vec::new();
                for d in &self.conns {
                    cov.extend(spans::coverage(d.rec.spans(), "unit.catalog"));
                }
                ctx.out.median("bench.coverage_frac", cov);
            }
        }
        for d in self.conns.drain(..) {
            ctx.keep(d.rec);
        }
        Ok(())
    }
}
