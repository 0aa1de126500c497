//! `osnbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! osnbench --workload <pipeline|catalog> --seed N --seconds S --trace 0|1
//! ```
//!
//! A run sets up its workload (several times, for `setup_s`), runs it
//! alone for the first 30% of `--seconds` and reads the peak RSS, then
//! interleaves it with probe units of the other workloads (`pipeline`,
//! `catalog`, `cluster`, and in traced runs `capture`) until
//! `--seconds` have passed, so every run reports every metric and every
//! metric's units are spread over the whole run. Every unit's
//! output is checked. With `--trace 0` the run prints the end-to-end
//! metrics; with `--trace 1` it records spans and prints the per-layer
//! metrics. End-to-end timings are reported at a reference host speed
//! measured by calibration bursts between units (see `calib.rs`). The
//! last line of standard output is the JSON result; the
//! per-metric samples (and spans) are written under `.bench_out/`.
//! See `README.md` beside this file.

mod calib;
mod capture;
mod catalog;
mod cluster;
mod layers;
mod outcome;
mod pipeline;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use calib::Calib;
use outcome::{Ctx, Outcome};
use spans::Recorder;

/// The part a registered workload plays in a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// The run's own workload.
    Home,
    /// Run between home units to fill its metrics.
    Probe,
}

/// One workload, set up and ready to run units of work.
pub trait Family {
    /// Run one unit of work and check its outputs.
    fn unit(&mut self, out: &mut Outcome) -> Result<(), String>;
    /// Whether enough units ran for every metric's statistic.
    fn ready(&self) -> bool {
        true
    }
    /// Record the metrics; in a traced run, also time each layer alone.
    fn finish(self: Box<Self>, ctx: &mut Ctx) -> Result<(), String>;
}

/// The workloads a run can have as its own; `cluster` and `capture`
/// run only as probes.
const WORKLOADS: [&str; 2] = ["pipeline", "catalog"];
/// Share of the run the home workload has to itself before the probes
/// start; the peak RSS is read at its end.
const ALONE: f64 = 0.3;
/// Share of the interleaved part given to the home workload; the probes
/// split the rest by weight. The catalog probe's bulk percentiles need
/// the most units: at 3 : 2 against the cluster probe they spread twice
/// as much over ten runs as the catalog home's.
const HOME_SHARE: f64 = 0.4;
const PROBE_WEIGHTS: [(&str, f64); 4] = [
    ("pipeline", 2.0),
    ("catalog", 6.0),
    ("cluster", 2.0),
    ("capture", 1.0),
];
/// End-to-end latency percentiles, scaled by the median-burst speed.
const SCALED_PERCENTILES: [&str; 5] = [
    "point_p50_ms",
    "point_p90_ms",
    "point_p99_ms",
    "bulk_p50_ms",
    "bulk_p90_ms",
];
/// End-to-end totals of work over time, scaled by the total-burst speed;
/// `setup_s` is a time and is multiplied, the rates are divided.
const SCALED_RATES: [&str; 4] = [
    "record_events_per_s",
    "analyze_events_per_s",
    "catalog_qps",
    "cluster_ranks_per_s",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .map_err(|_| "--seed must be an unsigned integer")?,
                )
            }
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds must be a number")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let seconds: f64 = seconds.unwrap_or(36.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn setup(ctx: &mut Ctx, name: &str, role: Role) -> Result<Box<dyn Family>, String> {
    Ok(match name {
        "pipeline" => Box::new(pipeline::Pipeline::setup(ctx, role)?),
        "catalog" => Box::new(catalog::Catalog::setup(ctx, role)?),
        "cluster" => Box::new(cluster::Cluster::setup(ctx)?),
        "capture" => Box::new(capture::Capture::setup(ctx)?),
        _ => unreachable!("workload names are validated"),
    })
}

/// Peak resident set (VmHWM) of this process so far, in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Fix glibc's mmap threshold at its default 128 KiB, which turns off
/// its dynamic raise as large blocks are freed. With the raise, freed
/// blocks of up to 32 MiB stay in whichever thread's arena held them,
/// and the record spill thread, the analysis workers and the catalog's
/// client threads are new per unit. The peak RSS of the same inputs then
/// moved between runs by up to half (124–208 MB on `pipeline`, 302–418
/// MB on `catalog`) with that retention rather than with live memory.
fn fix_mmap_threshold() -> Result<(), String> {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: glibc's mallopt only sets an allocator parameter.
    match unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) } {
        1 => Ok(()),
        _ => Err("mallopt(M_MMAP_THRESHOLD) failed".into()),
    }
}

/// Restart VmHWM from the current resident set.
fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Set up, run alone, interleave with the probes, finish. An error
/// ends the run early; it is counted as a failed operation.
fn run(ctx: &mut Ctx, home_name: &str) -> Result<(), String> {
    // Set-up, repeated for the median.
    let reps = if ctx.trace { 1 } else { 3 };
    let mut times = Vec::with_capacity(reps);
    let mut home = None;
    let mut calib = Calib::default();
    for _ in 0..reps {
        drop(home.take());
        calib.burst();
        let t = Instant::now();
        home = Some(setup(ctx, home_name, Role::Home)?);
        times.push(t.elapsed().as_secs_f64());
    }
    calib.burst();
    let mut home = home.expect("at least one set-up");
    ctx.out.median("setup_s", times);
    // Set-up builds the references the units are checked against, some
    // through other paths than the units take; the peak RSS covers only
    // the units.
    reset_peak_rss().map_err(|e| format!("cannot reset VmHWM: {e}"))?;

    let start = Instant::now();
    let window = Duration::from_secs_f64(ctx.seconds);
    let hard_stop = window * 3;
    // No bursts here: their buffer would count in the peak RSS.
    loop {
        home.unit(&mut ctx.out)?;
        if start.elapsed() >= window.mul_f64(ALONE) {
            break;
        }
    }
    let rss = peak_rss_mb().ok_or("VmHWM unreadable")?;
    ctx.out.value("peak_rss_mb", rss);

    // The capture has no end-to-end metric, so only a traced run probes
    // it.
    let probes: Vec<(&str, f64)> = PROBE_WEIGHTS
        .iter()
        .copied()
        .filter(|(name, _)| *name != home_name && (ctx.trace || *name != "capture"))
        .collect();
    let weights: f64 = probes.iter().map(|(_, w)| w).sum();
    let mut families: Vec<(Box<dyn Family>, f64, f64)> = vec![(home, HOME_SHARE, 0.0)];
    for (name, weight) in probes {
        let t = Instant::now();
        let probe = setup(ctx, name, Role::Probe)?;
        eprintln!(
            "osnbench: {name} probe set up in {:.2} s",
            t.elapsed().as_secs_f64()
        );
        families.push((probe, (1.0 - HOME_SHARE) * weight / weights, 0.0));
    }
    loop {
        let elapsed = start.elapsed();
        let ready = families.iter().all(|(f, _, _)| f.ready());
        if (elapsed >= window && ready) || elapsed >= hard_stop {
            break;
        }
        // The family furthest behind its share of the time runs next;
        // past the window, only among those still short of samples.
        let total: f64 = families.iter().map(|(_, _, spent)| spent).sum();
        let (family, _, spent) = families
            .iter_mut()
            .filter(|(f, _, _)| elapsed < window || !f.ready())
            .max_by(|a, b| (a.1 * total - a.2).total_cmp(&(b.1 * total - b.2)))
            .expect("a family short of samples");
        calib.maybe();
        let t = Instant::now();
        family.unit(&mut ctx.out)?;
        *spent += t.elapsed().as_secs_f64();
    }
    let spent: Vec<String> = families.iter().map(|(_, _, s)| format!("{s:.2}")).collect();
    eprintln!(
        "osnbench: window {:.2} s; seconds per workload (home first): {}",
        start.elapsed().as_secs_f64(),
        spent.join(" ")
    );
    for (family, _, _) in families {
        family.finish(ctx)?;
    }
    let (speed, total_speed) = (calib.speed(), calib.total_speed());
    ctx.out.ratio("bench.host_speed", speed, calib.samples());
    ctx.out.value("bench.host_total_speed", total_speed);
    if !ctx.trace {
        for name in SCALED_PERCENTILES {
            ctx.out.scale(name, speed);
        }
        ctx.out.scale("setup_s", total_speed);
        for name in SCALED_RATES {
            ctx.out.scale(name, 1.0 / total_speed);
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("osnbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = fix_mmap_threshold() {
        eprintln!("osnbench: {e}");
        return ExitCode::from(1);
    }
    let out_dir = PathBuf::from(".bench_out");
    let work = out_dir.join(format!("work-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("osnbench: cannot create {}: {e}", work.display());
        return ExitCode::from(1);
    }

    let started = Instant::now();
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work: work.clone(),
        out: Outcome::default(),
        spans: Recorder::new(args.trace),
    };
    if let Err(e) = run(&mut ctx, &args.workload) {
        ctx.out.fail(format!("{}: {e}", args.workload));
    }
    let _ = std::fs::remove_dir_all(&work);

    let expected = if args.trace {
        outcome::per_layer()
    } else {
        outcome::END_TO_END.to_vec()
    };
    let report = ctx.out.finish(
        &expected,
        &outcome::RunInfo {
            workload: &args.workload,
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            wall_s: started.elapsed().as_secs_f64(),
        },
    );
    let tag = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    if let Err(e) = std::fs::write(out_dir.join(format!("{tag}.json")), &report.detail) {
        eprintln!("osnbench: cannot write the detail file: {e}");
    }
    if args.trace {
        let spans = outcome::spans_json(ctx.spans.spans());
        if let Err(e) = std::fs::write(out_dir.join(format!("{tag}.spans.json")), spans) {
            eprintln!("osnbench: cannot write the span file: {e}");
        }
    }
    for line in &report.failures {
        eprintln!("osnbench: FAILED {line}");
    }
    println!("{}", report.summary);
    println!("{}", report.result);
    ExitCode::SUCCESS
}
