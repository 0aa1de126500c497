//! Differential tests pinning JSON output bytes.
//!
//! `serde_json::to_vec{,_pretty}` write through the vendored serde's
//! streaming `Emitter`. The oracle is the emitter it replaced: build a
//! `Value` tree, then print the tree. Both live in [`oracle`] below,
//! verbatim apart from the trait's name, and every output here must
//! match them byte for byte, compact and pretty:
//!
//! * proptests over random `Event`s (every `EventKind` variant, every
//!   `Activity`), float edge cases, hostile strings, and nested
//!   `Option`/tuple/`Vec`/`HashMap`/`BTreeMap` values, whose trees the
//!   oracle builds independently of the derive;
//! * a fixed test over every document the daemon serves or the CLI
//!   writes, whose trees come from parsing the output. That pins the
//!   rendering (separators, indentation, escapes, number forms); the
//!   unchanged `Deserialize` derive reading each document back to a
//!   value that re-serializes to the same bytes pins its structure.

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use serde::{Deserialize, Serialize, Value};

use osn_analysis::{class_histogram, EventClass, NoiseSignature};
use osn_catalog::service::{
    slice_events, CompareResponse, EndpointStat, HistogramResponse, RunsResponse, SliceResponse,
    StatsResponse,
};
use osn_core::cluster::{run_cluster, ClusterConfig, ClusterReport};
use osn_core::report::PaperReport;
use osn_core::{analyze_store, record_app, ExperimentConfig, StoredRunMeta};
use osn_kernel::activity::Activity;
use osn_kernel::hooks::SwitchState;
use osn_kernel::ids::{CpuId, Tid};
use osn_kernel::time::Nanos;
use osn_store::{StoreOptions, StoreReader};
use osn_trace::{Event, EventKind, Trace};
use osn_workloads::App;

/// The `Value`-tree serializer the streaming emitter replaced.
mod oracle {
    use std::collections::{BTreeMap, HashMap};
    use std::hash::BuildHasher;

    use serde::Value;

    /// The old `Serialize::to_value`.
    pub trait ToValue {
        fn to_value(&self) -> Value;
    }

    pub fn to_vec(v: &Value) -> Vec<u8> {
        let mut out = String::new();
        emit(v, &mut out, None, 0);
        out.into_bytes()
    }

    pub fn to_vec_pretty(v: &Value) -> Vec<u8> {
        let mut out = String::new();
        emit(v, &mut out, Some(2), 0);
        out.into_bytes()
    }

    fn emit(v: &Value, out: &mut String, indent: Option<usize>, depth: usize) {
        match v {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::U64(n) => out.push_str(&n.to_string()),
            Value::I64(n) => out.push_str(&n.to_string()),
            Value::F64(f) => {
                if f.is_finite() {
                    out.push_str(&format!("{f:?}"));
                } else {
                    out.push_str("null");
                }
            }
            Value::Str(s) => emit_string(s, out),
            Value::Seq(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    emit(item, out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline_indent(out, indent, depth);
                }
                out.push(']');
            }
            Value::Map(entries) => {
                out.push('{');
                for (i, (k, val)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    emit_string(k, out);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    emit(val, out, indent, depth + 1);
                }
                if !entries.is_empty() {
                    newline_indent(out, indent, depth);
                }
                out.push('}');
            }
        }
    }

    fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
        if let Some(w) = indent {
            out.push('\n');
            for _ in 0..w * depth {
                out.push(' ');
            }
        }
    }

    fn emit_string(s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                '\u{08}' => out.push_str("\\b"),
                '\u{0c}' => out.push_str("\\f"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    macro_rules! unsigned {
        ($($t:ty),*) => {$(
            impl ToValue for $t {
                fn to_value(&self) -> Value {
                    Value::U64(*self as u64)
                }
            }
        )*};
    }
    unsigned!(u8, u16, u32, u64, usize);

    macro_rules! signed {
        ($($t:ty),*) => {$(
            impl ToValue for $t {
                fn to_value(&self) -> Value {
                    Value::I64(*self as i64)
                }
            }
        )*};
    }
    signed!(i8, i16, i32, i64);

    impl ToValue for f64 {
        fn to_value(&self) -> Value {
            Value::F64(*self)
        }
    }

    impl ToValue for bool {
        fn to_value(&self) -> Value {
            Value::Bool(*self)
        }
    }

    impl ToValue for String {
        fn to_value(&self) -> Value {
            Value::Str(self.clone())
        }
    }

    impl<T: ToValue> ToValue for Option<T> {
        fn to_value(&self) -> Value {
            match self {
                None => Value::Null,
                Some(x) => x.to_value(),
            }
        }
    }

    impl<T: ToValue> ToValue for Vec<T> {
        fn to_value(&self) -> Value {
            Value::Seq(self.iter().map(ToValue::to_value).collect())
        }
    }

    impl<A: ToValue, B: ToValue> ToValue for (A, B) {
        fn to_value(&self) -> Value {
            Value::Seq(vec![self.0.to_value(), self.1.to_value()])
        }
    }

    impl<A: ToValue, B: ToValue, C: ToValue> ToValue for (A, B, C) {
        fn to_value(&self) -> Value {
            Value::Seq(vec![
                self.0.to_value(),
                self.1.to_value(),
                self.2.to_value(),
            ])
        }
    }

    fn key_to_string(v: Value) -> String {
        match v {
            Value::Str(s) => s,
            Value::U64(n) => n.to_string(),
            Value::I64(n) => n.to_string(),
            Value::Bool(b) => b.to_string(),
            other => panic!("unsupported map key type: {other:?}"),
        }
    }

    impl<K: ToValue, V: ToValue, S: BuildHasher> ToValue for HashMap<K, V, S> {
        fn to_value(&self) -> Value {
            let mut entries: Vec<(String, Value)> = self
                .iter()
                .map(|(k, v)| (key_to_string(k.to_value()), v.to_value()))
                .collect();
            entries.sort_by(|a, b| a.0.cmp(&b.0));
            Value::Map(entries)
        }
    }

    impl<K: ToValue, V: ToValue> ToValue for BTreeMap<K, V> {
        fn to_value(&self) -> Value {
            Value::Map(
                self.iter()
                    .map(|(k, v)| (key_to_string(k.to_value()), v.to_value()))
                    .collect(),
            )
        }
    }
}

use oracle::ToValue;

// ---- the trace event model, as the old derive encoded it ------------

fn map(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Externally tagged variant with a payload: `{"Tag": payload}`.
fn tagged(tag: &str, payload: Value) -> Value {
    map(vec![(tag, payload)])
}

/// A unit variant is its name; the kernel enums' derived `Debug`
/// prints exactly that.
fn unit(v: &impl std::fmt::Debug) -> Value {
    Value::Str(format!("{v:?}"))
}

impl ToValue for Activity {
    fn to_value(&self) -> Value {
        match self {
            Activity::Softirq(v) => tagged("Softirq", unit(v)),
            Activity::PageFault(k) => tagged("PageFault", unit(k)),
            Activity::Schedule(p) => tagged("Schedule", unit(p)),
            Activity::Syscall(s) => tagged("Syscall", unit(s)),
            other => unit(other),
        }
    }
}

impl ToValue for EventKind {
    fn to_value(&self) -> Value {
        let tid = |t: &Tid| Value::U64(t.0 as u64);
        let cpu = |c: &CpuId| Value::U64(c.0 as u64);
        match self {
            EventKind::KernelEnter(a) => tagged("KernelEnter", a.to_value()),
            EventKind::KernelExit(a) => tagged("KernelExit", a.to_value()),
            EventKind::SoftirqRaise(v) => tagged("SoftirqRaise", unit(v)),
            EventKind::SchedSwitch {
                prev,
                prev_state,
                next,
            } => tagged(
                "SchedSwitch",
                map(vec![
                    ("prev", tid(prev)),
                    ("prev_state", unit(prev_state)),
                    ("next", tid(next)),
                ]),
            ),
            EventKind::Wakeup { tid: t, waker } => {
                tagged("Wakeup", map(vec![("tid", tid(t)), ("waker", tid(waker))]))
            }
            EventKind::Migrate { tid: t, from, to } => tagged(
                "Migrate",
                map(vec![("tid", tid(t)), ("from", cpu(from)), ("to", cpu(to))]),
            ),
            EventKind::AppMark { mark, value } => tagged(
                "AppMark",
                map(vec![("mark", mark.to_value()), ("value", value.to_value())]),
            ),
            EventKind::TaskExit { tid: t } => tagged("TaskExit", map(vec![("tid", tid(t))])),
        }
    }
}

impl ToValue for Event {
    fn to_value(&self) -> Value {
        map(vec![
            ("t", Value::U64(self.t.as_nanos())),
            ("cpu", Value::U64(self.cpu.0 as u64)),
            ("tid", Value::U64(self.tid.0 as u64)),
            ("kind", self.kind.to_value()),
        ])
    }
}

// ---- strategies ------------------------------------------------------

/// Any event: full-range timestamps and ids, every `EventKind`
/// variant, every `Activity`.
struct AnyEvent;

impl Strategy for AnyEvent {
    type Value = Event;

    fn generate(&self, rng: &mut TestRng) -> Event {
        let activities = Activity::all();
        let states = [
            SwitchState::Preempted,
            SwitchState::BlockedIo,
            SwitchState::BlockedComm,
            SwitchState::BlockedSleep,
            SwitchState::BlockedWait,
            SwitchState::Exited,
        ];
        let activity = activities[rng.below(activities.len() as u64) as usize];
        let tid = |rng: &mut TestRng| Tid(rng.next_u64() as u32);
        let cpu = |rng: &mut TestRng| CpuId(rng.next_u64() as u16);
        let kind = match rng.below(8) {
            0 => EventKind::KernelEnter(activity),
            1 => EventKind::KernelExit(activity),
            2 => EventKind::SoftirqRaise(
                osn_kernel::activity::SoftirqVec::ALL[rng.below(5) as usize],
            ),
            3 => EventKind::SchedSwitch {
                prev: tid(rng),
                prev_state: states[rng.below(states.len() as u64) as usize],
                next: tid(rng),
            },
            4 => EventKind::Wakeup {
                tid: tid(rng),
                waker: tid(rng),
            },
            5 => EventKind::Migrate {
                tid: tid(rng),
                from: cpu(rng),
                to: cpu(rng),
            },
            6 => EventKind::AppMark {
                mark: rng.next_u64() as u32,
                value: rng.next_u64(),
            },
            _ => EventKind::TaskExit { tid: tid(rng) },
        };
        Event {
            t: Nanos(rng.next_u64() >> rng.below(64)),
            cpu: cpu(rng),
            tid: tid(rng),
            kind,
        }
    }
}

/// Floats: the edge cases (non-finite, signed zero, exponent forms,
/// extremes) half the time, arbitrary bit patterns otherwise.
struct AnyF64;

const F64_EDGES: [f64; 16] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    -0.0,
    0.0,
    1e-7,
    1e21,
    1e22,
    -1e-7,
    1e16,
    0.1,
    5e-324,
    f64::MIN_POSITIVE,
    f64::MAX,
    f64::MIN,
    1.0 / 3.0,
];

impl Strategy for AnyF64 {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        if rng.below(2) == 0 {
            F64_EDGES[rng.below(F64_EDGES.len() as u64) as usize]
        } else {
            f64::from_bits(rng.next_u64())
        }
    }
}

/// Strings mixing every control character, quotes, backslashes, DEL,
/// and multi-byte text.
struct AnyString;

impl Strategy for AnyString {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        const PIECES: [&str; 10] = ["\"", "\\", "\u{7f}", "é", "😀", "雑音", "a", "Z", "/", " "];
        let len = rng.below(12);
        (0..len)
            .map(|_| {
                if rng.below(3) == 0 {
                    char::from(rng.below(0x20) as u8).to_string()
                } else {
                    PIECES[rng.below(PIECES.len() as u64) as usize].to_string()
                }
            })
            .collect()
    }
}

/// Nested containers of the above.
type Nested = Vec<(
    Option<Vec<f64>>,
    (String, Option<(bool, i64)>),
    HashMap<String, Vec<u8>>,
)>;

struct AnyNested;

impl Strategy for AnyNested {
    type Value = (
        Nested,
        HashMap<u64, Option<String>>,
        BTreeMap<i32, Vec<u16>>,
    );

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        let count = |rng: &mut TestRng| rng.below(4) as usize;
        let nested = (0..count(rng))
            .map(|_| {
                let floats = (rng.below(3) > 0)
                    .then(|| (0..count(rng)).map(|_| AnyF64.generate(rng)).collect());
                let pair = (rng.below(2) == 0).then(|| (rng.below(2) == 0, rng.next_u64() as i64));
                let by_name = (0..count(rng))
                    .map(|_| {
                        let bytes = (0..count(rng)).map(|_| rng.next_u64() as u8).collect();
                        (AnyString.generate(rng), bytes)
                    })
                    .collect();
                (floats, (AnyString.generate(rng), pair), by_name)
            })
            .collect();
        let by_id = (0..count(rng) * 3)
            .map(|_| {
                let name = (rng.below(2) == 0).then(|| AnyString.generate(rng));
                (rng.next_u64() >> rng.below(64), name)
            })
            .collect();
        let ordered = (0..count(rng))
            .map(|_| {
                let items = (0..count(rng)).map(|_| rng.next_u64() as u16).collect();
                (rng.next_u64() as i32, items)
            })
            .collect();
        (nested, by_id, ordered)
    }
}

/// Streaming output equals the oracle's printing of `tree`, both ways.
fn assert_matches_tree<T: Serialize + ?Sized>(value: &T, tree: &Value) {
    assert_eq!(
        String::from_utf8(serde_json::to_vec(value).unwrap()).unwrap(),
        String::from_utf8(oracle::to_vec(tree)).unwrap(),
        "compact output differs from the oracle"
    );
    assert_eq!(
        String::from_utf8(serde_json::to_vec_pretty(value).unwrap()).unwrap(),
        String::from_utf8(oracle::to_vec_pretty(tree)).unwrap(),
        "pretty output differs from the oracle"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn events_match_oracle(events in prop::collection::vec(AnyEvent, 0..24)) {
        assert_matches_tree(&events, &events.to_value());
        let trace = Trace::from_raw_parts(events.clone(), vec![3, 0, u64::MAX]);
        let tree = map(vec![("events", events.to_value()), ("lost", trace.lost.to_value())]);
        assert_matches_tree(&trace, &tree);
    }

    #[test]
    fn floats_match_oracle(floats in prop::collection::vec(AnyF64, 0..16)) {
        for f in &floats {
            assert_matches_tree(f, &f.to_value());
        }
        assert_matches_tree(&floats, &floats.to_value());
    }

    #[test]
    fn strings_match_oracle(strings in prop::collection::vec(AnyString, 0..8)) {
        assert_matches_tree(&strings, &strings.to_value());
        let keyed: HashMap<String, usize> =
            strings.iter().cloned().enumerate().map(|(i, s)| (s, i)).collect();
        assert_matches_tree(&keyed, &keyed.to_value());
    }

    #[test]
    fn nested_containers_match_oracle(value in AnyNested) {
        assert_matches_tree(&value.0, &value.0.to_value());
        assert_matches_tree(&value.1, &value.1.to_value());
        assert_matches_tree(&value.2, &value.2.to_value());
    }
}

// ---- every served and written document -------------------------------

/// The oracle printing the parsed output reproduces it, both ways.
fn assert_renders_like_oracle<T: Serialize>(doc: &T) {
    let compact = serde_json::to_vec(doc).unwrap();
    let tree: Value = serde_json::from_slice(&compact).unwrap();
    assert_matches_tree(doc, &tree);
}

/// The document reads back through its `Deserialize` into a value that
/// writes the same bytes.
fn assert_round_trips<T: Serialize + Deserialize>(doc: &T) {
    let pretty = serde_json::to_vec_pretty(doc).unwrap();
    let back: T = serde_json::from_slice(&pretty).unwrap();
    assert_eq!(serde_json::to_vec_pretty(&back).unwrap(), pretty);
}

static DIRS: AtomicUsize = AtomicUsize::new(0);

fn tmpdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "osn-json-oracle-{}-{}",
        std::process::id(),
        DIRS.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn tiny_config(app: App, seed: u64) -> ExperimentConfig {
    let mut config = ExperimentConfig::paper(app, Nanos::from_millis(150)).with_seed(seed);
    config.node.cpus = 2;
    config.nranks = 2;
    config
}

#[test]
fn every_document_type_matches_oracle() {
    let dir = tmpdir();
    let path_a = dir.join("sphot.osn");
    let path_b = dir.join("amg.osn");
    let opts = StoreOptions::default().with_chunk_capacity(256);
    record_app(tiny_config(App::Sphot, 7), &path_a, opts).unwrap();
    record_app(tiny_config(App::Amg, 11), &path_b, opts).unwrap();
    std::fs::write(dir.join("junk.osn"), b"not a store").unwrap();

    let (reader, _) = StoreReader::recover(&path_a).unwrap();
    let meta = StoredRunMeta::from_bytes(reader.metadata()).unwrap();
    let analysis = analyze_store(&reader, &meta.result).unwrap();

    // StoredRunMeta and PaperReport (what `analyze --json` writes).
    assert_renders_like_oracle(&meta);
    assert_round_trips(&meta);
    let (report, _, _) = osn_core::recovered_report(&path_a).unwrap();
    let paper = PaperReport { apps: vec![report] };
    assert_renders_like_oracle(&paper);
    assert_round_trips(&paper);

    // RunsResponse, from a scan that indexes two stores and skips one.
    let (catalog, _) = osn_catalog::scan(&dir, &osn_catalog::Catalog::default()).unwrap();
    let runs = RunsResponse {
        count: catalog.entries.len(),
        runs: catalog.entries.clone(),
        skipped: catalog.skipped.clone(),
    };
    assert_eq!((runs.count, runs.skipped.len()), (2, 1));
    assert_renders_like_oracle(&runs);
    assert_round_trips(&runs);

    // SliceResponse, whose tree the oracle also builds field by field.
    let span = reader.span().unwrap();
    let (events, decoded, total) = slice_events(&reader, span.0, span.1, None, None);
    assert!(!events.is_empty());
    let slice = SliceResponse {
        run: "sphot-0123abcd".to_string(),
        t0: span.0.as_nanos(),
        t1: span.1.as_nanos(),
        cpu: Some(1),
        class: Some("page_fault".to_string()),
        chunks_total: total,
        chunks_decoded: decoded,
        count: events.len(),
        events,
    };
    let tree = map(vec![
        ("run", slice.run.to_value()),
        ("t0", slice.t0.to_value()),
        ("t1", slice.t1.to_value()),
        ("cpu", slice.cpu.to_value()),
        ("class", slice.class.to_value()),
        ("chunks_total", slice.chunks_total.to_value()),
        ("chunks_decoded", slice.chunks_decoded.to_value()),
        ("count", slice.count.to_value()),
        ("events", slice.events.to_value()),
    ]);
    assert_matches_tree(&slice, &tree);
    assert_round_trips(&slice);

    // Trace, with the same events.
    let trace = reader.read_trace().unwrap();
    let tree = map(vec![
        ("events", trace.events.to_value()),
        ("lost", trace.lost.to_value()),
    ]);
    assert_matches_tree(&trace, &tree);

    // HistogramResponse and CompareResponse, as the daemon builds them.
    let (stats, histogram) =
        class_histogram(&analysis, &meta.ranks, EventClass::PageFault, 17, 95.5);
    let hist = HistogramResponse {
        run: "sphot-0123abcd".to_string(),
        class: EventClass::PageFault.name().to_string(),
        bins: 17,
        pct: 95.5,
        stats,
        histogram,
    };
    assert_renders_like_oracle(&hist);
    assert_round_trips(&hist);
    let (reader_b, _) = StoreReader::recover(&path_b).unwrap();
    let meta_b = StoredRunMeta::from_bytes(reader_b.metadata()).unwrap();
    let analysis_b = analyze_store(&reader_b, &meta_b.result).unwrap();
    let sig_a = NoiseSignature::build(&analysis, &meta.ranks);
    let sig_b = NoiseSignature::build(&analysis_b, &meta_b.ranks);
    let cmp = CompareResponse {
        a: "a".to_string(),
        b: "b".to_string(),
        same_config: false,
        distance: sig_a.distance(&sig_b),
        threshold: 0.01,
        a_total_ns: sig_a.total_noise.as_nanos(),
        b_total_ns: sig_b.total_noise.as_nanos(),
        drift: sig_a.drift(&sig_b, 0.01),
        a_signature: sig_a,
        b_signature: sig_b,
    };
    assert!(!cmp.drift.is_empty());
    assert_renders_like_oracle(&cmp);
    assert_round_trips(&cmp);

    // StatsResponse, with a fractional and a zero mean.
    let stats = StatsResponse {
        runs: 2,
        skipped: 1,
        scans: 3,
        endpoints: vec![
            EndpointStat {
                endpoint: "/runs/{id}/slice".to_string(),
                requests: 3,
                errors: 1,
                total_us: 100,
                max_us: 70,
                mean_us: 100.0 / 3.0,
            },
            EndpointStat {
                endpoint: "(other)".to_string(),
                requests: 0,
                errors: 0,
                total_us: 0,
                max_us: 0,
                mean_us: 0.0,
            },
        ],
    };
    assert_renders_like_oracle(&stats);
    assert_round_trips(&stats);

    // ClusterReport (what `cluster --json` writes).
    let mut config = ClusterConfig::new(App::Amg, 2, Nanos::from_millis(150));
    config.cpus = Some(2);
    config.seed = 5;
    let cluster: ClusterReport = run_cluster(&config).report;
    assert_renders_like_oracle(&cluster);
    assert_round_trips(&cluster);

    let _ = std::fs::remove_dir_all(&dir);
}
