//! Paraver `.prv` trace writer and parser.
//!
//! The paper: "We developed an external LTTng module that generates
//! execution traces suitable for Paraver". The `.prv` format is
//! line-oriented ASCII (Paraver Trace Format v2):
//!
//! ```text
//! #Paraver (dd/mm/yy at hh:mm):endTime:nNodes(cpus):nAppl:task(threads:node)
//! 1:cpu:appl:task:thread:begin:end:state        (state record)
//! 2:cpu:appl:task:thread:time:type:value[...]   (event record)
//! ```
//!
//! We emit one Paraver *task* per simulated task, one *state record*
//! per phase/kernel-activity interval (so the timeline colors like the
//! paper's Fig 2/5/7 screenshots), and one *event record* per
//! kernel-entry/exit and user mark.

use osn_kernel::ids::Tid;
use osn_kernel::task::TaskMeta;
use osn_kernel::time::Nanos;
use osn_trace::{Event, EventKind};

use crate::states::{state_code, STATE_BLOCKED, STATE_READY, STATE_RUNNING};
use osn_analysis::timeline::{build_timelines, Phase};

/// Event type ids in the `.pcf` (see [`crate::pcf`]).
pub const EVTYPE_KERNEL: u64 = 64_000_001;
pub const EVTYPE_MARK: u64 = 64_000_002;
pub const EVTYPE_WAKEUP: u64 = 64_000_003;
pub const EVTYPE_MIGRATE: u64 = 64_000_004;

/// A parsed `.prv` record (for round-trip tests and tooling).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PrvRecord {
    State {
        cpu: u32,
        task: u32,
        begin: u64,
        end: u64,
        state: u32,
    },
    Event {
        cpu: u32,
        task: u32,
        time: u64,
        pairs: Vec<(u64, u64)>,
    },
}

/// Tid → Paraver task id (1-based position in `tasks`), built once per
/// export. Sorted by tid for binary search: tids are sparse (captured
/// stores carry host tids), so no dense table. A tid listed twice maps
/// to its first position.
struct TaskIds(Vec<(u32, u32)>);

impl TaskIds {
    fn new(tasks: &[TaskMeta]) -> TaskIds {
        let mut ids: Vec<(u32, u32)> = tasks
            .iter()
            .enumerate()
            .map(|(i, m)| (m.tid.0, i as u32 + 1))
            .collect();
        // Stable: equal tids keep their order, and dedup keeps the
        // first of each run.
        ids.sort_by_key(|&(tid, _)| tid);
        ids.dedup_by_key(|&mut (tid, _)| tid);
        TaskIds(ids)
    }

    fn get(&self, tid: Tid) -> Option<u32> {
        self.0
            .binary_search_by_key(&tid.0, |&(t, _)| t)
            .ok()
            .map(|i| self.0[i].1)
    }
}

/// Two-digit decimal pairs `00`..`99`.
const PAIRS: &[u8; 200] = b"\
0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

/// `n` in decimal, right-aligned in `buf`; returns where it starts.
fn decimal(buf: &mut [u8; 20], mut n: u64) -> usize {
    let mut i = buf.len();
    while n >= 100 {
        let pair = (n % 100) as usize * 2;
        n /= 100;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    }
    if n >= 10 {
        let pair = n as usize * 2;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    } else {
        i -= 1;
        buf[i] = b'0' + n as u8;
    }
    i
}

/// Append `n` in decimal.
fn push_num(out: &mut Vec<u8>, n: u64) {
    let mut buf = [0u8; 20];
    let start = decimal(&mut buf, n);
    out.extend_from_slice(&buf[start..]);
}

/// One record assembled on the stack and appended in one copy. The
/// longest record is 133 bytes: two `u32` ids and five `u64` fields
/// with their separators.
struct Line {
    buf: [u8; 192],
    len: usize,
}

impl Line {
    fn bytes(&mut self, b: &[u8]) {
        self.buf[self.len..self.len + b.len()].copy_from_slice(b);
        self.len += b.len();
    }

    fn num(&mut self, n: u64) {
        let mut digits = [0u8; 20];
        let start = decimal(&mut digits, n);
        self.bytes(&digits[start..]);
    }
}

/// Append one record: `kind:cpu:1:task:1:fields...` and a newline
/// (application and thread are always 1).
fn push_record(out: &mut Vec<u8>, kind: u8, cpu: u32, task: u32, fields: &[u64]) {
    debug_assert!(fields.len() <= 5);
    let mut line = Line {
        buf: [0; 192],
        len: 0,
    };
    line.bytes(&[kind, b':']);
    line.num(cpu as u64);
    line.bytes(b":1:");
    line.num(task as u64);
    line.bytes(b":1");
    for &f in fields {
        line.bytes(b":");
        line.num(f);
    }
    line.bytes(b"\n");
    out.extend_from_slice(&line.buf[..line.len]);
}

/// The records are ASCII by construction.
fn into_text(out: Vec<u8>) -> String {
    String::from_utf8(out).expect("PRV records are ASCII")
}

/// Serialize trace events (global `(t, cpu)` order) to `.prv` text.
///
/// `tasks` maps tids to Paraver task ids (their order); `end` is the
/// trace end time.
pub fn write_prv(events: &[Event], tasks: &[TaskMeta], end: Nanos) -> String {
    let mut out = Vec::with_capacity(events.len() * 40);
    push_prv(&mut out, events, tasks, end);
    into_text(out)
}

fn push_prv(out: &mut Vec<u8>, events: &[Event], tasks: &[TaskMeta], end: Nanos) {
    let ncpus = events.iter().map(|e| e.cpu.0 as u64 + 1).max().unwrap_or(1);
    // Header: fixed fake date (determinism), one node, one application
    // with `ntasks` tasks of one thread each, all on node 1.
    out.extend_from_slice(b"#Paraver (16/05/11 at 12:00):");
    push_num(out, end.as_nanos());
    out.extend_from_slice(b":1(");
    push_num(out, ncpus);
    out.extend_from_slice(b"):1:");
    push_num(out, tasks.len() as u64);
    out.push(b'(');
    for i in 0..tasks.len() {
        if i > 0 {
            out.push(b',');
        }
        out.extend_from_slice(b"1:1");
    }
    out.extend_from_slice(b")\n");

    let ids = TaskIds::new(tasks);

    // State records from the reconstructed task timelines.
    let timelines = build_timelines(events, tasks, end);
    for meta in tasks {
        let Some(tl) = timelines.get(meta.tid) else {
            continue;
        };
        let Some(task) = ids.get(meta.tid) else {
            continue;
        };
        for span in &tl.spans {
            let (cpu, state) = match span.phase {
                Phase::Running(c) => (c.0 as u32 + 1, STATE_RUNNING),
                Phase::Ready(_) => (1, STATE_READY),
                Phase::Blocked(_) => (1, STATE_BLOCKED),
                Phase::Gone => continue,
            };
            push_record(
                out,
                b'1',
                cpu,
                task,
                &[span.start.as_nanos(), span.end.as_nanos(), state as u64],
            );
        }
    }

    // Kernel activity state records + punctual events.
    for e in events {
        let cpu = e.cpu.0 as u32 + 1;
        let t = e.t.as_nanos();
        let (tid, fields): (Tid, &[u64]) = match e.kind {
            EventKind::KernelEnter(a) => (e.tid, &[t, EVTYPE_KERNEL, a.code() as u64]),
            EventKind::KernelExit(_) => (e.tid, &[t, EVTYPE_KERNEL, 0]),
            EventKind::AppMark { mark, value } => (
                e.tid,
                &[t, EVTYPE_MARK, mark as u64, EVTYPE_MARK + 10, value],
            ),
            EventKind::Wakeup { tid, .. } => (tid, &[t, EVTYPE_WAKEUP, 1]),
            EventKind::Migrate { tid, to, .. } => (tid, &[t, EVTYPE_MIGRATE, to.0 as u64 + 1]),
            _ => continue,
        };
        if let Some(task) = ids.get(tid) {
            push_record(out, b'2', cpu, task, fields);
        }
    }
}

/// Emit per-activity *state* records for kernel activity intervals of
/// one task (the colored segments of the paper's Fig 2): requires the
/// reconstructed instances.
pub fn write_activity_states(
    instances: &[osn_analysis::ActivityInstance],
    tasks: &[TaskMeta],
) -> String {
    let mut out = Vec::with_capacity(instances.len() * 40);
    push_activity_states(&mut out, instances, tasks);
    into_text(out)
}

fn push_activity_states(
    out: &mut Vec<u8>,
    instances: &[osn_analysis::ActivityInstance],
    tasks: &[TaskMeta],
) {
    let ids = TaskIds::new(tasks);
    for inst in instances {
        let Some(task) = ids.get(inst.ctx) else {
            continue;
        };
        push_record(
            out,
            b'1',
            inst.cpu.0 as u32 + 1,
            task,
            &[
                inst.start.as_nanos(),
                inst.end.as_nanos(),
                state_code(inst.activity) as u64,
            ],
        );
    }
}

/// Parse `.prv` text (header skipped) into records.
pub fn parse_prv(text: &str) -> Result<Vec<PrvRecord>, String> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split(':').collect();
        let num = |i: usize| -> Result<u64, String> {
            fields
                .get(i)
                .ok_or_else(|| format!("line {}: missing field {}", lineno + 1, i))?
                .parse::<u64>()
                .map_err(|e| format!("line {}: {}", lineno + 1, e))
        };
        match fields.first() {
            Some(&"1") => {
                if fields.len() != 8 {
                    return Err(format!("line {}: bad state record", lineno + 1));
                }
                out.push(PrvRecord::State {
                    cpu: num(1)? as u32,
                    task: num(3)? as u32,
                    begin: num(5)?,
                    end: num(6)?,
                    state: num(7)? as u32,
                });
            }
            Some(&"2") => {
                if fields.len() < 8 || !fields.len().is_multiple_of(2) {
                    return Err(format!("line {}: bad event record", lineno + 1));
                }
                let mut pairs = Vec::new();
                let mut i = 6;
                while i + 1 < fields.len() {
                    pairs.push((num(i)?, num(i + 1)?));
                    i += 2;
                }
                out.push(PrvRecord::Event {
                    cpu: num(1)? as u32,
                    task: num(3)? as u32,
                    time: num(5)?,
                    pairs,
                });
            }
            Some(other) => {
                return Err(format!(
                    "line {}: unknown record type {}",
                    lineno + 1,
                    other
                ))
            }
            None => {}
        }
    }
    Ok(out)
}

/// Sanity-check a generated `.prv`: states well-formed (begin ≤ end),
/// events reference known tasks. Returns the record count.
pub fn validate_prv(text: &str, ntasks: usize, ncpus: usize) -> Result<usize, String> {
    let records = parse_prv(text)?;
    for r in &records {
        match r {
            PrvRecord::State {
                cpu,
                task,
                begin,
                end,
                ..
            } => {
                if begin > end {
                    return Err(format!("state with begin {begin} > end {end}"));
                }
                if *task as usize > ntasks || *task == 0 {
                    return Err(format!("state references task {task}"));
                }
                if *cpu as usize > ncpus || *cpu == 0 {
                    return Err(format!("state references cpu {cpu}"));
                }
            }
            PrvRecord::Event { task, .. } => {
                if *task as usize > ntasks || *task == 0 {
                    return Err(format!("event references task {task}"));
                }
            }
        }
    }
    Ok(records.len())
}

/// All activity instances rendered for Paraver plus the base trace —
/// the complete "OS Noise Trace" export, written into one buffer.
pub fn write_full_prv(
    events: &[Event],
    instances: &[osn_analysis::ActivityInstance],
    tasks: &[TaskMeta],
    end: Nanos,
) -> String {
    let mut out = Vec::with_capacity((events.len() + instances.len()) * 40);
    push_prv(&mut out, events, tasks, end);
    push_activity_states(&mut out, instances, tasks);
    into_text(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_kernel::activity::Activity as A;
    use osn_kernel::hooks::SwitchState;
    use osn_kernel::ids::CpuId;

    fn meta(tid: u32, kind: &str) -> TaskMeta {
        TaskMeta {
            tid: Tid(tid),
            name: format!("t{tid}"),
            kind: kind.into(),
            job: None,
            rank: 0,
            user_time: Nanos::ZERO,
            faults: 0,
        }
    }

    fn sample() -> (Vec<Event>, Vec<TaskMeta>) {
        let mk = |t: u64, cpu: u16, tid: u32, kind: EventKind| Event {
            t: Nanos(t),
            cpu: CpuId(cpu),
            tid: Tid(tid),
            kind,
        };
        let events = vec![
            mk(
                0,
                0,
                0,
                EventKind::SchedSwitch {
                    prev: Tid(0),
                    prev_state: SwitchState::Preempted,
                    next: Tid(1),
                },
            ),
            mk(100, 0, 1, EventKind::KernelEnter(A::TimerInterrupt)),
            mk(150, 0, 1, EventKind::KernelExit(A::TimerInterrupt)),
            mk(200, 0, 1, EventKind::AppMark { mark: 3, value: 99 }),
        ];
        (events, vec![meta(1, "app")])
    }

    #[test]
    fn prv_writes_header_and_records() {
        let (events, tasks) = sample();
        let text = write_prv(&events, &tasks, Nanos(1000));
        assert!(text.starts_with("#Paraver ("));
        assert!(text.contains(":1000:1(1):1:1("));
        let n = validate_prv(&text, 1, 1).expect("valid");
        assert!(n >= 3, "{n} records");
    }

    #[test]
    fn prv_roundtrip_parse() {
        let (events, tasks) = sample();
        let text = write_prv(&events, &tasks, Nanos(1000));
        let records = parse_prv(&text).unwrap();
        // Kernel enter event present with the right payload.
        assert!(records.iter().any(|r| matches!(
            r,
            PrvRecord::Event { time: 100, pairs, .. }
                if pairs.contains(&(EVTYPE_KERNEL, A::TimerInterrupt.code() as u64))
        )));
        // Mark with two pairs.
        assert!(records.iter().any(|r| matches!(
            r,
            PrvRecord::Event { time: 200, pairs, .. } if pairs.len() == 2
        )));
        // A running state span.
        assert!(records
            .iter()
            .any(|r| matches!(r, PrvRecord::State { state, .. } if *state == STATE_RUNNING)));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_prv("9:1:2:3").is_err());
        assert!(parse_prv("1:1:1:1:1:10:5").is_err(), "short state");
        assert!(parse_prv("1:a:1:1:1:0:5:1").is_err(), "non-numeric");
        // Comments and blanks are fine.
        assert_eq!(parse_prv("#hello\n\n").unwrap().len(), 0);
    }

    #[test]
    fn validate_catches_inverted_state() {
        let bad = "1:1:1:1:1:100:50:1\n";
        assert!(validate_prv(bad, 1, 1).is_err());
    }

    #[test]
    fn activity_states_rendered() {
        let inst = osn_analysis::ActivityInstance {
            activity: A::TimerInterrupt,
            cpu: CpuId(0),
            ctx: Tid(1),
            start: Nanos(100),
            end: Nanos(150),
            self_time: Nanos(50),
            depth: 0,
        };
        let tasks = vec![meta(1, "app")];
        let text = write_activity_states(&[inst], &tasks);
        let records = parse_prv(&text).unwrap();
        assert_eq!(records.len(), 1);
        assert!(matches!(
            records[0],
            PrvRecord::State {
                begin: 100,
                end: 150,
                ..
            }
        ));
    }
}

/// Export only a time window of the trace (the paper's zoomed figures,
/// e.g. Fig 2a's 75 ms window): events and activity states clipped to
/// `[from, to)`, with the header end time set to `to`.
pub fn write_prv_window(
    events: &[Event],
    instances: &[osn_analysis::ActivityInstance],
    tasks: &[TaskMeta],
    from: Nanos,
    to: Nanos,
) -> String {
    let windowed: Vec<Event> = events
        .iter()
        .filter(|e| e.t >= from && e.t < to)
        .copied()
        .collect();
    let clipped: Vec<osn_analysis::ActivityInstance> = instances
        .iter()
        .filter(|i| i.start < to && i.end > from)
        .map(|i| osn_analysis::ActivityInstance {
            start: i.start.max(from),
            end: i.end.min(to),
            ..*i
        })
        .collect();
    write_full_prv(&windowed, &clipped, tasks, to)
}

#[cfg(test)]
mod window_tests {
    use super::*;
    use osn_kernel::activity::Activity as A;
    use osn_kernel::ids::CpuId;

    #[test]
    fn window_clips_events_and_instances() {
        let mk = |t: u64, kind: EventKind| Event {
            t: Nanos(t),
            cpu: CpuId(0),
            tid: Tid(1),
            kind,
        };
        let events = vec![
            mk(10, EventKind::KernelEnter(A::TimerInterrupt)),
            mk(20, EventKind::KernelExit(A::TimerInterrupt)),
            mk(500, EventKind::KernelEnter(A::TimerInterrupt)),
            mk(510, EventKind::KernelExit(A::TimerInterrupt)),
        ];
        let instances = vec![
            osn_analysis::ActivityInstance {
                activity: A::TimerInterrupt,
                cpu: CpuId(0),
                ctx: Tid(1),
                start: Nanos(10),
                end: Nanos(20),
                self_time: Nanos(10),
                depth: 0,
            },
            osn_analysis::ActivityInstance {
                activity: A::TimerInterrupt,
                cpu: CpuId(0),
                ctx: Tid(1),
                start: Nanos(500),
                end: Nanos(510),
                self_time: Nanos(10),
                depth: 0,
            },
        ];
        let tasks = vec![TaskMeta {
            tid: Tid(1),
            name: "t".into(),
            kind: "app".into(),
            job: None,
            rank: 0,
            user_time: Nanos::ZERO,
            faults: 0,
        }];
        let text = write_prv_window(&events, &instances, &tasks, Nanos(0), Nanos(100));
        let records = parse_prv(&text).unwrap();
        // Only the first pair's events and the first instance survive.
        let events = records
            .iter()
            .filter(|r| matches!(r, PrvRecord::Event { .. }))
            .count();
        assert_eq!(events, 2);
        assert!(!text.contains(":500:"));
    }
}
