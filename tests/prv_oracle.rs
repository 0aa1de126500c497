//! Differential test pinning Paraver `.prv` output bytes: the byte-level
//! writers in `osn_paraver::prv` against the `writeln!` writers they
//! replaced, kept here verbatim (taking the event slice the old ones
//! read out of a `Trace`) as the oracle.
//!
//! Inputs are a real simulated run whose task table is perturbed per
//! case: tasks dropped (their events then name tids absent from the
//! table), tasks listed twice (the first position wins), and every
//! non-idle tid moved above 65535 (captured stores carry host tids).

use std::sync::OnceLock;

use proptest::prelude::*;

use osn_analysis::ActivityInstance;
use osn_core::{run_app, AppRun, ExperimentConfig};
use osn_kernel::ids::Tid;
use osn_kernel::task::TaskMeta;
use osn_kernel::time::Nanos;
use osn_trace::{Event, EventKind};
use osn_workloads::App;

/// The writers the byte-level ones replaced.
mod oracle {
    use std::fmt::Write as _;

    use osn_analysis::timeline::{build_timelines, Phase};
    use osn_kernel::ids::Tid;
    use osn_kernel::task::TaskMeta;
    use osn_kernel::time::Nanos;
    use osn_paraver::prv::{EVTYPE_KERNEL, EVTYPE_MARK, EVTYPE_MIGRATE, EVTYPE_WAKEUP};
    use osn_paraver::states::{state_code, STATE_BLOCKED, STATE_READY, STATE_RUNNING};
    use osn_trace::{Event, EventKind};

    pub fn write_prv(events: &[Event], tasks: &[TaskMeta], end: Nanos) -> String {
        let ncpus = events.iter().map(|e| e.cpu.0 as u32 + 1).max().unwrap_or(1);
        let ntasks = tasks.len();
        let mut out = String::with_capacity(events.len() * 32);
        let _ = write!(
            out,
            "#Paraver (16/05/11 at 12:00):{}:1({}):1:{}(",
            end.as_nanos(),
            ncpus,
            ntasks
        );
        for i in 0..ntasks {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "1:1");
        }
        out.push_str(")\n");

        let task_index = |tid: Tid| -> Option<u32> {
            tasks
                .iter()
                .position(|m| m.tid == tid)
                .map(|i| i as u32 + 1)
        };

        let timelines = build_timelines(events, tasks, end);
        for meta in tasks {
            let Some(tl) = timelines.get(meta.tid) else {
                continue;
            };
            let Some(task) = task_index(meta.tid) else {
                continue;
            };
            for span in &tl.spans {
                let (cpu, state) = match span.phase {
                    Phase::Running(c) => (c.0 as u32 + 1, STATE_RUNNING),
                    Phase::Ready(_) => (1, STATE_READY),
                    Phase::Blocked(_) => (1, STATE_BLOCKED),
                    Phase::Gone => continue,
                };
                let _ = writeln!(
                    out,
                    "1:{}:1:{}:1:{}:{}:{}",
                    cpu,
                    task,
                    span.start.as_nanos(),
                    span.end.as_nanos(),
                    state
                );
            }
        }

        for e in events {
            let cpu = e.cpu.0 as u32 + 1;
            match e.kind {
                EventKind::KernelEnter(a) => {
                    if let Some(task) = task_index(e.tid) {
                        let _ = writeln!(
                            out,
                            "2:{}:1:{}:1:{}:{}:{}",
                            cpu,
                            task,
                            e.t.as_nanos(),
                            EVTYPE_KERNEL,
                            a.code()
                        );
                    }
                }
                EventKind::KernelExit(_) => {
                    if let Some(task) = task_index(e.tid) {
                        let _ = writeln!(
                            out,
                            "2:{}:1:{}:1:{}:{}:0",
                            cpu,
                            task,
                            e.t.as_nanos(),
                            EVTYPE_KERNEL
                        );
                    }
                }
                EventKind::AppMark { mark, value } => {
                    if let Some(task) = task_index(e.tid) {
                        let _ = writeln!(
                            out,
                            "2:{}:1:{}:1:{}:{}:{}:{}:{}",
                            cpu,
                            task,
                            e.t.as_nanos(),
                            EVTYPE_MARK,
                            mark,
                            EVTYPE_MARK + 10,
                            value
                        );
                    }
                }
                EventKind::Wakeup { tid, .. } => {
                    if let Some(task) = task_index(tid) {
                        let _ = writeln!(
                            out,
                            "2:{}:1:{}:1:{}:{}:1",
                            cpu,
                            task,
                            e.t.as_nanos(),
                            EVTYPE_WAKEUP
                        );
                    }
                }
                EventKind::Migrate { tid, to, .. } => {
                    if let Some(task) = task_index(tid) {
                        let _ = writeln!(
                            out,
                            "2:{}:1:{}:1:{}:{}:{}",
                            cpu,
                            task,
                            e.t.as_nanos(),
                            EVTYPE_MIGRATE,
                            to.0 + 1
                        );
                    }
                }
                _ => {}
            }
        }
        out
    }

    pub fn write_activity_states(
        instances: &[osn_analysis::ActivityInstance],
        tasks: &[TaskMeta],
    ) -> String {
        let mut out = String::new();
        for inst in instances {
            let Some(task) = tasks.iter().position(|m| m.tid == inst.ctx) else {
                continue;
            };
            let _ = writeln!(
                out,
                "1:{}:1:{}:1:{}:{}:{}",
                inst.cpu.0 as u32 + 1,
                task + 1,
                inst.start.as_nanos(),
                inst.end.as_nanos(),
                state_code(inst.activity)
            );
        }
        out
    }

    pub fn write_full_prv(
        events: &[Event],
        instances: &[osn_analysis::ActivityInstance],
        tasks: &[TaskMeta],
        end: Nanos,
    ) -> String {
        let mut text = write_prv(events, tasks, end);
        text.push_str(&write_activity_states(instances, tasks));
        text
    }
}

fn run() -> &'static AppRun {
    static RUN: OnceLock<AppRun> = OnceLock::new();
    RUN.get_or_init(|| {
        // More ranks than CPUs, so the load balancer migrates tasks.
        let mut config = ExperimentConfig::paper(App::Amg, Nanos::from_millis(120)).with_seed(9);
        config.node.cpus = 2;
        config.nranks = 5;
        run_app(config)
    })
}

/// One case's export inputs: the run's events (softirq raises turned
/// into user marks), instances and task table, half the time with every non-idle tid moved above 65535,
/// then up to three tasks removed from the table and up to three
/// listed again at random positions.
struct Perturbed;

type Inputs = (Vec<Event>, Vec<ActivityInstance>, Vec<TaskMeta>);

impl Strategy for Perturbed {
    type Value = Inputs;

    fn generate(&self, rng: &mut TestRng) -> Inputs {
        let run = run();
        let shift = if rng.below(2) == 0 {
            0
        } else {
            65_536 + rng.below(1 << 20) as u32
        };
        let moved = |t: Tid| if t == Tid::IDLE { t } else { Tid(t.0 + shift) };
        let events: Vec<Event> = run
            .trace
            .events
            .iter()
            .map(|e| {
                let kind = match e.kind {
                    EventKind::SchedSwitch {
                        prev,
                        prev_state,
                        next,
                    } => EventKind::SchedSwitch {
                        prev: moved(prev),
                        prev_state,
                        next: moved(next),
                    },
                    EventKind::Wakeup { tid, waker } => EventKind::Wakeup {
                        tid: moved(tid),
                        waker: moved(waker),
                    },
                    EventKind::Migrate { tid, from, to } => EventKind::Migrate {
                        tid: moved(tid),
                        from,
                        to,
                    },
                    EventKind::TaskExit { tid } => EventKind::TaskExit { tid: moved(tid) },
                    // No workload emits user marks, and neither the
                    // writer nor the timelines read softirq raises:
                    // stand marks in for them.
                    EventKind::SoftirqRaise(_) => EventKind::AppMark {
                        mark: (e.t.as_nanos() % 7) as u32,
                        value: e.t.as_nanos() * 31,
                    },
                    other => other,
                };
                Event {
                    tid: moved(e.tid),
                    kind,
                    ..*e
                }
            })
            .collect();
        let instances = run
            .analysis
            .instances
            .iter()
            .map(|i| ActivityInstance {
                ctx: moved(i.ctx),
                ..*i
            })
            .collect();
        let mut tasks: Vec<TaskMeta> = run
            .result
            .tasks
            .iter()
            .map(|m| TaskMeta {
                tid: moved(m.tid),
                ..m.clone()
            })
            .collect();
        for _ in 0..rng.below(4) {
            if !tasks.is_empty() {
                tasks.remove(rng.below(tasks.len() as u64) as usize);
            }
        }
        for _ in 0..rng.below(4) {
            if !tasks.is_empty() {
                let copy = tasks[rng.below(tasks.len() as u64) as usize].clone();
                tasks.insert(rng.below(tasks.len() as u64 + 1) as usize, copy);
            }
        }
        (events, instances, tasks)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prv_matches_oracle((events, instances, tasks) in Perturbed) {
        let end = run().result.end_time;
        let expected = oracle::write_full_prv(&events, &instances, &tasks, end);
        let got = osn_paraver::write_full_prv(&events, &instances, &tasks, end);
        prop_assert_eq!(got, expected);
        prop_assert_eq!(
            osn_paraver::write_prv(&events, &tasks, end),
            oracle::write_prv(&events, &tasks, end)
        );
        prop_assert_eq!(
            osn_paraver::write_activity_states(&instances, &tasks),
            oracle::write_activity_states(&instances, &tasks)
        );
    }
}

#[test]
fn perturbations_reach_every_case() {
    // The strategy must actually produce each shape the oracle is
    // compared on.
    let mut rng = TestRng::from_seed(1);
    let (mut absent, mut duplicate, mut high) = (false, false, false);
    let all: Vec<Tid> = run().result.tasks.iter().map(|m| m.tid).collect();
    for _ in 0..64 {
        let (_, _, tasks) = Perturbed.generate(&mut rng);
        high |= tasks.iter().any(|m| m.tid.0 > 65_535);
        let mut tids: Vec<u32> = tasks.iter().map(|m| m.tid.0).collect();
        tids.sort_unstable();
        duplicate |= tids.windows(2).any(|w| w[0] == w[1]);
        tids.dedup();
        absent |= tids.len() < all.len();
    }
    assert!(absent && duplicate && high);
    // And the events hold every record kind the writer emits.
    let (events, _, _) = Perturbed.generate(&mut rng);
    let has = |f: fn(&EventKind) -> bool| events.iter().any(|e| f(&e.kind));
    assert!(has(|k| matches!(k, EventKind::KernelEnter(_))));
    assert!(has(|k| matches!(k, EventKind::KernelExit(_))));
    assert!(has(|k| matches!(k, EventKind::SchedSwitch { .. })));
    assert!(has(|k| matches!(k, EventKind::Wakeup { .. })));
    assert!(has(|k| matches!(k, EventKind::Migrate { .. })));
    assert!(has(|k| matches!(k, EventKind::AppMark { .. })));
}

#[test]
fn empty_inputs_match_oracle() {
    let end = Nanos(5);
    assert_eq!(
        osn_paraver::write_full_prv(&[], &[], &[], end),
        oracle::write_full_prv(&[], &[], &[], end)
    );
}
