//! `cluster`: the tiered BSP engine on UMT at 512 ranks (`sampled:1/16`:
//! 32 mechanistic nodes, the rest synthesized from the fitted
//! surrogate), 0.1 s at 1 ms granularity. Many short kernel runs on the
//! worker pool, then the surrogate fit and the BSP coupling; no store
//! I/O. It runs only as a probe between the registered workloads' units.
//! A unit is one campaign.

use std::time::Instant;

use osn_core::{ClusterConfig, Tier, TierMeta};
use osn_kernel::time::Nanos;
use osn_workloads::App;

use crate::layers;
use crate::outcome::{Ctx, Outcome};
use crate::spans::Recorder;
use crate::{stats, Family};

pub struct Cluster {
    trace: bool,
    config: ClusterConfig,
    /// Report bytes from a single-worker run.
    reference: Vec<u8>,
    one_worker_s: f64,
    rec: Recorder,
    /// Wall seconds per unit.
    walls: Vec<f64>,
    tier: Option<TierMeta>,
}

impl Cluster {
    /// The reference report from a single worker, against which every
    /// default-worker run is checked (worker-count invariance).
    pub fn setup(ctx: &mut Ctx) -> Result<Cluster, String> {
        let mut config = ClusterConfig::new(App::Umt, 512, Nanos::from_millis(100));
        config.granularity = Nanos::from_millis(1);
        config.tier = Tier::Sampled {
            fraction: 1.0 / 16.0,
        };
        config.seed = ctx.derive(30);
        let mut one = config.clone();
        one.workers = Some(1);
        let t = Instant::now();
        let (_, reference) = layers::run_cluster(&mut Recorder::new(false), &one);
        Ok(Cluster {
            trace: ctx.trace,
            config,
            reference,
            one_worker_s: t.elapsed().as_secs_f64(),
            rec: ctx.recorder(30),
            walls: Vec::new(),
            tier: None,
        })
    }
}

impl Family for Cluster {
    fn unit(&mut self, out: &mut Outcome) -> Result<(), String> {
        let k = self.walls.len() as u64;
        let t = Instant::now();
        let (tier, same) = self.rec.unit("unit.cluster", k, |rec| {
            let (outcome, json) = layers::run_cluster(rec, &self.config);
            (outcome.report.tier.clone(), json == self.reference)
        });
        self.walls.push(t.elapsed().as_secs_f64());
        out.check(same, || {
            format!("cluster: run {k} differs from the one-worker reference")
        });
        self.tier = Some(tier.ok_or("cluster report carries no tier metadata")?);
        Ok(())
    }

    fn ready(&self) -> bool {
        !self.walls.is_empty()
    }

    fn finish(mut self: Box<Self>, ctx: &mut Ctx) -> Result<(), String> {
        let nodes = self.config.nodes as f64;
        if !self.trace {
            let total: f64 = self.walls.iter().sum();
            let per_unit = self.walls.iter().map(|w| nodes / w).collect();
            ctx.out.ratio(
                "cluster_ranks_per_s",
                nodes * self.walls.len() as f64 / total,
                per_unit,
            );
            ctx.keep(self.rec);
            return Ok(());
        }

        // Every planned node's simulation timed alone on one thread; the
        // single-worker wall less their sum is the coupling cost.
        let plan = self.config.sample_plan();
        let config = &self.config;
        let node_sim_ms = self.rec.unit("unit.cluster_layers", 0, |rec| {
            let t = Instant::now();
            for &i in &plan.mechanistic {
                std::hint::black_box(layers::node_simulation(rec, config, i));
            }
            t.elapsed().as_secs_f64() * 1e3
        });
        let tier = self.tier.take().ok_or("no cluster unit ran")?;
        let out = &mut ctx.out;
        out.value("cluster.mech_nodes", tier.mechanistic_nodes as f64);
        out.value("cluster.synthetic_nodes", tier.synthetic_nodes as f64);
        out.value("cluster.node_sim_ms", node_sim_ms);
        out.value("cluster.couple_ms", self.one_worker_s * 1e3 - node_sim_ms);
        out.value(
            "cluster.worker_speedup",
            self.one_worker_s / stats::median(&stats::sorted(&self.walls)),
        );
        out.value(
            "cluster.tier_validation_err",
            tier.validation
                .iter()
                .map(|v| (v.ratio - 1.0).abs())
                .fold(0.0, f64::max),
        );
        ctx.keep(self.rec);
        Ok(())
    }
}
