//! The platform facade: deployment, event loop and reporting.
//!
//! The paper's prototype glues its components together with shell
//! scripts over two Snooze installations; here the glue is the sharded
//! discrete-event engine in [`crate::engine`] — a [`VcShard`] state
//! machine per Virtual Cluster, a [`SharedFabric`] for the singletons
//! (pool, clouds, ledger, metrics) and a [`ShardExecutor`] that merges
//! their queues into one deterministic schedule and fans same-instant
//! shard batches out across worker threads.
//!
//! `Platform` keeps the historical surface — `new → run → RunReport` —
//! as a thin veneer over the executor, so drivers, benches and tests
//! are unaffected by the monolith's decomposition.

use std::borrow::Borrow;

use meryn_vmm::{Ledger, PrivatePool, PublicCloud};
use meryn_workloads::Submission;

use crate::app::Application;
use crate::cluster_manager::VirtualCluster;
use crate::config::PlatformConfig;
use crate::engine::{EngineCheckpoint, ShardExecutor, StreamError};
use crate::ids::AppId;
use crate::report::{ReportMode, RunReport};

/// The assembled Meryn platform.
pub struct Platform {
    exec: ShardExecutor,
}

impl Platform {
    /// Deploys the platform described by `cfg` (see
    /// [`ShardExecutor::new`] for the deployment choreography).
    pub fn new(cfg: PlatformConfig) -> Self {
        Platform {
            exec: ShardExecutor::new(cfg),
        }
    }

    /// Sets whether the used-VM step curves are sampled (on by
    /// default). Peaks are tracked either way; only the full
    /// step-series sample vectors are skipped when off.
    pub fn with_series_recording(mut self, on: bool) -> Self {
        self.exec.set_series_recording(on);
        self
    }

    /// Selects the reporting mode (see [`ReportMode`]). In
    /// [`ReportMode::Aggregate`] the engine retires each application as
    /// it completes, folding it into running per-VC totals, so resident
    /// memory stays `O(live applications)` instead of `O(history)` —
    /// the hyperscale configuration. Must be called before any events
    /// are processed.
    pub fn with_report_mode(mut self, mode: ReportMode) -> Self {
        self.exec.set_report_mode(mode);
        self
    }

    /// Restores a platform from a [`checkpoint`](Self::checkpoint)
    /// taken on a run whose workload was fully enqueued up front.
    /// Resuming walks the exact event trajectory of the uninterrupted
    /// run — reports are byte-identical.
    pub fn from_checkpoint(cp: EngineCheckpoint) -> Self {
        Platform {
            exec: ShardExecutor::from_checkpoint(cp),
        }
    }

    /// Restores a platform from a checkpoint taken on a streaming run
    /// ([`Self::stream_workload`]). `workload` must be the same
    /// deterministic submission sequence the original run streamed; the
    /// engine skips the already-consumed prefix using the checkpoint's
    /// cursor.
    pub fn from_checkpoint_streaming<I>(cp: EngineCheckpoint, workload: I) -> Self
    where
        I: IntoIterator<Item = Submission>,
        I::IntoIter: Send + 'static,
    {
        Platform {
            exec: ShardExecutor::from_checkpoint_streaming(cp, workload),
        }
    }

    /// Snapshots the complete engine state — shard state machines,
    /// shared fabric (pool, clouds, ledger, metrics, RNG stream
    /// positions), queues and the streaming cursor — at the current
    /// instant. Serializable with serde; see
    /// [`Self::from_checkpoint`] / [`Self::from_checkpoint_streaming`].
    pub fn checkpoint(&self) -> EngineCheckpoint {
        self.exec.checkpoint()
    }

    /// Enqueues a workload's arrivals. Accepts owned and borrowed
    /// submissions alike (`Vec<Submission>`, `&[Submission]`, any
    /// iterator of either), so drivers never clone a workload to feed
    /// the platform.
    pub fn enqueue_workload<I>(&mut self, workload: I)
    where
        I: IntoIterator,
        I::Item: Borrow<Submission>,
    {
        self.exec.enqueue_workload(workload);
    }

    /// Feeds `count` arrivals lazily from `workload` instead of
    /// enqueueing them up front — the event queue holds only the next
    /// pending arrival, so a 10-million-submission quarter costs O(1)
    /// arrival memory. Byte-identical to [`Self::enqueue_workload`]
    /// with the same submissions. Errs if a stream is already attached
    /// (one streamed workload per run).
    pub fn stream_workload<I>(&mut self, count: u64, workload: I) -> Result<(), StreamError>
    where
        I: IntoIterator<Item = Submission>,
        I::IntoIter: Send + 'static,
    {
        self.exec.stream_workload(count, workload)
    }

    /// Processes one event; `false` when all queues are drained.
    ///
    /// The single-step path applies each event's effects at once; the
    /// batched [`Self::run_to_completion`] loop produces the same trajectory
    /// (that equivalence is pinned by the engine's determinism tests).
    pub fn step(&mut self) -> bool {
        self.exec.step()
    }

    /// Drains the event queues through the batched executor loop.
    pub fn run_to_completion(&mut self) {
        self.exec.run_to_completion();
    }

    /// Runs until the next event is due strictly after `stop`, leaving
    /// the engine on a clean instant boundary (a safe point to
    /// [`checkpoint`](Self::checkpoint)). Returns `true` if events
    /// remain past `stop`, `false` when the queues drained first.
    pub fn run_until(&mut self, stop: meryn_sim::SimTime) -> bool {
        self.exec.run_until(stop)
    }

    /// **The** entry point for external drivers: enqueues `workload`,
    /// drains the event loop and reports. Equivalent to
    /// [`Self::enqueue_workload`] + [`Self::run_to_completion`] +
    /// [`Self::finalize`]; use those pieces directly only when stepping
    /// or inspecting mid-run state.
    pub fn run<I>(mut self, workload: I) -> RunReport
    where
        I: IntoIterator,
        I::Item: Borrow<Submission>,
    {
        self.enqueue_workload(workload);
        self.run_to_completion();
        self.finalize()
    }

    // ---- accessors (used by tests and examples) ---------------------------

    /// The deployed Virtual Clusters, `VcId` order.
    pub fn vcs(&self) -> impl Iterator<Item = &VirtualCluster> {
        self.exec.shards.iter().map(|s| &s.vc)
    }

    /// The private pool.
    pub fn pool(&self) -> &PrivatePool {
        &self.exec.fabric.pool
    }

    /// The public clouds.
    pub fn clouds(&self) -> &[PublicCloud] {
        &self.exec.fabric.clouds
    }

    /// Looks one application up across shards.
    pub fn app(&self, id: AppId) -> Option<&Application> {
        self.exec.app(id)
    }

    /// The billing ledger.
    pub fn ledger(&self) -> &Ledger {
        &self.exec.fabric.ledger
    }

    /// Current simulation instant.
    pub fn now(&self) -> meryn_sim::SimTime {
        self.exec.now()
    }

    /// Same-instant event runs so far that spanned two or more shards,
    /// whose effects the canonical key sort merged.
    pub fn parallel_runs(&self) -> u64 {
        self.exec.parallel_runs()
    }

    /// Audits the shared fabric's conservation invariants: active-VM
    /// counters recounted against VM states, busy counters bounded by
    /// active ones. `Err` carries the first violated invariant. The
    /// checkpoint tests run this after a restore and after a run
    /// drains, where any violation means a snapshot or state-machine
    /// bug rather than a mid-event transient.
    pub fn audit_invariants(&self) -> Result<(), String> {
        self.exec.audit_invariants()
    }

    /// Per-shard processed-event counters as `(vc name, events)` pairs,
    /// plus the control plane under the name `"control"` — the
    /// `scenario --bench` breakdown.
    pub fn shard_event_counts(&self) -> Vec<(String, u64)> {
        let mut counts = vec![("control".to_owned(), self.exec.control_events_processed())];
        counts.extend(
            self.exec
                .shards
                .iter()
                .map(|s| (s.vc.name.clone(), s.events_processed())),
        );
        counts
    }

    /// Builds the final report. Consumes the platform.
    pub fn finalize(self) -> RunReport {
        self.exec.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PlatformConfig, VcConfig};
    use meryn_frameworks::{JobSpec, ScalingLaw};
    use meryn_sim::{SimDuration, SimTime};
    use meryn_sla::negotiation::UserStrategy;
    use meryn_sla::Money;
    use meryn_workloads::{Submission, VcTarget};

    fn batch_sub(at_secs: u64, vc: usize, work_secs: u64) -> Submission {
        Submission::new(
            SimTime::from_secs(at_secs),
            VcTarget::Index(vc),
            JobSpec::Batch {
                work: SimDuration::from_secs(work_secs),
                nb_vms: 1,
                scaling: ScalingLaw::Fixed,
            },
            UserStrategy::AcceptCheapest,
        )
    }

    fn small_cfg(policy: &str) -> PlatformConfig {
        let mut cfg = PlatformConfig::paper(policy);
        cfg.private_capacity = 4;
        cfg.vcs = vec![VcConfig::batch("VC1", 2), VcConfig::batch("VC2", 2)];
        cfg
    }

    #[test]
    fn single_app_runs_locally() {
        let cfg = small_cfg("meryn");
        let report = Platform::new(cfg).run([batch_sub(5, 0, 100)]);
        assert_eq!(report.apps.len(), 1);
        let a = &report.apps[0];
        assert_eq!(a.placement, "local-vm");
        assert!(!a.violated);
        // Processing 7–15 s, exec 100 s.
        let p = a.processing.unwrap();
        assert!(p >= SimDuration::from_secs(7) && p <= SimDuration::from_secs(15));
        assert_eq!(a.exec, SimDuration::from_secs(100));
        // Cost: 100 s × 1 VM × 2 u/s.
        assert_eq!(a.cost, Money::from_units(200));
        assert_eq!(report.violations(), 0);
        assert_eq!(report.transfers, 0);
        assert_eq!(report.bursts, 0);
    }

    #[test]
    fn overflow_takes_sibling_idle_vms_in_meryn() {
        let cfg = small_cfg("meryn");
        // Three apps to VC1 (2 slots): the third gets VC2's idle VM.
        let subs = vec![
            batch_sub(5, 0, 500),
            batch_sub(10, 0, 500),
            batch_sub(15, 0, 500),
        ];
        let report = Platform::new(cfg).run(&subs);
        assert_eq!(report.apps.len(), 3);
        assert_eq!(report.transfers, 1);
        assert_eq!(report.bursts, 0);
        let third = &report.apps[2];
        assert_eq!(third.placement, "vc-vm");
        // Transfer path processing: base + stop + boot ≈ 40–58 s.
        let p = third.processing.unwrap();
        assert!(
            p >= SimDuration::from_secs(35) && p <= SimDuration::from_secs(65),
            "vc-vm processing out of calibrated range: {p}"
        );
        assert_eq!(report.violations(), 0);
    }

    #[test]
    fn overflow_bursts_to_cloud_in_static() {
        let cfg = small_cfg("static");
        let subs = vec![
            batch_sub(5, 0, 500),
            batch_sub(10, 0, 500),
            batch_sub(15, 0, 500),
        ];
        let report = Platform::new(cfg).run(&subs);
        assert_eq!(report.transfers, 0);
        assert_eq!(report.bursts, 1);
        let third = &report.apps[2];
        assert_eq!(third.placement, "cloud-vm");
        let p = third.processing.unwrap();
        assert!(
            p >= SimDuration::from_secs(60) && p <= SimDuration::from_secs(84),
            "cloud processing out of Table 1 range: {p}"
        );
        // Cloud cost: exec ≈ 500/0.928 ≈ 539 s at 4 u/s.
        assert!(third.cost > Money::from_units(2000));
        assert_eq!(report.violations(), 0);
        assert_eq!(report.peak_cloud, 1.0);
    }

    #[test]
    fn cloud_vms_are_released_after_completion() {
        let cfg = small_cfg("static");
        let subs = vec![
            batch_sub(5, 0, 300),
            batch_sub(10, 0, 300),
            batch_sub(15, 0, 300),
        ];
        let mut platform = Platform::new(cfg);
        platform.enqueue_workload(&subs);
        while platform.step() {}
        assert_eq!(platform.clouds()[0].active_count(), 0);
        let report = platform.finalize();
        assert!(report.cloud_bill > Money::ZERO);
        // The series returns to zero at the end.
        assert_eq!(report.series.get(1).last(), 0.0);
    }

    #[test]
    fn deterministic_across_identical_runs() {
        let subs: Vec<Submission> = (0..8)
            .map(|i| batch_sub(5 + i * 5, (i % 2) as usize, 400))
            .collect();
        let r1 = Platform::new(small_cfg("meryn")).run(&subs);
        let r2 = Platform::new(small_cfg("meryn")).run(&subs);
        assert_eq!(
            serde_json::to_string(&r1).unwrap(),
            serde_json::to_string(&r2).unwrap()
        );
    }

    #[test]
    fn stepped_loop_matches_batched_executor() {
        // The one-event-at-a-time `step` path and the batched
        // `run_to_completion` path must walk the same
        // trajectory.
        let subs: Vec<Submission> = (0..12)
            .map(|i| batch_sub(5 + (i / 4) * 5, (i % 2) as usize, 150 + i * 30))
            .collect();
        let batched = Platform::new(small_cfg("meryn")).run(&subs);
        let mut stepped = Platform::new(small_cfg("meryn"));
        stepped.enqueue_workload(&subs);
        while stepped.step() {}
        let stepped = stepped.finalize();
        assert_eq!(
            serde_json::to_string(&batched).unwrap(),
            serde_json::to_string(&stepped).unwrap()
        );
    }

    #[test]
    fn different_seeds_change_latencies_not_outcomes() {
        let subs = vec![batch_sub(5, 0, 100)];
        let r1 = Platform::new(small_cfg("meryn").with_seed(1)).run(&subs);
        let r2 = Platform::new(small_cfg("meryn").with_seed(2)).run(&subs);
        assert_eq!(r1.apps[0].placement, r2.apps[0].placement);
        assert_eq!(r1.apps[0].exec, r2.apps[0].exec);
        assert_ne!(r1.apps[0].processing, r2.apps[0].processing);
    }

    #[test]
    fn suspension_lending_roundtrip() {
        // One VC, one VM, no clouds. App A (generous deadline) runs;
        // app B arrives and the only option is suspending A. When B
        // finishes, A resumes and completes.
        let mut cfg = PlatformConfig::paper("meryn");
        cfg.private_capacity = 1;
        cfg.vcs = vec![VcConfig::batch("VC1", 1)];
        cfg.clouds.clear();
        let subs = vec![
            Submission::new(
                SimTime::from_secs(5),
                VcTarget::Index(0),
                JobSpec::Batch {
                    work: SimDuration::from_secs(500),
                    nb_vms: 1,
                    scaling: ScalingLaw::Fixed,
                },
                UserStrategy::ImposeDeadline {
                    deadline: SimDuration::from_secs(50_000),
                    concession_pct: 10,
                },
            ),
            batch_sub(40, 0, 100),
        ];
        let report = Platform::new(cfg).run(&subs);
        assert_eq!(report.apps.len(), 2);
        assert_eq!(report.suspensions, 1);
        let a = &report.apps[0];
        let b = &report.apps[1];
        assert_eq!(b.placement, "local-vm after suspension");
        assert_eq!(a.suspensions, 1);
        // Both completed; A's exec time is still ~500 s of work.
        assert!(a.completed.is_some());
        assert!(b.completed.is_some());
        assert_eq!(a.exec, SimDuration::from_secs(500));
        // A had a generous deadline: no violation.
        assert_eq!(report.violations(), 0);
        // B finished before A.
        assert!(b.completed.unwrap() < a.completed.unwrap());
    }

    #[test]
    fn queue_decision_when_no_capacity_anywhere() {
        let mut cfg = PlatformConfig::paper("meryn");
        cfg.private_capacity = 1;
        cfg.vcs = vec![VcConfig::batch("VC1", 1)];
        cfg.clouds.clear();
        // Use nb_vms = 2 for the second app so nothing can hold it and
        // it queues.
        let subs = vec![
            batch_sub(5, 0, 300),
            Submission::new(
                SimTime::from_secs(10),
                VcTarget::Index(0),
                JobSpec::Batch {
                    work: SimDuration::from_secs(100),
                    nb_vms: 2,
                    scaling: ScalingLaw::Fixed,
                },
                UserStrategy::AcceptCheapest,
            ),
        ];
        let report = Platform::new(cfg).run(&subs);
        // The 2-VM app can never run (only 1 VM exists) and waits in the
        // framework forever; the run still terminates with it queued.
        assert_eq!(report.apps.len(), 2);
        assert!(report.apps[0].completed.is_some());
        assert!(report.apps[1].completed.is_none());
    }

    #[test]
    fn ledger_matches_app_costs() {
        let cfg = small_cfg("meryn");
        let subs = vec![batch_sub(5, 0, 200), batch_sub(10, 1, 200)];
        let mut platform = Platform::new(cfg);
        platform.enqueue_workload(&subs);
        while platform.step() {}
        let ledger_total = platform.ledger().total();
        let report = platform.finalize();
        assert_eq!(report.total_cost(), ledger_total);
    }

    #[test]
    fn mapreduce_vc_hosts_mapreduce_jobs() {
        let mut cfg = PlatformConfig::paper("meryn");
        cfg.private_capacity = 4;
        cfg.vcs = vec![VcConfig::batch("batch", 2), VcConfig::mapreduce("mr", 2)];
        let sub = Submission::new(
            SimTime::from_secs(5),
            VcTarget::Index(1),
            JobSpec::MapReduce {
                map_tasks: 8,
                map_work: SimDuration::from_secs(30),
                reduce_tasks: 2,
                reduce_work: SimDuration::from_secs(60),
                nb_vms: 2,
                slots_per_vm: 2,
            },
            UserStrategy::AcceptCheapest,
        );
        let report = Platform::new(cfg).run([sub]);
        assert_eq!(report.apps.len(), 1);
        assert!(report.apps[0].completed.is_some());
        // 8 maps / 4 slots = 2 waves ×30 + 1 reduce wave ×60 = 120 s at
        // reference speed.
        assert_eq!(report.apps[0].exec, SimDuration::from_secs(120));
    }

    #[test]
    fn type_mismatch_is_rejected() {
        let cfg = small_cfg("meryn");
        let sub = Submission::new(
            SimTime::from_secs(5),
            VcTarget::Index(0),
            JobSpec::MapReduce {
                map_tasks: 1,
                map_work: SimDuration::from_secs(1),
                reduce_tasks: 0,
                reduce_work: SimDuration::ZERO,
                nb_vms: 1,
                slots_per_vm: 1,
            },
            UserStrategy::AcceptCheapest,
        );
        let report = Platform::new(cfg).run([sub]);
        assert_eq!(report.apps.len(), 0);
        assert_eq!(report.rejected, 1);
    }

    #[test]
    fn shard_event_counts_cover_all_events() {
        let cfg = small_cfg("meryn");
        let subs = vec![batch_sub(5, 0, 200), batch_sub(10, 1, 200)];
        let mut platform = Platform::new(cfg);
        platform.enqueue_workload(&subs);
        platform.run_to_completion();
        let counts = platform.shard_event_counts();
        assert_eq!(counts.len(), 3); // control + 2 shards
        assert_eq!(counts[0].0, "control");
        let total: u64 = counts.iter().map(|(_, n)| n).sum();
        let report = platform.finalize();
        assert_eq!(total, report.events_processed);
        assert!(report.events_processed > 0);
    }
}
