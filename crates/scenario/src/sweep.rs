//! The replica-sweep primitives [`run_scenario`](crate::run_scenario)
//! is built on.
//!
//! Every scenario repeats some unit of work — a variant's base-seed
//! run, its seeded replicas, a Table 1 micro-scenario — and aggregates
//! the results:
//!
//! 1. **seed fanout** — replica `i` runs with
//!    `SimRng::stream_seed(base_seed, i)`, a pure function of the pair,
//!    so a replica's randomness never depends on execution order;
//! 2. **parallel run** — [`fanout`] maps the work function over the
//!    jobs through the rayon shim with an order-preserving collect;
//! 3. **aggregation** — results are folded **in replica order** into
//!    [`ReplicaStats`] / [`Summary`], so sequential (`RAYON_NUM_THREADS=1`)
//!    and multi-threaded sweeps produce byte-identical aggregates
//!    (`tests/parallel_determinism.rs` locks this down).

use meryn_core::report::RunReport;
use meryn_sim::stats::{OnlineStats, Summary};
use meryn_sim::SimRng;
use rayon::prelude::*;
use serde::Serialize;

use crate::paper::measure_case;

/// Base seed a scenario sweeps from unless its spec says otherwise —
/// the seed of every shipped spec's headline runs (Fig 5/6 included).
pub const DEFAULT_BASE_SEED: u64 = 0xC0FFEE;

/// Runs `work` over `items` in parallel (rayon shim), preserving input
/// order in the output — the one fanout every scenario run goes through.
pub fn fanout<T, U, F>(items: Vec<T>, work: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync + Send,
{
    items.into_par_iter().map(work).collect()
}

/// Aggregates of one policy's replica sweep: the four headline metrics
/// of the paper's evaluation, each as mean ± std.
///
/// Determinism caveat: the underlying Welford accumulators are
/// insertion-order-sensitive at the bit level, so thread-count
/// independence comes from [`Self::from_reports`] always folding in
/// replica order (after the order-preserving parallel collect) — do not
/// feed results in completion order.
#[derive(Debug, Clone, Serialize)]
pub struct ReplicaStats {
    /// Workload completion time [s].
    pub completion: OnlineStats,
    /// Total provider cost [units].
    pub cost: OnlineStats,
    /// Peak number of leased cloud VMs.
    pub peak_cloud: OnlineStats,
    /// SLA violations.
    pub violations: OnlineStats,
}

impl ReplicaStats {
    /// Folds the reports in the given (replica) order.
    pub fn from_reports(reports: &[RunReport]) -> Self {
        let mut stats = ReplicaStats {
            completion: OnlineStats::new(),
            cost: OnlineStats::new(),
            peak_cloud: OnlineStats::new(),
            violations: OnlineStats::new(),
        };
        for r in reports {
            stats.completion.push(r.completion_secs());
            stats.cost.push(r.total_cost().as_units_f64());
            stats.peak_cloud.push(r.peak_cloud);
            stats.violations.push(r.violations() as f64);
        }
        stats
    }
}

/// Sweeps one Table 1 placement case over `samples` derived seeds and
/// summarizes the measured processing times [s].
pub fn case_sweep(case: &str, base_seed: u64, samples: u64) -> Summary {
    let seeds = (0..samples)
        .map(|i| SimRng::stream_seed(base_seed, i))
        .collect();
    Summary::from_slice(&fanout(seeds, |seed| measure_case(case, seed)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::run_paper;

    #[test]
    fn fanout_preserves_order() {
        let out = fanout((0..100u64).collect(), |x| x * x);
        assert_eq!(out, (0..100u64).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn paper_sweep_aggregates_every_replica() {
        let seeds = (0..3)
            .map(|i| SimRng::stream_seed(DEFAULT_BASE_SEED, i))
            .collect();
        let stats = ReplicaStats::from_reports(&fanout(seeds, |seed| run_paper("meryn", seed)));
        assert_eq!(stats.completion.count(), 3);
        assert!(stats.completion.mean() > 0.0);
        assert_eq!(stats.peak_cloud.count(), 3);
    }

    #[test]
    fn case_sweep_stays_positive() {
        let s = case_sweep("local-vm", DEFAULT_BASE_SEED, 5);
        assert_eq!(s.count(), 5);
        assert!(s.min() > 0.0);
    }
}
