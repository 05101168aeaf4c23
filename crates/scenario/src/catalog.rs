//! The shipped scenario catalog.
//!
//! Every experiment of the paper's evaluation and every ablation is one
//! constructor here, run by the `scenario` binary (`scenario
//! scenarios/<name>.json`, or `scenario --catalog <name>` for the
//! catalog-only entries). Every checked-in `scenarios/*.json` file is
//! the exact [`Scenario::to_json`] bytes of one constructor —
//! `tests/scenario_roundtrip.rs` byte-compares them, so the files and
//! this catalog can never drift apart.

use meryn_core::config::{FaultSpec, OutageWindow, PlatformConfig, VcConfig, ViolationPolicy};
use meryn_frameworks::{FrameworkKind, JobSpec, ScalingLaw};
use meryn_sim::{SimDuration, SimTime};
use meryn_sla::negotiation::UserStrategy;
use meryn_sla::VmRate;
use meryn_vmm::{LatencyModel, PriceModel};
use meryn_workloads::generators::{ArrivalProcess, GeneratorConfig, WorkDistribution};
use meryn_workloads::{PaperWorkloadParams, Submission, VcTarget};

use crate::paper::batch_sub;
use crate::spec::{OutputSpec, Scenario, SweepAxis, SweepSpec, WorkloadSpec};

/// The paper's full evaluation: the 65-app workload under `meryn` and
/// `static`, the Figure 6 comparison, and the Table 1 placement
/// micro-scenarios — the repository's golden numbers (peak cloud VMs
/// 15 vs 25, cost saved 35800 u) come out of this spec.
pub fn paper() -> Scenario {
    Scenario {
        name: "paper".into(),
        description: "The paper's evaluation (§5): 65 batch apps, 5 s apart, 50/15 across \
                      two 25-VM VCs, meryn vs static — reproduces Fig 5/6 and Table 1."
            .into(),
        platform: PlatformConfig::paper("meryn"),
        workload: WorkloadSpec::Paper(PaperWorkloadParams::default()),
        sweep: SweepSpec {
            replicas: 30,
            axes: vec![SweepAxis::Policy {
                values: vec!["meryn".into(), "static".into()],
            }],
            ..Default::default()
        },
        outputs: OutputSpec {
            summary: true,
            placements: true,
            series: false,
            comparison: true,
            table1_samples: Some(100),
            aggregate: false,
        },
    }
}

/// Arrival pressure sweep: the paper workload compressed to 5/2/1 s
/// inter-arrivals under both policies — where the exchange protocol's
/// advantage over static bursting widens.
pub fn high_load() -> Scenario {
    Scenario {
        name: "high-load".into(),
        description: "Inter-arrival sweep (5/2/1 s) of the paper workload under meryn and \
                      static: the cost gap is the cloud spend avoided by VC exchange."
            .into(),
        platform: PlatformConfig::paper("meryn"),
        workload: WorkloadSpec::Paper(PaperWorkloadParams::default()),
        sweep: SweepSpec {
            replicas: 3,
            axes: vec![
                SweepAxis::Policy {
                    values: vec!["meryn".into(), "static".into()],
                },
                SweepAxis::InterarrivalSecs {
                    values: vec![5, 2, 1],
                },
            ],
            ..Default::default()
        },
        outputs: OutputSpec {
            placements: true,
            ..Default::default()
        },
    }
}

/// Cloud price sensitivity: scales the cloud market to 0.5×/1×/2× the
/// paper's rate under every built-in policy worth comparing, including
/// `cost-greedy`, which starts preferring the cloud once it undercuts
/// the private cost rate.
pub fn cheap_cloud() -> Scenario {
    Scenario {
        name: "cheap-cloud".into(),
        description: "Cloud price factor sweep (0.5/1/2x) under meryn, static and \
                      cost-greedy: at 0.5x the cloud (2 u/VMs) matches the private cost \
                      rate and cost-greedy bursts everything."
            .into(),
        platform: PlatformConfig::paper("meryn"),
        workload: WorkloadSpec::Paper(PaperWorkloadParams::default()),
        sweep: SweepSpec {
            replicas: 3,
            axes: vec![
                SweepAxis::CloudPriceFactor {
                    values: vec![0.5, 1.0, 2.0],
                },
                SweepAxis::Policy {
                    values: vec!["meryn".into(), "static".into(), "cost-greedy".into()],
                },
            ],
            ..Default::default()
        },
        outputs: OutputSpec::default(),
    }
}

/// Ablation A3's hard switch as a scenario: the paper workload with
/// suspension bids enabled vs disabled (penalty factor 4 makes
/// suspensions competitive enough to matter).
pub fn no_suspension() -> Scenario {
    let mut platform = PlatformConfig::paper("meryn");
    platform.penalty_factor = 4;
    Scenario {
        name: "no-suspension".into(),
        description: "Suspension on/off at penalty factor N=4 (where Algorithm 2 bids are \
                      competitive): disabling suspension pushes the overflow back to the \
                      cloud."
            .into(),
        platform,
        workload: WorkloadSpec::Paper(PaperWorkloadParams::default()),
        sweep: SweepSpec {
            replicas: 3,
            axes: vec![SweepAxis::SuspensionEnabled {
                values: vec![true, false],
            }],
            ..Default::default()
        },
        outputs: OutputSpec {
            placements: true,
            ..Default::default()
        },
    }
}

/// The long-horizon "representative data-center" experiment the paper
/// leaves as future work: ~100k generated submissions over a simulated
/// month, diurnal arrivals and cloud pricing, three VCs (two batch, one
/// MapReduce) on a 40-slot private estate — sized so day peaks overflow
/// into the cloud. This is also the engine-throughput benchmark target
/// (`scenario --bench`, `BENCH_4.json`).
pub fn representative_datacenter() -> Scenario {
    let mut platform = PlatformConfig::paper("meryn");
    platform.private_capacity = 40;
    platform.vcs = vec![
        VcConfig::batch("batch-a", 18),
        VcConfig::batch("batch-b", 12),
        VcConfig::mapreduce("mapred", 10),
    ];
    platform.clouds[0].price = PriceModel::Diurnal {
        base: VmRate::per_vm_second(4),
        amplitude_pct: 25,
        period: SimDuration::from_secs(86_400),
    };
    // Long jobs (up to 4 h): a 5-minute SLA check cadence is realistic
    // and keeps the controller from dominating the event stream.
    platform.controller_check_interval = Some(SimDuration::from_secs(300));
    Scenario {
        name: "representative-datacenter".into(),
        description: "A representative data-center month: 100k Poisson-diurnal submissions \
                      (heavy-tailed runtimes, 3:1 batch:MapReduce) on a 40-VM private estate \
                      with a diurnally-priced cloud, meryn vs static — the engine-throughput \
                      benchmark scenario."
            .into(),
        platform,
        workload: WorkloadSpec::Generated {
            config: GeneratorConfig {
                count: 100_000,
                arrivals: ArrivalProcess::Diurnal {
                    mean: SimDuration::from_secs(26),
                    depth: 0.8,
                    period: SimDuration::from_secs(86_400),
                },
                work: WorkDistribution::BoundedPareto {
                    lo: SimDuration::from_secs(120),
                    hi: SimDuration::from_secs(14_400),
                    alpha: 1.3,
                },
                nb_vms_choices: vec![1, 1, 1, 2, 4],
                targets: vec![
                    (VcTarget::Index(0), 3),
                    (VcTarget::Index(1), 2),
                    (VcTarget::Kind(FrameworkKind::MapReduce), 1),
                ],
                strategy: UserStrategy::AcceptCheapest,
                scaling: ScalingLaw::Linear,
            },
            seed: 0xDC,
        },
        sweep: SweepSpec {
            replicas: 0,
            axes: vec![SweepAxis::Policy {
                values: vec!["meryn".into(), "static".into()],
            }],
            ..Default::default()
        },
        outputs: OutputSpec {
            summary: true,
            placements: true,
            series: false,
            comparison: true,
            table1_samples: None,
            aggregate: false,
        },
    }
}

/// The multi-shard merge showcase: sixteen batch VCs, each large
/// enough that one arrival cohort exactly fills it, with every latency
/// that feeds the choreography held *fixed*. Cohorts of 1024
/// submissions land at one instant (negotiation sizes each job at two
/// VMs, so a cohort occupies all 2048 slots), so their Cluster-Manager
/// handoffs, dispatches, completions and (interval-aligned)
/// Application Controller checks all share instants too — every such
/// instant is a ~1k-event batch spread evenly across all sixteen
/// shards, which the executor processes shard by shard and merges by
/// canonical key. CI gates its run width (`parallel_runs`, the runs
/// spanning two or more shards) and byte-compares its report at any
/// `RAYON_NUM_THREADS`. The spec's description string still names the
/// retired thread-speedup gate; it is part of the golden, so it changes
/// only with the next re-baseline.
pub fn many_vc() -> Scenario {
    let mut platform = PlatformConfig::paper("meryn");
    platform.private_capacity = 2048;
    platform.vcs = (0..16)
        .map(|i| VcConfig::batch(format!("vc-{i:02}"), 128))
        .collect();
    // A fixed handling latency keeps a cohort's submits on one shared
    // instant (the paper's uniform 7–15 s draw would fan one cohort
    // out over thousands of distinct instants and serialize the run).
    platform.latencies.base = LatencyModel::Fixed(SimDuration::from_secs(10));
    Scenario {
        name: "many-vc".into(),
        description: "Shard-parallelism showcase: 16 batch VCs of 128 VMs, 1024-submission \
                      cohorts with fixed latencies and work — aligned controller ticks make \
                      ~1k-event cross-shard batches (the CI thread-speedup gate scenario)."
            .into(),
        platform,
        workload: WorkloadSpec::Generated {
            config: GeneratorConfig {
                count: 8192,
                arrivals: ArrivalProcess::Bursty {
                    burst_len: 1024,
                    fast: SimDuration::ZERO,
                    idle: SimDuration::from_secs(2400),
                },
                work: WorkDistribution::Fixed(SimDuration::from_secs(1800)),
                nb_vms_choices: vec![1],
                targets: (0..16).map(|i| (VcTarget::Index(i), 1)).collect(),
                strategy: UserStrategy::AcceptCheapest,
                scaling: ScalingLaw::Linear,
            },
            seed: 0x16C5,
        },
        sweep: SweepSpec {
            replicas: 0,
            axes: Vec::new(),
            ..Default::default()
        },
        outputs: OutputSpec {
            summary: true,
            placements: false,
            series: false,
            comparison: false,
            table1_samples: None,
            aggregate: false,
        },
    }
}

/// The hyperscale survival run: 1024 single-VM batch VCs and ten
/// million Poisson-diurnal submissions over a simulated quarter
/// (~89 days at a 770 ms mean gap). Runs in aggregate report mode —
/// applications retire into per-VC running totals the moment they
/// complete, ledger entries are dropped at charge time and arrivals
/// stream straight from the seeded generator — so resident memory is
/// O(live applications), not O(10M history). Too big to ship as a
/// checked-in spec + golden pair; reach it through
/// `scenario --catalog hyperscale` (the [`hyperscale_ci`] scaling is
/// the checked-in, golden-pinned CI gate).
pub fn hyperscale() -> Scenario {
    Scenario {
        name: "hyperscale".into(),
        description: "Hyperscale survival: 1024 single-VM VCs, 10M Poisson-diurnal \
                      submissions over a simulated quarter in aggregate report mode — \
                      memory stays O(live); the engine-scale stress scenario."
            .into(),
        platform: hyperscale_platform(1024),
        workload: WorkloadSpec::Generated {
            config: hyperscale_workload(10_000_000, 1024, SimDuration::from_millis(770)),
            seed: 0x5CA1E,
        },
        sweep: SweepSpec {
            replicas: 0,
            axes: Vec::new(),
            ..Default::default()
        },
        outputs: OutputSpec {
            summary: true,
            placements: true,
            series: false,
            comparison: false,
            table1_samples: None,
            aggregate: true,
        },
    }
}

/// [`hyperscale`] scaled 1:16 for the CI gate: 64 VCs, 200k
/// submissions, the same per-VC load (the 770 ms mean gap stretched
/// ×16). Checked in with a golden; CI additionally runs it under
/// `scenario --bench` against an events/sec floor and a peak-RSS
/// ceiling, and byte-compares a mid-run checkpoint + resume against
/// the uninterrupted report.
pub fn hyperscale_ci() -> Scenario {
    Scenario {
        name: "hyperscale-ci".into(),
        description: "Hyperscale scaled 1:16 for CI: 64 single-VM VCs, 200k diurnal \
                      submissions at the same per-VC load, aggregate report mode — the \
                      events/sec + peak-RSS gate and the checkpoint/resume byte-compare \
                      scenario."
            .into(),
        platform: hyperscale_platform(64),
        workload: WorkloadSpec::Generated {
            config: hyperscale_workload(200_000, 64, SimDuration::from_millis(770 * 16)),
            seed: 0x5CA1E,
        },
        sweep: SweepSpec {
            replicas: 0,
            axes: Vec::new(),
            ..Default::default()
        },
        outputs: OutputSpec {
            summary: true,
            placements: true,
            series: false,
            comparison: false,
            table1_samples: None,
            aggregate: true,
        },
    }
}

/// The shared hyperscale deployment: `vcs` single-VM batch VCs on an
/// exactly-covering private estate, with the SLA-check cadence relaxed
/// to 10 minutes so controller ticks don't dominate the quarter-long
/// event stream.
fn hyperscale_platform(vcs: usize) -> PlatformConfig {
    let mut platform = PlatformConfig::paper("meryn");
    platform.private_capacity = vcs as u64;
    platform.vcs = (0..vcs)
        .map(|i| VcConfig::batch(format!("vc-{i:04}"), 1))
        .collect();
    platform.controller_check_interval = Some(SimDuration::from_secs(600));
    platform
}

/// The shared hyperscale workload shape: Poisson-diurnal arrivals
/// spread uniformly over the VCs, heavy-tailed 1–60 min runtimes
/// (mean ≈ 200 s → ~25% mean utilization, day peaks near 50%).
fn hyperscale_workload(count: usize, vcs: usize, mean_gap: SimDuration) -> GeneratorConfig {
    GeneratorConfig {
        count,
        arrivals: ArrivalProcess::Diurnal {
            mean: mean_gap,
            depth: 0.8,
            period: SimDuration::from_secs(86_400),
        },
        work: WorkDistribution::BoundedPareto {
            lo: SimDuration::from_secs(60),
            hi: SimDuration::from_secs(3_600),
            alpha: 1.3,
        },
        nb_vms_choices: vec![1],
        targets: (0..vcs).map(|i| (VcTarget::Index(i), 1)).collect(),
        strategy: UserStrategy::AcceptCheapest,
        scaling: ScalingLaw::Linear,
    }
}

/// The fault-plane showcase: the paper workload under an aggressive —
/// but fully deterministic — failure regime. Every VM carries a 2 h
/// exponential crash hazard (drawn from the per-shard fault streams),
/// a third of cloud-lease admissions are transiently refused, and the
/// cloud market schedules a 10-minute whole-cloud outage right where
/// the paper run's escalations cluster. Refused acquisitions retry on
/// the deterministic capped backoff (30 s base, 240 s cap, budget 4)
/// before degrading to the private pool. Comparing meryn against
/// static under the *same* fault schedule shows the exchange
/// protocol's slack absorbing faults the static split pays the cloud
/// (or the SLA penalty) for.
pub fn chaos_datacenter() -> Scenario {
    let mut platform = PlatformConfig::paper("meryn");
    // Refused leases only retry on the escalation path; the paper's
    // report-only violation handling would leave the backoff machinery
    // idle.
    platform.violation_policy = ViolationPolicy::EscalateToCloud;
    platform.faults = FaultSpec {
        vm_mtbf_secs: Some(7_200),
        lease_rejection_prob: 0.3,
        lease_rejection_secs: 120,
        cloud_outages: vec![OutageWindow {
            cloud: 0,
            from_secs: 600,
            to_secs: 1_200,
        }],
        retry_max: 4,
        backoff_base_secs: 30,
        backoff_cap_secs: 240,
    };
    Scenario {
        name: "chaos-datacenter".into(),
        description: "The paper evaluation under a deterministic failure regime: 2 h per-VM \
                      crash MTBF, 30% transient lease rejections with capped-backoff retries \
                      (30 s base, budget 4), and a 600-1200 s whole-cloud outage — meryn vs \
                      static on the identical fault schedule."
            .into(),
        platform,
        workload: WorkloadSpec::Paper(PaperWorkloadParams::default()),
        sweep: SweepSpec {
            replicas: 3,
            axes: vec![SweepAxis::Policy {
                values: vec!["meryn".into(), "static".into()],
            }],
            ..Default::default()
        },
        outputs: OutputSpec {
            summary: true,
            placements: true,
            series: false,
            comparison: true,
            table1_samples: None,
            aggregate: false,
        },
    }
}

/// The cross-crate extension policy at work: `deadline-aware` (defined
/// and registered in [`crate::policies`], *not* in `meryn-core`)
/// against the two paper policies on a pressured estate. Suspensions
/// under `deadline-aware` are zero by construction; the cost of that
/// guarantee shows up as extra cloud spend.
pub fn deadline_aware() -> Scenario {
    crate::policies::install();
    let mut platform = PlatformConfig::paper("deadline-aware");
    // Penalty factor 4 makes meryn's suspension bids competitive, so
    // the never-suspend contrast is visible in the placements.
    platform.penalty_factor = 4;
    Scenario {
        name: "deadline-aware".into(),
        description: "The deadline-aware extension policy (registered from meryn-scenario, \
                      outside meryn-core) vs meryn and static at penalty factor N=4: \
                      free VMs or cloud only — running tenants keep their deadlines."
            .into(),
        platform,
        workload: WorkloadSpec::Paper(PaperWorkloadParams::default()),
        sweep: SweepSpec {
            replicas: 3,
            axes: vec![SweepAxis::Policy {
                values: vec!["deadline-aware".into(), "meryn".into(), "static".into()],
            }],
            ..Default::default()
        },
        outputs: OutputSpec {
            placements: true,
            comparison: true,
            ..Default::default()
        },
    }
}

/// Figure 5: the used private and cloud VMs over time for the paper
/// workload under `meryn` (a) and `static` (b), with the used-VM step
/// series recorded.
pub fn fig5() -> Scenario {
    let mut scenario = paper_workload_sweep(
        "fig5",
        "Figure 5 (§5): used private and cloud VMs over time for the paper workload, (a) \
         meryn vs (b) static; the paper's peaks are 50 private / 15 cloud vs 40 / 25. \
         Headline runs with the used-VM step series.",
        vec![paper_policies()],
    );
    scenario.outputs.series = true;
    scenario
}

/// Ablation A1: the penalty factor N of eq. 3. Weak penalties (high N)
/// make Algorithm 2's suspension bids cheap, so the protocol starts
/// lending VMs instead of bursting.
pub fn ablation_penalty() -> Scenario {
    paper_workload_sweep(
        "ablation-penalty",
        "Ablation A1: the penalty factor N of eq. 3 (1/2/4/8/16) on the paper workload. A \
         high N favours the provider, a low N the user; N also feeds Algorithm 2's bids, so \
         weak penalties (high N) make suspensions cheap and the protocol starts lending VMs \
         instead of bursting. Reading: N=1 reproduces the paper (no suspensions, 15 cloud \
         VMs); larger N shifts Algorithm 1 from bursting to lending.",
        vec![SweepAxis::PenaltyFactor {
            values: vec![1, 2, 4, 8, 16],
        }],
    )
}

/// Ablation A2: the cloud/private price ratio (the paper fixes cloud
/// VMs at 2x the private cost) under both paper policies.
pub fn ablation_price_ratio() -> Scenario {
    paper_workload_sweep(
        "ablation-price-ratio",
        "Ablation A2: the cloud/private price ratio. The paper fixes cloud VMs at 2x the \
         private cost; this sweeps the cloud price factor (0.5/1/1.5/2/3/4) under meryn and \
         static to locate where bursting stops paying off against suspension lending, and \
         where static's over-bursting hurts most. Reading: the pricier the cloud, the more \
         meryn's exchange (and eventually suspension) pays off against static bursting.",
        vec![
            SweepAxis::CloudPriceFactor {
                values: vec![0.5, 1.0, 1.5, 2.0, 3.0, 4.0],
            },
            paper_policies(),
        ],
    )
}

/// Ablation A3: the storage rate behind Algorithm 2's minimal
/// suspension cost, at penalty factor N=4 where suspension bids are
/// competitive.
pub fn ablation_suspension() -> Scenario {
    let mut scenario = paper_workload_sweep(
        "ablation-suspension",
        "Ablation A3: when does Algorithm 2's suspension path win? At penalty factor N=4 \
         this sweeps the storage rate behind the minimal suspension cost (0/0.1/0.5/2/50 \
         u/s): a near-zero rate makes suspension bids aggressive, an exorbitant one disables \
         suspension (only options 1, 2 and 5 remain). Reading: cheap suspension displaces \
         bursting but risks delay penalties; an exorbitant storage rate reproduces a \
         no-suspension platform.",
        vec![SweepAxis::StorageRateMicro {
            values: vec![0, 100_000, 500_000, 2_000_000, 50_000_000],
        }],
    );
    scenario.platform.penalty_factor = 4;
    scenario
}

/// Ablation A4: meryn vs static as the paper workload's inter-arrival
/// gap shrinks.
pub fn ablation_load() -> Scenario {
    paper_workload_sweep(
        "ablation-load",
        "Ablation A4: meryn vs static as arrival pressure grows — the paper workload's \
         inter-arrival gap shrinks 60/30/10/5/2 s. At low load both stay private; under \
         pressure static bursts all of VC1's overflow while meryn first drains VC2's idle \
         VMs. Reading: the cost gap between static and meryn is the cloud spend avoided by \
         VC-to-VC exchange; it widens with load until the private estate saturates entirely.",
        vec![
            SweepAxis::InterarrivalSecs {
                values: vec![60, 30, 10, 5, 2],
            },
            paper_policies(),
        ],
    )
}

/// Ablation A5: the MapReduce bid model (the paper's future work). A
/// MapReduce VC's overflow meets a lightly loaded batch VC.
pub fn ablation_mapreduce() -> Scenario {
    let mut platform = PlatformConfig::paper("meryn");
    platform.private_capacity = 24;
    platform.vcs = vec![
        VcConfig::batch("batch", 12),
        VcConfig::mapreduce("hadoop", 12),
    ];
    // A light stream of 1-VM batch jobs keeps the batch VC's VMs idle;
    // a wave of 4-VM MapReduce jobs overflows the MapReduce partition.
    let mut submissions: Vec<Submission> =
        (0..6).map(|i| batch_sub(5 + i * 300, 0, 1200)).collect();
    submissions.extend((0..12).map(|i| {
        Submission::new(
            SimTime::from_secs(10 + i * 60),
            VcTarget::Index(1),
            JobSpec::MapReduce {
                map_tasks: 24,
                map_work: SimDuration::from_secs(45),
                reduce_tasks: 4,
                reduce_work: SimDuration::from_secs(90),
                nb_vms: 4,
                slots_per_vm: 2,
            },
            UserStrategy::AcceptCheapest,
        )
    }));
    Scenario {
        name: "ablation-mapreduce".into(),
        description: "Ablation A5: the MapReduce bid model (the paper's future work). A \
                      lightly loaded batch VC (six 1-VM jobs) shares a 24-VM estate with a \
                      MapReduce VC hit by twelve 4-VM jobs that overflow its partition; \
                      meryn vs static. Reading: the MapReduce overflow drains the batch VC's \
                      idle VMs (zero bids) before leasing; a bursted MapReduce job also runs \
                      its map waves slower (locality penalty), which the wave model prices \
                      into its deadline automatically."
            .into(),
        platform,
        workload: WorkloadSpec::Explicit { submissions },
        sweep: SweepSpec {
            replicas: 0,
            axes: vec![paper_policies()],
            ..Default::default()
        },
        outputs: OutputSpec::default(),
    }
}

/// Ablation A6: the initial VC partitioning (§3.1: "fair or based on
/// past traces") under both paper policies.
pub fn ablation_partitioning() -> Scenario {
    paper_workload_sweep(
        "ablation-partitioning",
        "Ablation A6: initial VC partitioning (§3.1: fair or trace-based). The 50/15 paper \
         demand on initial splits 25/25 (fair), 38/12 (trace-based), 10/40 (inverted) and \
         45/5 (skewed to VC1), meryn vs static: how much the exchange protocol compensates \
         for a bad split. Reading: under meryn the initial split barely matters — the \
         zero-bid exchange re-balances VMs toward demand. Static pays the full cloud \
         premium for any mismatch.",
        vec![
            SweepAxis::InitialVms {
                values: vec![vec![25, 25], vec![38, 12], vec![10, 40], vec![45, 5]],
            },
            paper_policies(),
        ],
    )
}

/// Ablation A7: SLA violation handling (§3.3 leaves the policy open):
/// report-only against escalating at-risk queued jobs to the cloud, on
/// a deep queue behind a tight cloud quota.
pub fn ablation_escalation() -> Scenario {
    let mut platform = PlatformConfig::paper("meryn");
    platform.private_capacity = 4;
    platform.vcs = vec![VcConfig::batch("VC1", 4)];
    // The initial bursting saturates the quota and later arrivals
    // queue; the quota frees up as bursted jobs finish. Suspension is
    // off so waiting happens in the queue (held lending victims cannot
    // be escalated).
    platform.clouds[0].quota = Some(4);
    platform.suspension_enabled = false;
    platform.controller_check_interval = Some(SimDuration::from_secs(15));
    Scenario {
        name: "ablation-escalation".into(),
        description: "Ablation A7: SLA violation handling (§3.3 leaves the policy open). \
                      24 1-VM jobs 15 s apart on 4 private VMs, a 4-VM cloud quota, \
                      suspension off and 15 s SLA checks make a deep queue; the paper's \
                      report-only handling vs escalating at-risk queued jobs to the cheapest \
                      cloud. Reading: escalation buys back lateness with cloud spend — the \
                      workload finishes ~10 minutes sooner and penalties shrink, but in this \
                      deep-overload scenario the extra leases cost more than the refunded \
                      penalties, so report-only keeps more profit while escalation keeps the \
                      users happier. Which side wins pivots on the penalty factor N, the \
                      cloud price and how early the controller intervenes."
            .into(),
        platform,
        workload: WorkloadSpec::Explicit {
            submissions: (0..24).map(|i| batch_sub(5 + i * 15, 0, 600)).collect(),
        },
        sweep: SweepSpec {
            replicas: 0,
            axes: vec![SweepAxis::ViolationPolicy {
                values: vec![ViolationPolicy::Report, ViolationPolicy::EscalateToCloud],
            }],
            ..Default::default()
        },
        outputs: OutputSpec::default(),
    }
}

/// Ablation A8: the Client Manager bottleneck (§3.2) under a 1 s
/// arrival burst.
pub fn ablation_clientmanagers() -> Scenario {
    let mut scenario = paper_workload_sweep(
        "ablation-clientmanagers",
        "Ablation A8: the Client Manager bottleneck (§3.2: several Client Managers avoid a \
         peak-period bottleneck). The paper workload at 1 s inter-arrivals with 1/2/4/8 \
         Client Manager instances and unbounded front-end concurrency. Reading: a single \
         Client Manager serializes the burst — the 65th arrival waits behind ~64 × 11 s of \
         handling, blowing the 84 s processing allowance; a few instances absorb the peak, \
         matching §3.2's motivation for replicating the entry point.",
        vec![SweepAxis::ClientManagers {
            values: vec![Some(1), Some(2), Some(4), Some(8), None],
        }],
    );
    scenario.workload = WorkloadSpec::Paper(PaperWorkloadParams {
        interarrival: SimDuration::from_secs(1),
        ..Default::default()
    });
    scenario
}

/// The replica sweep: the paper workload under both policies at 1200
/// seed-derived replicas, summary only — CI's 1-vs-N-thread speedup
/// and byte-compare workload. Too heavy for a golden, so catalog-only,
/// like [`hyperscale`].
pub fn sweep() -> Scenario {
    let mut scenario = paper_workload_sweep(
        "sweep",
        "Replica sweep: the paper workload under meryn and static at 1200 seed-derived \
         replicas, summary only. Reading: placement decisions are seed-independent (peak \
         cloud has zero variance); only operation latencies jitter, moving the completion \
         time by a few tens of seconds — the same order as the paper's 2021 s vs 2091 s gap.",
        vec![paper_policies()],
    );
    scenario.sweep.replicas = 1200;
    scenario
}

/// The paper's two placement policies as a sweep axis.
fn paper_policies() -> SweepAxis {
    SweepAxis::Policy {
        values: vec!["meryn".into(), "static".into()],
    }
}

/// The paper deployment and 65-app workload under `axes`: headline
/// runs only, summary output only — the shape of every ablation of the
/// paper workload.
fn paper_workload_sweep(name: &str, description: &str, axes: Vec<SweepAxis>) -> Scenario {
    Scenario {
        name: name.into(),
        description: description.into(),
        platform: PlatformConfig::paper("meryn"),
        workload: WorkloadSpec::Paper(PaperWorkloadParams::default()),
        sweep: SweepSpec {
            replicas: 0,
            axes,
            ..Default::default()
        },
        outputs: OutputSpec::default(),
    }
}

/// Every shipped scenario, as `(file stem, spec)` pairs.
pub fn shipped() -> Vec<(&'static str, Scenario)> {
    crate::policies::install();
    vec![
        ("paper", paper()),
        ("high-load", high_load()),
        ("cheap-cloud", cheap_cloud()),
        ("no-suspension", no_suspension()),
        ("representative-datacenter", representative_datacenter()),
        ("many-vc", many_vc()),
        ("deadline-aware", deadline_aware()),
        ("hyperscale-ci", hyperscale_ci()),
        ("chaos-datacenter", chaos_datacenter()),
        ("fig5", fig5()),
        ("ablation-penalty", ablation_penalty()),
        ("ablation-price-ratio", ablation_price_ratio()),
        ("ablation-suspension", ablation_suspension()),
        ("ablation-load", ablation_load()),
        ("ablation-mapreduce", ablation_mapreduce()),
        ("ablation-partitioning", ablation_partitioning()),
        ("ablation-escalation", ablation_escalation()),
        ("ablation-clientmanagers", ablation_clientmanagers()),
    ]
}

/// Every catalog scenario — the shipped set plus the unshipped full
/// [`hyperscale`] run and the 1200-replica [`sweep`] (both too heavy
/// for a checked-in golden) — for `scenario --catalog NAME` lookup.
pub fn all() -> Vec<(&'static str, Scenario)> {
    let mut entries = shipped();
    entries.push(("hyperscale", hyperscale()));
    entries.push(("sweep", sweep()));
    entries
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_specs_round_trip() {
        for (stem, scenario) in shipped() {
            let json = scenario.to_json();
            let back = Scenario::from_json(&json).unwrap_or_else(|e| panic!("{stem}: {e}"));
            assert_eq!(back, scenario, "{stem}");
            assert_eq!(back.to_json(), json, "{stem}: unstable serialization");
        }
    }

    #[test]
    fn shipped_names_match_file_stems() {
        for (stem, scenario) in shipped() {
            assert_eq!(scenario.name, stem);
            scenario.platform.validate();
        }
    }
}
