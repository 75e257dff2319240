//! E15 — quorum-replicated models@runtime: model-defined replica sets
//! with majority commit, quorum-elected failover, and a composed chaos
//! campaign over every fault family the simulator knows.
//!
//! E9 replicated the runtime model to *one* hot standby: losing that
//! standby forfeits either availability (CP shipping rejects calls) or
//! committed updates (async shipping loses them). E15 generalizes the
//! topology: the broker model declares a **replica set** (N nodes, a
//! quorum size, per-peer shipping lanes) that a
//! [`QuorumReplicator`](mddsm_broker::QuorumReplicator)
//! interprets — the journal ships go-back-N to each peer independently
//! and a record is *committed* once the quorum-th largest acknowledged
//! LSN reaches it. On primary loss the
//! [`Supervisor`](mddsm_broker::Supervisor) polls the
//! reachable replicas, elects the one with the longest quorum-committed
//! prefix under a bumped fencing epoch, and re-parents the survivors;
//! lagging or damaged replicas catch up by anti-entropy from the
//! freshest quorum source
//! ([`select_repair_source`](mddsm_broker::select_repair_source)). A
//! [`ReplicaGroup`](mddsm_broker::ReplicaGroup) carries all of this out; the harness only builds the
//! group, feeds it the campaign and the calls ([`tier::serve`]), and
//! reads its report.
//!
//! The campaign ([`mddsm_sim::fault::random_quorum_campaign`]) composes
//! every prior experiment's fault family — node crashes, full and
//! asymmetric partitions, loss spikes, torn writes / bit flips / dropped
//! tails / truncated snapshots on any replica's journal, state
//! corruption, and mid-campaign live upgrades — while never
//! incapacitating more than a strict minority of the set at once. Each
//! seed runs four configurations over the *same* schedules:
//!
//! * **baseline** (per node set) — the E9 shape: one primary, one
//!   ack-gated standby (a 2-node set with quorum 2). The 3- and 5-node
//!   campaigns both run it, so the quorum variants are compared against
//!   the single-standby design under identical fault schedules;
//! * **quorum** — the full 3-node (quorum 2) or 5-node (quorum 3) set.
//!
//! Expected on every seed with at most a minority faulty: the quorum
//! variants lose **zero** quorum-committed updates and show **zero**
//! committed-trace divergence, every surviving journal replays to the
//! live runtime model, the shipped `onePrimaryPerEpoch` temporal monitor
//! never trips, every applied upgrade propagates to every live replica —
//! and measured unavailability (rejected + dead-primary calls) is
//! strictly lower than the single-standby baseline's, because a quorum
//! keeps serving while any majority is reachable.

use mddsm_broker::GroupReport;
use mddsm_meta::Model;
use mddsm_sim::fault::{random_quorum_campaign, FaultDriver, QuorumCampaignConfig};
use mddsm_sim::net::{Link, Network};
use mddsm_sim::SimDuration;

use crate::artifacts::{fixed, Artifact, Obj};
use crate::tier;
pub use crate::tier::{DRAIN_ROUNDS, INVARIANTS, SUPERVISE_EVERY};

/// Journal snapshot cadence (entries between snapshots).
pub const SNAPSHOT_EVERY: u64 = 24;
/// Replication ack timeout (µs); also the spacing of drain rounds.
pub const ACK_TIMEOUT_US: u64 = 5_000;
/// Shipping window (records in flight) per ack-windowed lane.
pub const WINDOW_RECORDS: u64 = 32;

/// The 3-node set (and the prefix instantiated by its baseline).
pub const NODES3: &[&str] = &["a", "b", "c"];
/// The 5-node set.
pub const NODES5: &[&str] = &["a", "b", "c", "d", "e"];

/// The E15 broker model: the tier flip-flop ([`tier::model`]), a
/// `tierValid` monitor so state corruption trips online verification,
/// and a model-defined **replica set** over `members[1..]` — the first
/// member is the initial primary.
pub fn e15_broker_model(members: &[&str], quorum: u64) -> Model {
    let peers: Vec<(&str, &str, u64, u64)> = members[1..]
        .iter()
        .map(|n| (*n, "AckWindowed", WINDOW_RECORDS, ACK_TIMEOUT_US))
        .collect();
    tier::model("e15")
        .monitor(
            "tierValid",
            "self.tier = null or self.tier = \"alpha\" or self.tier = \"beta\"",
        )
        .replica_set(quorum, &peers)
        .build()
}

/// Metrics of one configuration under one campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct E15Run {
    /// Members this configuration instantiates (primary first).
    pub members: u64,
    /// Quorum size (counting the primary).
    pub quorum: u64,
    /// Calls issued.
    pub calls: u64,
    /// Calls the primary executed, refused, found dead, or left
    /// uncertain.
    pub served: tier::Served,
    /// Unavailable calls: rejected + failed while the primary was dead.
    pub unavailable: u64,
    /// Every live replica ended on the primary's model version.
    pub upgrades_propagated: bool,
    /// Final `served_alpha` / `served_beta` counters on the primary.
    pub served_counters: (i64, i64),
    /// Messages the simulated network delivered (all directed links).
    pub net_delivered: u64,
    /// Messages lost to random loss.
    pub net_lost: u64,
    /// Messages refused by a down link or partition.
    pub net_partitioned: u64,
    /// What the replica group did, and its end-of-run audit.
    pub group: GroupReport,
}

/// Runs one configuration (`members`, `quorum`) against the campaign
/// generated by `seed` over `campaign_nodes`. The campaign is a function
/// of `(seed, campaign_nodes)` only, so a baseline and a quorum variant
/// with the same arguments face identical fault schedules.
pub fn run_variant(
    seed: u64,
    campaign_nodes: &[&str],
    members: &[&str],
    quorum: u64,
    calls: u64,
    period_ms: u64,
) -> E15Run {
    let model = e15_broker_model(members, quorum);
    let horizon = SimDuration::from_millis(calls * period_ms);
    let mut group = tier::group(&model, SNAPSHOT_EVERY, seed, horizon);
    let net = Network::new(Link::default(), seed ^ 0x5eed);
    let campaign = random_quorum_campaign(
        "e15",
        seed,
        &QuorumCampaignConfig {
            nodes: campaign_nodes.iter().map(|n| (*n).to_string()).collect(),
            corruptions: vec![("tier".into(), "gamma".into())],
            candidates: vec!["v2".into(), "v3".into()],
            horizon,
            mean_gap: SimDuration::from_millis(450),
            mean_downtime: SimDuration::from_millis(900),
            ..QuorumCampaignConfig::default()
        },
    );
    let mut driver = FaultDriver::from_model(&campaign).expect("campaign conforms");
    let served = tier::serve(&mut group, &mut driver, &net, calls, period_ms, true);

    // Quiesce before the propagation check, so a replica still behind is
    // one cut off by a partition that outlived the horizon, not one that
    // lost an upgrade.
    group.quiesce(&net).expect("shipping is healthy");
    let (mut net_delivered, mut net_lost, mut net_partitioned) = (0, 0, 0);
    for (_, s) in net.link_stats_all() {
        net_delivered += s.delivered;
        net_lost += s.lost;
        net_partitioned += s.partitioned;
    }
    let state = group.primary().state();
    E15Run {
        members: members.len() as u64,
        quorum,
        calls,
        served,
        unavailable: served.rejected + served.failed_dead,
        upgrades_propagated: group.upgrades_propagated(&net),
        served_counters: (
            state.int("served_alpha").unwrap_or(0),
            state.int("served_beta").unwrap_or(0),
        ),
        net_delivered,
        net_lost,
        net_partitioned,
        group: group.report().expect("the surviving journal audits"),
    }
}

/// The four configurations over one campaign seed: each node set runs
/// the single-standby baseline and the full quorum set against the same
/// schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct E15Campaign {
    /// Campaign seed.
    pub seed: u64,
    /// 2-node single-standby baseline under the 3-node schedule.
    pub baseline3: E15Run,
    /// 3-node replica set, quorum 2.
    pub quorum3: E15Run,
    /// 2-node single-standby baseline under the 5-node schedule.
    pub baseline5: E15Run,
    /// 5-node replica set, quorum 3.
    pub quorum5: E15Run,
}

/// Runs the four configurations over the campaigns generated by `seed`.
pub fn run_campaign(seed: u64, calls: u64, period_ms: u64) -> E15Campaign {
    E15Campaign {
        seed,
        baseline3: run_variant(seed, NODES3, &NODES3[..2], 2, calls, period_ms),
        quorum3: run_variant(seed, NODES3, NODES3, 2, calls, period_ms),
        baseline5: run_variant(seed, NODES5, &NODES5[..2], 2, calls, period_ms),
        quorum5: run_variant(seed, NODES5, NODES5, 3, calls, period_ms),
    }
}

/// The full experiment: four configurations across several seeded
/// campaigns, with the claims checked across all of them.
#[derive(Debug, Clone, PartialEq)]
pub struct E15Result {
    /// Campaign seeds, in run order.
    pub seeds: Vec<u64>,
    /// Calls per configuration per campaign.
    pub calls: u64,
    /// Virtual milliseconds between calls.
    pub period_ms: u64,
    /// Per-seed results.
    pub campaigns: Vec<E15Campaign>,
    /// The quorum variants lost zero quorum-committed updates on every
    /// seed (3- and 5-node sets alike).
    pub quorum_zero_lost: bool,
    /// The quorum variants show zero committed-trace divergence on
    /// every seed.
    pub quorum_zero_divergence: bool,
    /// Aggregate quorum unavailability is strictly below the baseline's
    /// and never worse on any seed or node set.
    pub availability_strictly_better: bool,
    /// Every surviving journal replays to the live runtime model, in
    /// every configuration, on every seed.
    pub replays_consistent: bool,
    /// The online `onePrimaryPerEpoch` temporal property held in every
    /// configuration on every seed.
    pub one_primary_per_epoch: bool,
    /// Every applied upgrade reached every live replica, in the quorum
    /// variants, on every seed.
    pub upgrades_propagated: bool,
    /// Aggregate unavailable calls across the quorum variants.
    pub unavailable_quorum: u64,
    /// Aggregate unavailable calls across the baselines.
    pub unavailable_baseline: u64,
}

/// Runs E15 across `seeds`.
pub fn run(seeds: &[u64], calls: u64, period_ms: u64) -> E15Result {
    let campaigns: Vec<E15Campaign> = seeds
        .iter()
        .map(|&s| run_campaign(s, calls, period_ms))
        .collect();
    let quorum_zero_lost = campaigns
        .iter()
        .all(|c| c.quorum3.group.committed_lost == 0 && c.quorum5.group.committed_lost == 0);
    let quorum_zero_divergence = campaigns
        .iter()
        .all(|c| c.quorum3.group.divergent_commits == 0 && c.quorum5.group.divergent_commits == 0);
    let unavailable_quorum: u64 = campaigns
        .iter()
        .map(|c| c.quorum3.unavailable + c.quorum5.unavailable)
        .sum();
    let unavailable_baseline: u64 = campaigns
        .iter()
        .map(|c| c.baseline3.unavailable + c.baseline5.unavailable)
        .sum();
    let availability_strictly_better = unavailable_quorum < unavailable_baseline
        && campaigns.iter().all(|c| {
            c.quorum3.unavailable <= c.baseline3.unavailable
                && c.quorum5.unavailable <= c.baseline5.unavailable
        });
    let replays_consistent = campaigns.iter().all(|c| {
        c.baseline3.group.replay_consistent
            && c.quorum3.group.replay_consistent
            && c.baseline5.group.replay_consistent
            && c.quorum5.group.replay_consistent
    });
    let one_primary_per_epoch = campaigns.iter().all(|c| {
        c.baseline3.group.one_primary_per_epoch
            && c.quorum3.group.one_primary_per_epoch
            && c.baseline5.group.one_primary_per_epoch
            && c.quorum5.group.one_primary_per_epoch
    });
    let upgrades_propagated = campaigns
        .iter()
        .all(|c| c.quorum3.upgrades_propagated && c.quorum5.upgrades_propagated);
    E15Result {
        seeds: seeds.to_vec(),
        calls,
        period_ms,
        campaigns,
        quorum_zero_lost,
        quorum_zero_divergence,
        availability_strictly_better,
        replays_consistent,
        one_primary_per_epoch,
        upgrades_propagated,
        unavailable_quorum,
        unavailable_baseline,
    }
}

fn fields(r: &E15Run) -> Obj {
    let (s, g) = (&r.served, &r.group);
    crate::obj! {
        "members": r.members, "quorum": r.quorum, "calls": r.calls, "served": s.served,
        "committed": g.committed, "rejected": s.rejected, "failed_dead": s.failed_dead,
        "uncertain": s.uncertain, "unavailable": r.unavailable, "failovers": g.failovers,
        "restarts": g.restarts, "replica_revivals": g.replica_revivals,
        "anti_entropy_repairs": g.anti_entropy_repairs, "standby_resyncs": g.standby_resyncs,
        "rejoins": g.rejoins, "fenced_events": g.fenced_events, "reconciles": g.reconciles,
        "discarded_stale_lines": g.discarded_stale_lines, "crashes": g.crashes,
        "corruptions": g.corruptions, "monitor_trips": g.monitor_trips,
        "snapshot_rollbacks": g.snapshot_rollbacks, "storage_faults": g.storage_faults,
        "harmless": g.harmless, "upgrades_pushed": g.upgrades_pushed,
        "upgrades_applied": g.upgrades_applied, "upgrades_skipped": g.upgrades_skipped,
        "upgrades_propagated": r.upgrades_propagated, "committed_lost": g.committed_lost,
        "divergent_commits": g.divergent_commits,
        "mean_failover_ms": fixed(g.mean_failover_ms, 3),
        "max_failover_ms": fixed(g.max_failover_ms, 3), "retransmits": g.retransmits,
        "commit_lsn": g.commit_lsn, "journal_bytes": g.journal_bytes,
        "served_alpha": r.served_counters.0, "served_beta": r.served_counters.1,
        "state_version": g.state_version, "net_delivered": r.net_delivered,
        "net_lost": r.net_lost, "net_partitioned": r.net_partitioned,
        "replay_consistent": g.replay_consistent, "escalated": g.escalated,
        "one_primary_per_epoch": g.one_primary_per_epoch,
    }
}

impl E15Result {
    /// The `BENCH_e15.json` artifact. Deterministic in the seeds.
    pub fn artifact(&self) -> Artifact {
        let campaigns: Vec<Obj> = self
            .campaigns
            .iter()
            .map(|c| {
                crate::obj! {
                    "seed": c.seed, "baseline3": fields(&c.baseline3),
                    "quorum3": fields(&c.quorum3), "baseline5": fields(&c.baseline5),
                    "quorum5": fields(&c.quorum5),
                }
            })
            .collect();
        Artifact::new(
            "e15",
            crate::obj! {
                "seed": self.seeds.first().copied().unwrap_or(0),
                "seeds": self.seeds.clone(),
                "calls": self.calls,
                "period_ms": self.period_ms,
                "supervise_every": SUPERVISE_EVERY,
                "quorum_zero_lost": self.quorum_zero_lost,
                "quorum_zero_divergence": self.quorum_zero_divergence,
                "availability_strictly_better": self.availability_strictly_better,
                "replays_consistent": self.replays_consistent,
                "one_primary_per_epoch": self.one_primary_per_epoch,
                "upgrades_propagated": self.upgrades_propagated,
                "unavailable_quorum": self.unavailable_quorum,
                "unavailable_baseline": self.unavailable_baseline,
                "campaigns": campaigns,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quorum_sets_lose_no_committed_update_under_composed_chaos() {
        let r = run(&[1, 3, 7], 300, 20);
        let failovers: u64 = r
            .campaigns
            .iter()
            .map(|c| c.quorum3.group.failovers + c.quorum5.group.failovers)
            .sum();
        assert!(failovers > 0, "campaigns promoted no replica");
        assert!(r.quorum_zero_lost, "a quorum set lost committed updates");
        assert!(r.quorum_zero_divergence, "a committed trace diverged");
        assert!(r.replays_consistent);
        assert!(
            r.one_primary_per_epoch,
            "two primaries promoted under one epoch"
        );
        for c in &r.campaigns {
            for (tag, v) in [("quorum3", &c.quorum3), ("quorum5", &c.quorum5)] {
                assert!(!v.group.escalated, "seed {}/{tag}", c.seed);
                assert_eq!(v.group.committed_lost, 0, "seed {}/{tag}", c.seed);
                assert_eq!(v.group.divergent_commits, 0, "seed {}/{tag}", c.seed);
            }
        }
    }

    #[test]
    fn quorum_availability_beats_the_single_standby_baseline() {
        let r = run(&[1, 3, 7], 300, 20);
        assert!(
            r.availability_strictly_better,
            "quorum {} vs baseline {} unavailable calls",
            r.unavailable_quorum, r.unavailable_baseline
        );
    }

    #[test]
    fn the_campaign_actually_composes_every_fault_family() {
        let r = run(&[1, 3, 7], 300, 20);
        let sum = |f: fn(&GroupReport) -> u64| -> u64 {
            r.campaigns
                .iter()
                .map(|c| f(&c.quorum3.group) + f(&c.quorum5.group))
                .sum()
        };
        assert!(sum(|v| v.crashes) > 0, "no crashes delivered");
        assert!(sum(|v| v.storage_faults) > 0, "no storage faults");
        assert!(sum(|v| v.corruptions) > 0, "no corruptions");
        assert!(sum(|v| v.upgrades_pushed) > 0, "no upgrades pushed");
        assert!(sum(|v| v.monitor_trips) > 0, "no monitor ever tripped");
        assert!(
            sum(|v| v.replica_revivals + v.rejoins) > 0,
            "no replica ever came back"
        );
        assert!(r.upgrades_propagated, "an upgrade failed to propagate");
    }

    #[test]
    fn repeated_runs_are_byte_identical() {
        let a = run(&[7], 150, 20);
        let b = run(&[7], 150, 20);
        assert_eq!(a, b);
        assert_eq!(a.artifact().render(), b.artifact().render());
    }
}
