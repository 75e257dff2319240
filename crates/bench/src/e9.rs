//! E9 — replicated models@runtime: journal shipping to a hot standby,
//! partition-aware failover, and split-brain fencing.
//!
//! E7 showed that one broker can crash and recover its runtime model from
//! the local journal. E9 removes the assumption that the journal survives
//! the fault: the node itself dies or is cut off. The primary
//! ([`GenericBroker`] on node `a`) ships its journal over the simulated
//! [`Network`] to a hot [`Standby`] on node `b`; the [`Supervisor`]
//! detects a crashed or partitioned primary and promotes the standby,
//! which fences the old primary behind a journaled epoch. A seeded
//! crash/partition/loss-spike campaign
//! ([`mddsm_sim::fault::random_failover_campaign`]) targets node `a`
//! while a steady call stream runs whose routing depends on the runtime
//! model (the E7 `tier` flip-flop). Three configurations over the same
//! campaign:
//!
//! * **no-replica** — local journal only: a node crash loses it and the
//!   middleware restarts from a fresh model (every committed update is
//!   gone);
//! * **async** — best-effort shipping: calls commit immediately and the
//!   journal follows when the network allows. A partitioned primary keeps
//!   committing writes the standby never sees — after failover those are
//!   **committed-but-lost**, and the healed stale primary must be fenced
//!   ([`BrokerError::StaleEpoch`](mddsm_broker::BrokerError::StaleEpoch)) and reconciled;
//! * **ack-windowed** — CP behaviour: a call is served only when the
//!   standby is caught up, and committed only once its records are
//!   acknowledged. Partitions cost availability (rejected calls), never
//!   committed updates.
//!
//! Measured per configuration: failover time (detection + promotion +
//! replay), committed-but-lost updates, and post-failover command-trace
//! divergence (committed actions the final journal no longer carries).
//! Expected: ack-windowed shows **zero** loss and **zero** divergence on
//! every seed; async shows measurable loss under partition; no-replica
//! loses everything at each crash. Everything is virtual-time and seeded,
//! so `BENCH_e9.json` reproduces byte-for-byte.

use std::collections::BTreeMap;

use mddsm_broker::journal::{self, JournalRecord};
use mddsm_broker::monitor;
use mddsm_broker::replication::reconcile;
use mddsm_broker::{
    BrokerModelBuilder, GenericBroker, QuorumReplicator, ReplicaSetConfig, RestartPolicy, Standby,
    Supervisor, SupervisorDecision,
};
use mddsm_meta::Model;
use mddsm_sim::fault::{random_failover_campaign, FailoverCampaignConfig, FaultDriver};
use mddsm_sim::net::{Link, Network};
use mddsm_sim::resource::{args, Args, Outcome};
use mddsm_sim::{LatencyModel, ResourceHub, SimDuration, SimTime};

use crate::artifacts::{fixed, Artifact, Obj};

/// Virtual cost of bringing a promoted or restarted broker up (µs).
pub const RESTART_PENALTY_US: u64 = 5_000;
/// Virtual cost of replaying one journal entry during promotion (µs).
pub const REPLAY_COST_PER_ENTRY_US: u64 = 20;
/// Journal snapshot cadence (entries between snapshots).
pub const SNAPSHOT_EVERY: u64 = 32;
/// Calls between supervisor monitoring cycles — the control plane is
/// slower than the data plane, so partitions go undetected for up to this
/// many calls (that window is where async shipping loses writes).
pub const SUPERVISE_EVERY: u64 = 5;
/// Replication ack timeout (µs); also the spacing of drain rounds.
pub const ACK_TIMEOUT_US: u64 = 5_000;
/// Shipping window (records in flight) for the ack-windowed mode.
pub const WINDOW_RECORDS: u64 = 32;
/// Replication drain rounds the ack-windowed primary attempts per call
/// before declaring the standby unreachable.
pub const DRAIN_ROUNDS: u64 = 3;

/// Invariants every promotion and reconciliation must re-establish.
pub const INVARIANTS: &[&str] = &[
    "self.tier = null or self.tier = \"alpha\" or self.tier = \"beta\"",
    "self.served_alpha = null or self.served_alpha >= 0",
    "self.served_beta = null or self.served_beta >= 0",
];

fn hub(seed: u64) -> ResourceHub {
    let mut h = ResourceHub::new(seed);
    h.register(
        "sim.alpha",
        LatencyModel::fixed_ms(3),
        SimDuration::from_millis(250),
        Box::new(|_: &str, _: &Args| Outcome::ok()),
    );
    h.register(
        "sim.beta",
        LatencyModel::fixed_ms(5),
        SimDuration::from_millis(250),
        Box::new(|_: &str, _: &Args| Outcome::ok()),
    );
    h
}

/// The E9 broker model: the E7 tier flip-flop (routing depends on
/// journaled state, so losing the journal visibly diverges the command
/// trace), plus — for the replicated configurations — a one-peer
/// `ReplicaSet` declaring the standby `b` and its lane's shipping mode:
/// quorum 1 for async shipping (the primary's own copy commits), quorum
/// 2 for ack-windowed shipping (the standby must hold it too).
pub fn e9_broker_model(variant: Variant) -> Model {
    let b = BrokerModelBuilder::new("e9")
        .call_handler("h", "op")
        .policy("tierAlpha", "self.tier = null or self.tier = \"alpha\"")
        .action(
            "h",
            "serveAlpha",
            "sim.alpha",
            "serve",
            &["n=$n"],
            Some("tierAlpha"),
            &["tier=beta", "served_alpha=+1"],
        )
        .action(
            "h",
            "serveBeta",
            "sim.beta",
            "serve",
            &["n=$n"],
            None,
            &["tier=alpha", "served_beta=+1"],
        );
    let (quorum, mode) = match variant {
        Variant::NoReplica => return b.build(),
        Variant::AsyncShip => (1, "Async"),
        Variant::AckWindowed => (2, "AckWindowed"),
    };
    b.replica_set(quorum, &[("b", mode, WINDOW_RECORDS, ACK_TIMEOUT_US)])
        .build()
}

/// How a configuration replicates (or does not).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Local journal only; a node crash loses it.
    NoReplica,
    /// Best-effort journal shipping; commits never wait.
    AsyncShip,
    /// Ack-windowed shipping; serve and commit gate on the standby.
    AckWindowed,
}

/// Metrics of one configuration under one campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct E9Run {
    /// Calls issued.
    pub calls: u64,
    /// Calls the primary executed successfully.
    pub served: u64,
    /// Updates acknowledged to clients as committed.
    pub committed: u64,
    /// Calls refused by the ack-windowed gate (standby unreachable).
    pub rejected: u64,
    /// Calls that found the primary dead (crash not yet detected).
    pub failed_dead: u64,
    /// Calls executed but never acknowledged (post-serve ack drain failed).
    pub uncertain: u64,
    /// Standby promotions performed.
    pub failovers: u64,
    /// Fresh-model restarts (no-replica configuration only).
    pub restarts: u64,
    /// Standby mirrors rebuilt from scratch after a standby crash.
    pub standby_resyncs: u64,
    /// Times the failed-over node healed and rejoined as the new standby.
    pub rejoins: u64,
    /// Stale-epoch refusals observed when a healed stale primary tried to
    /// ship its divergent journal ([`BrokerError::StaleEpoch`](mddsm_broker::BrokerError::StaleEpoch)).
    pub fenced_events: u64,
    /// Journal reconciliations run for healed stale primaries.
    pub reconciles: u64,
    /// Stale journal-suffix lines discarded across all reconciliations.
    pub discarded_stale_lines: u64,
    /// Worst committed-but-lost count observed at any promotion: updates
    /// acknowledged to clients that the surviving history does not hold.
    pub committed_lost: u64,
    /// Committed actions missing from the final primary's command trace
    /// (order-preserving comparison against the surviving journal).
    pub divergent_commits: u64,
    /// Mean failover time (virtual ms): detection + penalty + replay.
    pub mean_failover_ms: f64,
    /// Worst single failover (virtual ms).
    pub max_failover_ms: f64,
    /// Replication retransmission events across all replicator instances.
    pub retransmits: u64,
    /// Final primary's journal size (bytes).
    pub journal_bytes: u64,
    /// Final `served_alpha` / `served_beta` counters on the primary.
    pub served_counters: (i64, i64),
    /// Final state-model version (journal LSN head).
    pub state_version: u64,
    /// Whether an independent replay of the surviving journal agrees with
    /// the live runtime model ([`StateManager::first_divergence`] is
    /// `None`).
    ///
    /// [`StateManager::first_divergence`]: mddsm_broker::StateManager::first_divergence
    pub replay_consistent: bool,
    /// Whether the supervisor gave up on a component.
    pub escalated: bool,
    /// Whether the online `onePrimaryPerEpoch` temporal property held
    /// through every supervision cycle (zero observed trips).
    pub one_primary_per_epoch: bool,
}

fn other(node: &str) -> &'static str {
    if node == "a" {
        "b"
    } else {
        "a"
    }
}

/// The model's one-peer replica set, re-pointed at `standby_node`.
fn cfg_to(base: &ReplicaSetConfig, standby_node: &str) -> ReplicaSetConfig {
    let mut c = base.clone();
    c.peers[0].node = standby_node.to_owned();
    c
}

/// Ships until the standby acknowledged everything or `rounds` timeouts
/// elapse; rounds are spaced one ack timeout apart so each retries what
/// the previous one lost. Returns whether the replica is caught up.
fn drain(
    rep: &mut QuorumReplicator,
    standby: &mut Standby,
    broker: &GenericBroker,
    net: &Network,
    from_us: u64,
    rounds: u64,
) -> bool {
    for k in 0..rounds {
        let now = SimTime::from_micros(from_us + k * ACK_TIMEOUT_US);
        rep.tick(
            now,
            broker.epoch(),
            net,
            broker.journal_bytes().expect("journaling on"),
            &mut [standby],
        )
        .expect("replication tick is healthy");
        if rep.synced() {
            return true;
        }
    }
    false
}

/// Sum of the serve counters — how many committed updates the runtime
/// model actually holds.
fn applied_updates(broker: &GenericBroker) -> u64 {
    (broker.state().int("served_alpha").unwrap_or(0)
        + broker.state().int("served_beta").unwrap_or(0)) as u64
}

/// Runs one configuration over the campaign generated by `seed`.
pub fn run_variant(seed: u64, calls: u64, period_ms: u64, variant: Variant) -> E9Run {
    let model = e9_broker_model(variant);
    let replicated = variant != Variant::NoReplica;
    let base_cfg = ReplicaSetConfig::from_model(&model).expect("replica set conforms");

    let mut broker = GenericBroker::from_model(&model, hub(seed)).expect("E9 model valid");
    broker.enable_journal(SNAPSHOT_EVERY);
    let mut primary_node = "a".to_owned();

    let horizon = SimDuration::from_millis(calls * period_ms);
    // Liveness comes from the crash/partition flags the campaign raises,
    // not heartbeat staleness, so the stall deadline is parked beyond the
    // horizon; the 1 ms restart window keeps a partitioned standby's
    // repeated restart decisions from ever escalating.
    let mut supervisor = Supervisor::new(
        &["a", "b"],
        RestartPolicy {
            max_restarts: 10_000,
            window: SimDuration::from_millis(1),
            stall_after: SimDuration::from_millis(4 * calls * period_ms),
        },
    );
    let mut standby: Option<Standby> = None;
    let mut rep: Option<QuorumReplicator> = None;
    if replicated {
        let cfg = base_cfg.clone().expect("replicated model declares a set");
        supervisor.designate_replica_set("a", &["b"]);
        standby = Some(Standby::new("b"));
        rep = Some(QuorumReplicator::new(cfg, "a"));
    }

    let net = Network::new(Link::default(), seed ^ 0x5eed);
    let campaign = random_failover_campaign(
        "e9",
        seed,
        &FailoverCampaignConfig {
            node: "a".into(),
            component: "a".into(),
            peers: vec!["b".into()],
            horizon,
            mean_uptime: SimDuration::from_millis(1_200),
            mean_downtime: SimDuration::from_millis(400),
            ..FailoverCampaignConfig::default()
        },
    );
    let mut driver = FaultDriver::from_model(&campaign).expect("campaign conforms");

    let period = SimDuration::from_millis(period_ms);
    let mut served = 0u64;
    let mut committed = 0u64;
    let mut committed_actions: Vec<String> = Vec::new();
    let mut rejected = 0u64;
    let mut failed_dead = 0u64;
    let mut uncertain = 0u64;
    let mut failovers = 0u64;
    let mut restarts = 0u64;
    let mut standby_resyncs = 0u64;
    let mut rejoins = 0u64;
    let mut fenced_events = 0u64;
    let mut reconciles = 0u64;
    let mut discarded_stale_lines = 0u64;
    let mut committed_lost = 0u64;
    let mut retrans_retired = 0u64;
    let mut escalated = false;
    let mut fo_times_us: Vec<u64> = Vec::new();
    // The shipped `onePrimaryPerEpoch` temporal property, observed online
    // against the supervisor's runtime model during the campaign
    // (promoted from a property test; see `monitor::failover_properties`).
    let failover_props = monitor::failover_properties();
    let prop_watched = failover_props.watched_keys();
    let mut prop_shadow: BTreeMap<String, String> = BTreeMap::new();
    let mut property_trips = 0u64;
    // Virtual instant the currently-unhandled primary fault fired.
    let mut fault_at: Option<u64> = None;
    // A partitioned-out old primary (with its replicator and the promoted
    // standby shell that now acts as its fence), parked until the heal.
    let mut parked: Option<(GenericBroker, QuorumReplicator, Standby)> = None;

    for i in 0..calls {
        let t = broker.now();

        // Deliver due fault events at their exact instants so detection
        // delay is measured from the true fault time.
        while let Some(te) = driver.next_at() {
            if te > t {
                break;
            }
            driver.advance_full(te, broker.hub_mut(), Some(&net), Some(&mut supervisor));
            let crashed = supervisor.state().int("crashed_a") == Some(1);
            // The campaign only ever faults node `a`; a fault opens an RTO
            // window only while `a` holds the primary role.
            if fault_at.is_none()
                && primary_node == "a"
                && (crashed || (replicated && !net.is_up("a", "b")))
            {
                fault_at = Some(te.as_micros());
            }
        }

        let a_up = net.is_up("a", "b");
        if replicated {
            supervisor.note_partitioned("a", !a_up);
            // A partition that healed before anyone noticed needs no
            // failover; close the RTO window unless the node also crashed.
            if primary_node == "a" && a_up && supervisor.state().int("crashed_a") != Some(1) {
                fault_at = None;
            }
        }
        supervisor.heartbeat("a", t);
        supervisor.heartbeat("b", t);

        if i % SUPERVISE_EVERY == 0 {
            let mut failover: Option<(String, u64, String)> = None;
            let mut primary_restart = false;
            let mut sb_reset = false;
            for d in supervisor.tick(t).expect("liveness symptoms evaluate") {
                match d {
                    SupervisorDecision::Escalate { .. } => escalated = true,
                    SupervisorDecision::Failover {
                        component,
                        standby: promoted_to,
                        reason,
                        epoch,
                    } => {
                        debug_assert_eq!(component, primary_node);
                        failover = Some((promoted_to, epoch, reason));
                    }
                    SupervisorDecision::Restart {
                        component, reason, ..
                    } => {
                        if component == primary_node {
                            primary_restart = reason == "crashed";
                        } else if reason == "crashed" {
                            // The standby's in-memory mirror died with it;
                            // a partition merely delays it (retransmission
                            // catches it up), but a crash forces a resync.
                            sb_reset = true;
                        }
                    }
                    // E9 arms no runtime-verification monitors on the
                    // broker, so no trip symptom ever reaches the
                    // supervisor (that is E10's territory).
                    SupervisorDecision::Quarantine { .. } => {
                        unreachable!("no monitors armed in E9")
                    }
                    SupervisorDecision::RepairJournal { .. } => {
                        unreachable!("no journal damage reported in E9")
                    }
                    SupervisorDecision::RollbackUpgrade { .. } => {
                        unreachable!("no live upgrade in flight in E9")
                    }
                }
            }

            if let Some((promoted_to, epoch, reason)) = failover {
                let mut sb = standby.take().expect("failover requires a standby");
                let old_rep = rep.take().expect("replicated variants ship the journal");
                let dead = broker;
                let (promoted_hub, stale) = if reason == "crashed" {
                    // The node died: its journal is gone, but the world
                    // (the resource hub) survives the middleware.
                    (dead.into_hub(), None)
                } else {
                    // Partitioned: the stale primary lives on, unaware it
                    // was deposed. Park it for fencing at the heal; the
                    // promoted side starts from its own node's resources.
                    (hub(seed ^ (0x9e00 + epoch)), Some(dead))
                };
                let (mut promoted, report) = sb
                    .promote(epoch, &model, promoted_hub, INVARIANTS)
                    .expect("promotion recovers from the mirror");
                promoted.set_snapshot_every(SNAPSHOT_EVERY);
                let penalty_us = RESTART_PENALTY_US
                    + REPLAY_COST_PER_ENTRY_US * (report.ops_replayed + report.commands_replayed);
                let target_us = t.as_micros() + penalty_us;
                let now_us = promoted.now().as_micros();
                if target_us > now_us {
                    promoted.advance_clock(SimDuration::from_micros(target_us - now_us));
                }
                broker = promoted;
                failovers += 1;
                committed_lost =
                    committed_lost.max(committed.saturating_sub(applied_updates(&broker)));
                let detect_us = t.as_micros() - fault_at.take().unwrap_or_else(|| t.as_micros());
                fo_times_us.push(detect_us + penalty_us);
                primary_node = promoted_to;
                match stale {
                    Some(dead) => parked = Some((dead, old_rep, sb)),
                    None => retrans_retired += old_rep.retransmits(),
                }
            } else if primary_restart {
                // No standby to promote: a fresh model on the same node
                // (the no-replica configuration's only move). The journal
                // died with the node.
                let dead = broker;
                let mut fresh =
                    GenericBroker::from_model(&model, dead.into_hub()).expect("E9 model valid");
                fresh.enable_journal(SNAPSHOT_EVERY);
                fresh.advance_clock(SimDuration::from_micros(t.as_micros() + RESTART_PENALTY_US));
                broker = fresh;
                restarts += 1;
                committed_lost = committed_lost.max(committed);
                let detect_us = t.as_micros() - fault_at.take().unwrap_or_else(|| t.as_micros());
                fo_times_us.push(detect_us + RESTART_PENALTY_US);
            }

            if sb_reset && standby.is_some() {
                let sb_node = other(&primary_node).to_owned();
                let mut nsb = Standby::new(&sb_node);
                nsb.fence(supervisor.epoch());
                standby = Some(nsb);
                if let Some(r) = rep.take() {
                    retrans_retired += r.retransmits();
                }
                rep = Some(QuorumReplicator::new(
                    cfg_to(base_cfg.as_ref().expect("replicated"), &sb_node),
                    &primary_node,
                ));
                standby_resyncs += 1;
            }

            // A failed-over node that is reachable again rejoins: fence
            // its stale journal, reconcile, and re-arm it as the standby.
            if replicated && supervisor.awaiting_rejoin("a") && net.is_up("a", "b") {
                if let Some((stale_broker, mut stale_rep, mut fence)) = parked.take() {
                    if supervisor.state().int("crashed_a") == Some(1) {
                        // A later crash took the parked journal with it;
                        // nothing left to fence or reconcile.
                        retrans_retired += stale_rep.retransmits();
                    } else {
                        let stale_bytes = stale_broker
                            .journal_bytes()
                            .expect("journaling on")
                            .to_vec();
                        let r = stale_rep
                            .tick(
                                t,
                                stale_broker.epoch(),
                                &net,
                                &stale_bytes,
                                &mut [&mut fence],
                            )
                            .expect("stale tick is healthy");
                        if r.fenced > 0 {
                            fenced_events += 1;
                        }
                        retrans_retired += stale_rep.retransmits();
                        let auth = broker.journal_bytes().expect("journaling on").to_vec();
                        let (_, rr) = reconcile(
                            &auth,
                            &stale_bytes,
                            &primary_node,
                            &model,
                            hub(seed ^ 0xace),
                            INVARIANTS,
                        )
                        .expect("reconciliation rebuilds from the authoritative journal");
                        reconciles += 1;
                        discarded_stale_lines += rr.discarded_stale_lines as u64;
                    }
                }
                supervisor.rejoin("a", t);
                supervisor.designate_replica_set(&primary_node, &["a"]);
                let mut nsb = Standby::new("a");
                nsb.fence(supervisor.epoch());
                standby = Some(nsb);
                rep = Some(QuorumReplicator::new(
                    cfg_to(base_cfg.as_ref().expect("replicated"), "a"),
                    &primary_node,
                ));
                rejoins += 1;
            }

            // Online temporal-property check (the shipped
            // `onePrimaryPerEpoch` monitor): observe the supervisor's
            // runtime model after every control-plane cycle. A trip here
            // would mean two different primaries were promoted under the
            // same fencing epoch — the split-brain the epoch fence exists
            // to prevent.
            let dirty: Vec<&str> = prop_watched.iter().map(String::as_str).collect();
            property_trips += failover_props
                .check_observed(supervisor.state(), &dirty, &mut prop_shadow)
                .len() as u64;
        }

        // A crashed-but-undetected primary serves nothing.
        if supervisor.state().int(&format!("crashed_{primary_node}")) == Some(1) {
            failed_dead += 1;
            broker.advance_clock(period);
            continue;
        }

        // CP gate: the ack-windowed primary refuses calls it could not
        // commit — no standby, or a standby it cannot catch up.
        if variant == Variant::AckWindowed {
            let caught_up = match (rep.as_mut(), standby.as_mut()) {
                (Some(r), Some(s)) => drain(r, s, &broker, &net, t.as_micros(), DRAIN_ROUNDS),
                _ => false,
            };
            if !caught_up {
                rejected += 1;
                broker.advance_clock(period);
                continue;
            }
        }

        let n = i.to_string();
        let r = broker
            .call("op", &args(&[("n", &n)]))
            .expect("handler accepts op");
        let ok = r.outcome.is_ok();
        if ok {
            served += 1;
        }
        match variant {
            Variant::NoReplica => {
                if ok {
                    committed += 1;
                    committed_actions.push(r.action.clone());
                }
            }
            Variant::AsyncShip => {
                // AP: commit first, ship when the network allows.
                if ok {
                    committed += 1;
                    committed_actions.push(r.action.clone());
                }
                if let (Some(rp), Some(s)) = (rep.as_mut(), standby.as_mut()) {
                    rp.tick(
                        broker.now(),
                        broker.epoch(),
                        &net,
                        broker.journal_bytes().expect("journaling on"),
                        &mut [s],
                    )
                    .expect("replication tick is healthy");
                }
            }
            Variant::AckWindowed => {
                let rp = rep.as_mut().expect("gate passed");
                let s = standby.as_mut().expect("gate passed");
                let acked = drain(rp, s, &broker, &net, broker.now().as_micros(), DRAIN_ROUNDS);
                if ok && acked {
                    committed += 1;
                    committed_actions.push(r.action.clone());
                } else if ok {
                    // Executed but unacknowledged: the client is told
                    // "uncertain", never "committed" — so it can never be
                    // committed-but-lost.
                    uncertain += 1;
                }
            }
        }
        broker.advance_clock(period);
    }

    // Post-failover command-trace divergence: every action acknowledged as
    // committed must still appear, in order, in the surviving journal.
    let journal_bytes = broker.journal_bytes().expect("journaling on");
    let mut trace: Vec<String> = Vec::new();
    for line in std::str::from_utf8(journal_bytes)
        .expect("journal is UTF-8")
        .lines()
    {
        if let JournalRecord::Command {
            action, ok: true, ..
        } = journal::parse_line(line).expect("surviving journal parses")
        {
            trace.push(action);
        }
    }
    let mut j = 0usize;
    let mut divergent_commits = 0u64;
    for a in &committed_actions {
        match trace[j..].iter().position(|x| x == a) {
            Some(p) => j += p + 1,
            None => divergent_commits += 1,
        }
    }

    let replayed = journal::replay(journal_bytes).expect("surviving journal replays");
    let replay_consistent = broker.state().first_divergence(&replayed.state).is_none();

    let mut retransmits = retrans_retired;
    if let Some(r) = rep.as_ref() {
        retransmits += r.retransmits();
    }
    if let Some((_, r, _)) = parked.as_ref() {
        retransmits += r.retransmits();
    }

    let mean_failover_ms = if fo_times_us.is_empty() {
        0.0
    } else {
        fo_times_us.iter().sum::<u64>() as f64 / fo_times_us.len() as f64 / 1000.0
    };
    E9Run {
        calls,
        served,
        committed,
        rejected,
        failed_dead,
        uncertain,
        failovers,
        restarts,
        standby_resyncs,
        rejoins,
        fenced_events,
        reconciles,
        discarded_stale_lines,
        committed_lost,
        divergent_commits,
        mean_failover_ms,
        max_failover_ms: fo_times_us.iter().max().copied().unwrap_or(0) as f64 / 1000.0,
        retransmits,
        journal_bytes: journal_bytes.len() as u64,
        served_counters: (
            broker.state().int("served_alpha").unwrap_or(0),
            broker.state().int("served_beta").unwrap_or(0),
        ),
        state_version: broker.state().version(),
        replay_consistent,
        escalated,
        one_primary_per_epoch: property_trips == 0,
    }
}

/// All three configurations over one campaign seed.
#[derive(Debug, Clone, PartialEq)]
pub struct E9Campaign {
    /// Campaign seed.
    pub seed: u64,
    /// Local journal only.
    pub no_replica: E9Run,
    /// Best-effort shipping.
    pub async_ship: E9Run,
    /// Ack-windowed shipping.
    pub ack_ship: E9Run,
}

/// Runs the three configurations over the campaign generated by `seed`.
pub fn run_campaign(seed: u64, calls: u64, period_ms: u64) -> E9Campaign {
    E9Campaign {
        seed,
        no_replica: run_variant(seed, calls, period_ms, Variant::NoReplica),
        async_ship: run_variant(seed, calls, period_ms, Variant::AsyncShip),
        ack_ship: run_variant(seed, calls, period_ms, Variant::AckWindowed),
    }
}

/// The full experiment: the three configurations across several seeded
/// campaigns, with the claims checked across all of them.
#[derive(Debug, Clone, PartialEq)]
pub struct E9Result {
    /// Campaign seeds, in run order.
    pub seeds: Vec<u64>,
    /// Calls per configuration per campaign.
    pub calls: u64,
    /// Virtual milliseconds between calls.
    pub period_ms: u64,
    /// Per-seed results.
    pub campaigns: Vec<E9Campaign>,
    /// Ack-windowed shipping lost zero committed updates on every seed.
    pub ack_zero_lost: bool,
    /// Ack-windowed shipping shows zero committed-trace divergence on
    /// every seed.
    pub ack_zero_divergence: bool,
    /// Async shipping measurably lost committed updates on some seed.
    pub async_loss_observed: bool,
    /// Every surviving journal replays to the live runtime model, in every
    /// configuration, on every seed.
    pub replays_consistent: bool,
    /// The online `onePrimaryPerEpoch` temporal property held in every
    /// configuration on every seed.
    pub one_primary_per_epoch: bool,
}

/// Runs E9 across `seeds`.
pub fn run(seeds: &[u64], calls: u64, period_ms: u64) -> E9Result {
    let campaigns: Vec<E9Campaign> = seeds
        .iter()
        .map(|&s| run_campaign(s, calls, period_ms))
        .collect();
    let ack_zero_lost = campaigns.iter().all(|c| c.ack_ship.committed_lost == 0);
    let ack_zero_divergence = campaigns.iter().all(|c| c.ack_ship.divergent_commits == 0);
    let async_loss_observed = campaigns
        .iter()
        .any(|c| c.async_ship.committed_lost > 0 || c.async_ship.divergent_commits > 0);
    let replays_consistent = campaigns.iter().all(|c| {
        c.no_replica.replay_consistent
            && c.async_ship.replay_consistent
            && c.ack_ship.replay_consistent
    });
    let one_primary_per_epoch = campaigns.iter().all(|c| {
        c.no_replica.one_primary_per_epoch
            && c.async_ship.one_primary_per_epoch
            && c.ack_ship.one_primary_per_epoch
    });
    E9Result {
        seeds: seeds.to_vec(),
        calls,
        period_ms,
        campaigns,
        ack_zero_lost,
        ack_zero_divergence,
        async_loss_observed,
        replays_consistent,
        one_primary_per_epoch,
    }
}

fn fields(r: &E9Run) -> Obj {
    crate::obj! {
        "calls": r.calls, "served": r.served, "committed": r.committed, "rejected": r.rejected,
        "failed_dead": r.failed_dead, "uncertain": r.uncertain, "failovers": r.failovers,
        "restarts": r.restarts, "standby_resyncs": r.standby_resyncs, "rejoins": r.rejoins,
        "fenced_events": r.fenced_events, "reconciles": r.reconciles,
        "discarded_stale_lines": r.discarded_stale_lines, "committed_lost": r.committed_lost,
        "divergent_commits": r.divergent_commits,
        "mean_failover_ms": fixed(r.mean_failover_ms, 3),
        "max_failover_ms": fixed(r.max_failover_ms, 3), "retransmits": r.retransmits,
        "journal_bytes": r.journal_bytes, "served_alpha": r.served_counters.0,
        "served_beta": r.served_counters.1, "state_version": r.state_version,
        "replay_consistent": r.replay_consistent, "escalated": r.escalated,
        "one_primary_per_epoch": r.one_primary_per_epoch,
    }
}

impl E9Result {
    /// The `BENCH_e9.json` artifact. Deterministic in the seeds.
    pub fn artifact(&self) -> Artifact {
        let campaigns: Vec<Obj> = self
            .campaigns
            .iter()
            .map(|c| {
                crate::obj! {
                    "seed": c.seed, "no_replica": fields(&c.no_replica),
                    "async_ship": fields(&c.async_ship), "ack_ship": fields(&c.ack_ship),
                }
            })
            .collect();
        Artifact::new(
            "e9",
            crate::obj! {
                "seed": self.seeds.first().copied().unwrap_or(0),
                "seeds": self.seeds.clone(),
                "calls": self.calls,
                "period_ms": self.period_ms,
                "supervise_every": SUPERVISE_EVERY,
                "ack_zero_lost": self.ack_zero_lost,
                "ack_zero_divergence": self.ack_zero_divergence,
                "async_loss_observed": self.async_loss_observed,
                "replays_consistent": self.replays_consistent,
                "one_primary_per_epoch": self.one_primary_per_epoch,
                "campaigns": campaigns,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ack_windowed_shipping_never_loses_a_committed_update() {
        let r = run(&[1, 3, 7], 400, 20);
        let failovers: u64 = r.campaigns.iter().map(|c| c.ack_ship.failovers).sum();
        assert!(failovers > 0, "campaigns promoted no standby");
        assert!(r.ack_zero_lost, "ack-windowed lost committed updates");
        assert!(
            r.ack_zero_divergence,
            "ack-windowed committed trace diverged"
        );
        assert!(r.replays_consistent);
        assert!(
            r.one_primary_per_epoch,
            "two primaries promoted under one epoch"
        );
        for c in &r.campaigns {
            assert!(!c.ack_ship.escalated);
            assert_eq!(c.ack_ship.committed_lost, 0, "seed {}", c.seed);
            assert_eq!(c.ack_ship.divergent_commits, 0, "seed {}", c.seed);
        }
    }

    #[test]
    fn async_shipping_loses_committed_updates_under_partition() {
        let r = run(&[1, 3, 7], 400, 20);
        assert!(
            r.async_loss_observed,
            "no campaign made async shipping lose a committed update"
        );
        let lost: u64 = r
            .campaigns
            .iter()
            .map(|c| c.async_ship.committed_lost)
            .sum();
        let divergent: u64 = r
            .campaigns
            .iter()
            .map(|c| c.async_ship.divergent_commits)
            .sum();
        assert!(lost > 0);
        assert!(
            divergent > 0,
            "lost commits must show up as trace divergence"
        );
    }

    #[test]
    fn healed_stale_primaries_are_fenced_and_reconciled() {
        let r = run(&[1, 3, 7], 400, 20);
        let fenced: u64 = r.campaigns.iter().map(|c| c.async_ship.fenced_events).sum();
        let reconciles: u64 = r.campaigns.iter().map(|c| c.async_ship.reconciles).sum();
        let discarded: u64 = r
            .campaigns
            .iter()
            .map(|c| c.async_ship.discarded_stale_lines)
            .sum();
        assert!(fenced > 0, "no stale primary was ever fenced");
        assert!(reconciles > 0);
        assert!(discarded > 0, "reconciliation discarded no stale writes");
    }

    #[test]
    fn no_replica_crashes_lose_the_whole_committed_history() {
        let r = run(&[1, 3, 7], 400, 20);
        let restarts: u64 = r.campaigns.iter().map(|c| c.no_replica.restarts).sum();
        assert!(restarts > 0, "no campaign crashed the no-replica node");
        let lost: u64 = r
            .campaigns
            .iter()
            .map(|c| c.no_replica.committed_lost)
            .sum();
        assert!(lost > 0);
        for c in &r.campaigns {
            if c.no_replica.restarts > 0 {
                assert!(
                    c.no_replica.committed_lost >= c.async_ship.committed_lost,
                    "seed {}: a replica should never lose more than none",
                    c.seed
                );
            }
        }
    }

    #[test]
    fn failover_takes_detection_plus_promotion_time() {
        let r = run_variant(2024, 400, 20, Variant::AckWindowed);
        assert!(r.failovers > 0);
        assert!(r.mean_failover_ms >= RESTART_PENALTY_US as f64 / 1000.0);
        assert!(r.max_failover_ms >= r.mean_failover_ms);
        // CP behaviour: partitions show up as refused calls, not losses.
        assert!(r.rejected > 0, "partitions never cost any availability");
    }

    #[test]
    fn repeated_runs_are_byte_identical() {
        let a = run(&[7], 200, 20);
        let b = run(&[7], 200, 20);
        assert_eq!(a, b);
        assert_eq!(a.artifact().render(), b.artifact().render());
    }
}
