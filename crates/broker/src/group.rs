//! A replica group: one primary broker, its replica set, and the
//! supervisor whose decisions the group carries out itself.
//!
//! [`Supervisor::tick`] monitors, analyses and plans: it returns
//! [`SupervisorDecision`]s. A [`ReplicaGroup`] is the Execute step of that
//! loop, so the Broker layer's autonomic manager runs whole inside the
//! middleware. The group owns the primary [`GenericBroker`], the live
//! [`Standby`] replicas and the durable mirrors of the replicas that are
//! down, the [`QuorumReplicator`], the [`Supervisor`], and a deposed but
//! still running ex-primary, parked until its partition heals. It is
//! built from a broker model whose `ReplicaSet` declares the peers; a
//! model without one makes a zero-peer group, whose replicator has no
//! lanes and commits on the primary's own journal.
//!
//! | decision | what the group does |
//! |---|---|
//! | `Failover` | promotes the elected replica's mirror under the new epoch, parks a deposed primary that is still alive (or retires a crashed one), fences and resyncs the survivors, and logs the recovery time from the fault's true instant |
//! | `Restart` of the primary | a fresh model: nothing electable survived |
//! | `Restart` of a crashed replica | revives it from its durable mirror (anti-entropy when damaged) and rewinds its lane |
//! | `Escalate` | records it in the report |
//! | `Quarantine` | [`GenericBroker::rollback_to_snapshot`] on the primary |
//! | `RepairJournal` | recovers the primary with [`recover_with_anti_entropy`] |
//! | rejoin of a healed ex-primary | a stale-epoch fence tick, [`reconcile`], then the authoritative journal installed as its mirror |
//! | `RollbackUpgrade` | handed back: it needs the caller's [`crate::evolution::LiveUpgrade`] |
//!
//! Campaign faults reach the group through a queue
//! ([`ReplicaGroup::deliver`] drains a [`FaultDriver`] into it), because
//! the driver needs the primary's resource hub and the fault target at
//! the same time. Crashes, state corruption, storage faults and upgrade
//! pushes are carried out at the instant they fire.

use std::collections::BTreeMap;

use mddsm_meta::model::Model;
use mddsm_sim::fault::{ComponentTarget, FaultDriver, StorageFault};
use mddsm_sim::net::Network;
use mddsm_sim::resource::ResourceHub;
use mddsm_sim::{SimDuration, SimTime};

use crate::engine::{GenericBroker, RecoveryReport};
use crate::journal::{self, JournalRecord};
use crate::monitor::{self, MonitorSet};
use crate::replication::{
    reconcile, recover_with_anti_entropy, repair_journal, select_repair_source, QuorumReplicator,
    QuorumShipReport, ReplicaSetConfig, Standby,
};
use crate::state::StateManager;
use crate::supervisor::{RestartPolicy, Supervisor, SupervisorDecision};
use crate::{BrokerError, Result};

/// Virtual cost of bringing a promoted or restarted broker up (µs).
pub const RESTART_PENALTY_US: u64 = 5_000;
/// Virtual cost of replaying one journal entry during a recovery (µs).
pub const REPLAY_COST_PER_ENTRY_US: u64 = 20;

/// Salts for the caller's hub factory, one per kind of fresh node: a
/// promotion away from a live primary (plus the epoch), a reconciliation,
/// a plain recovery after anti-entropy failed, and a fresh model.
const HUB_PROMOTED: u64 = 0x9e00;
const HUB_RECONCILE: u64 = 0xace;
const HUB_RECOVER: u64 = 0xd15c;
const HUB_FRESH: u64 = 0xf0e5;

/// Drain rounds the end-of-campaign quiesce runs at most, and how many
/// rounds without progress count as a lane cut off.
const QUIESCE_ROUNDS: u64 = 200;
const QUIESCE_STALLED: u64 = 3;

/// What a group did over its lifetime, plus the end-of-run audit that
/// [`ReplicaGroup::report`] fills in.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GroupReport {
    /// Updates the caller acknowledged as committed ([`ReplicaGroup::commit`]),
    /// less those a quarantine rolled back.
    pub committed: u64,
    /// Worst committed-but-lost count at any promotion or recovery:
    /// committed updates the new primary's runtime model lacks.
    pub committed_lost: u64,
    /// Elected promotions.
    pub failovers: u64,
    /// Fresh-model restarts (no electable replica remained).
    pub restarts: u64,
    /// Crashed replicas revived from their durable mirrors.
    pub replica_revivals: u64,
    /// Mirrors (and primary journals) healed by anti-entropy.
    pub anti_entropy_repairs: u64,
    /// Mirrors rebuilt in full from the primary's journal.
    pub standby_resyncs: u64,
    /// Healed ex-primaries that rejoined as replicas.
    pub rejoins: u64,
    /// Rejoins whose stale-epoch fence tick was refused by a survivor.
    pub fenced_events: u64,
    /// Reconciliations of healed stale primaries.
    pub reconciles: u64,
    /// Stale journal lines those reconciliations discarded.
    pub discarded_stale_lines: u64,
    /// Crashes delivered to members.
    pub crashes: u64,
    /// State corruptions injected at the primary.
    pub corruptions: u64,
    /// Monitor trips those corruptions caused.
    pub monitor_trips: u64,
    /// Quarantines: rollbacks to the newest verified snapshot.
    pub snapshot_rollbacks: u64,
    /// Storage faults delivered to members' journals.
    pub storage_faults: u64,
    /// Storage faults that left the bytes unchanged.
    pub harmless: u64,
    /// Upgrade pushes delivered while the primary was up.
    pub upgrades_pushed: u64,
    /// Upgrades journaled at the primary.
    pub upgrades_applied: u64,
    /// Pushes skipped (monitor latched, or the candidate refused).
    pub upgrades_skipped: u64,
    /// Whether the supervisor gave up on a member.
    pub escalated: bool,
    /// Whether the `onePrimaryPerEpoch` property held after every
    /// supervision cycle.
    pub one_primary_per_epoch: bool,
    /// Mean recovery time over failovers and restarts (virtual ms):
    /// detection + penalty + replay.
    pub mean_failover_ms: f64,
    /// Worst single recovery time (virtual ms).
    pub max_failover_ms: f64,
    /// Committed actions missing, in order, from the primary's journal.
    pub divergent_commits: u64,
    /// Whether an independent replay of the journal equals the live
    /// runtime model.
    pub replay_consistent: bool,
    /// Ack-timeout go-backs over every replicator the group ran, the
    /// parked one included.
    pub retransmits: u64,
    /// The current replicator's quorum commit LSN.
    pub commit_lsn: u64,
    /// The primary's journal size (bytes).
    pub journal_bytes: u64,
    /// The primary's state version (journal LSN head).
    pub state_version: u64,
}

#[derive(Debug, Clone)]
enum Fault {
    Crash(String),
    Corrupt(String, String),
    Storage(String, StorageFault),
    Upgrade(String),
}

/// Faults queued by a [`FaultDriver`] until the group applies them.
#[derive(Debug, Default)]
struct FaultQueue(Vec<Fault>);

impl ComponentTarget for FaultQueue {
    fn crash_component(&mut self, component: &str) {
        self.0.push(Fault::Crash(component.to_owned()));
    }
    // No campaign the group runs wedges a node; crashes stand for dead
    // nodes.
    fn stall_component(&mut self, _component: &str) {}
    // State corruption lands on whichever node is primary when it fires.
    fn corrupt_state(&mut self, _component: &str, key: &str, value: &str) {
        self.0
            .push(Fault::Corrupt(key.to_owned(), value.to_owned()));
    }
    fn torn_write(&mut self, component: &str, bytes: u64) {
        self.0.push(Fault::Storage(
            component.to_owned(),
            StorageFault::Torn(bytes),
        ));
    }
    fn bit_flip(&mut self, component: &str, offset: u64) {
        self.0.push(Fault::Storage(
            component.to_owned(),
            StorageFault::Flip(offset),
        ));
    }
    fn drop_unsynced(&mut self, component: &str, records: u64) {
        self.0.push(Fault::Storage(
            component.to_owned(),
            StorageFault::Drop(records),
        ));
    }
    fn truncate_snapshot(&mut self, component: &str) {
        self.0.push(Fault::Storage(
            component.to_owned(),
            StorageFault::TruncateSnapshot,
        ));
    }
    fn begin_upgrade(&mut self, _component: &str, candidate: &str) {
        self.0.push(Fault::Upgrade(candidate.to_owned()));
    }
}

/// A deposed primary that is still running, with the replicator it
/// shipped with, until its partition heals.
struct Parked {
    node: String,
    broker: GenericBroker,
    replicator: QuorumReplicator,
}

/// A primary broker, its replica set and its supervisor, executing the
/// supervisor's decisions itself (see the [module docs](self)).
pub struct ReplicaGroup {
    model: Model,
    invariants: Vec<String>,
    /// The model's replica set: quorum and per-peer lane parameters.
    declared: Option<ReplicaSetConfig>,
    /// The first primary, then the declared peers.
    members: Vec<String>,
    primary: String,
    broker: GenericBroker,
    snapshot_every: u64,
    /// Spacing of drain rounds: the longest lane ack timeout.
    round: SimDuration,
    standbys: BTreeMap<String, Standby>,
    /// Durable mirrors of crashed replicas; storage faults land here
    /// while they are down.
    down: BTreeMap<String, Vec<u8>>,
    replicator: QuorumReplicator,
    supervisor: Supervisor,
    parked: Option<Parked>,
    hubs: Box<dyn FnMut(u64) -> ResourceHub>,
    updates: fn(&StateManager) -> u64,
    queue: FaultQueue,
    /// The primary's journal as a storage check found it, awaiting the
    /// supervisor's `RepairJournal`.
    damaged: Option<Vec<u8>>,
    /// Virtual instant (µs) the fault the primary has not recovered from
    /// fired.
    fault_at: Option<u64>,
    recoveries_us: Vec<u64>,
    retired_retransmits: u64,
    committed_actions: Vec<String>,
    one_primary: MonitorSet,
    one_primary_memory: BTreeMap<String, String>,
    one_primary_trips: u64,
    report: GroupReport,
}

fn strs(v: &[String]) -> Vec<&str> {
    v.iter().map(String::as_str).collect()
}

fn journal_of(broker: &GenericBroker) -> Result<&[u8]> {
    broker
        .journal_bytes()
        .ok_or_else(|| BrokerError::RecoveryDiverged("a replica group needs journaling".into()))
}

/// A node is cut when every other member is unreachable in at least one
/// direction. A lone node is never cut.
fn is_cut(net: &Network, node: &str, members: &[String]) -> bool {
    let mut others = members.iter().filter(|m| m.as_str() != node).peekable();
    others.peek().is_some() && others.all(|m| !net.is_up(node, m) || !net.is_up(m, node))
}

fn replay_penalty(report: &RecoveryReport) -> u64 {
    RESTART_PENALTY_US + REPLAY_COST_PER_ENTRY_US * (report.ops_replayed + report.commands_replayed)
}

/// Advances `broker`'s clock to `target_us` unless it is already past it.
fn catch_up_clock(broker: &mut GenericBroker, target_us: u64) {
    let now_us = broker.now().as_micros();
    if target_us > now_us {
        broker.advance_clock(SimDuration::from_micros(target_us - now_us));
    }
}

/// The lanes a primary on `primary` ships down: one per other member, in
/// member order. A member the model does not declare as a peer (the
/// first primary) ships with the first declared peer's parameters.
fn lanes(
    declared: &Option<ReplicaSetConfig>,
    members: &[String],
    primary: &str,
) -> ReplicaSetConfig {
    let Some(declared) = declared else {
        return ReplicaSetConfig {
            quorum: 1,
            peers: Vec::new(),
        };
    };
    let peers = members
        .iter()
        .filter(|m| m.as_str() != primary)
        .filter_map(|m| {
            let lane = declared.peers.iter().find(|p| p.node == *m);
            let mut peer = lane.or(declared.peers.first())?.clone();
            peer.node = m.clone();
            Some(peer)
        })
        .collect();
    ReplicaSetConfig {
        quorum: declared.quorum,
        peers,
    }
}

/// Rebuilds a replica's mirror after damage or downtime: kept when it is
/// intact and still a prefix of the authoritative journal, healed by
/// anti-entropy from the freshest of `sources` otherwise, and resynced in
/// full from the authoritative journal as the last resort.
fn rebuild_standby(
    node: &str,
    mirror: &[u8],
    authoritative: &[u8],
    sources: &[&Standby],
    epoch: u64,
    report: &mut GroupReport,
) -> Result<Standby> {
    if authoritative.starts_with(mirror) {
        if let Ok(sb) = Standby::from_mirror(node, mirror, epoch) {
            return Ok(sb);
        }
    }
    if let Some(source) = select_repair_source(sources) {
        if let Ok((healed, _)) = repair_journal(mirror, source) {
            if authoritative.starts_with(&healed) {
                if let Ok(sb) = Standby::from_mirror(node, &healed, epoch) {
                    report.anti_entropy_repairs += 1;
                    return Ok(sb);
                }
            }
        }
    }
    report.standby_resyncs += 1;
    Standby::from_mirror(node, authoritative, epoch)
}

impl ReplicaGroup {
    /// A group whose primary `primary` runs on node `node`, with the
    /// replica set `model` declares (none: a zero-peer group). `primary`
    /// must journal; its snapshot cadence carries over to every broker
    /// the group promotes, recovers or restarts. Promotions, recoveries
    /// and reconciliations re-check `invariants`. `hubs` builds the
    /// resource hub of a fresh node from a salt naming what it is for;
    /// `updates` counts the client updates a runtime model holds, which
    /// the committed-but-lost audit compares with [`ReplicaGroup::commit`].
    pub fn new(
        model: &Model,
        node: &str,
        primary: GenericBroker,
        invariants: &[&str],
        policy: RestartPolicy,
        hubs: impl FnMut(u64) -> ResourceHub + 'static,
        updates: fn(&StateManager) -> u64,
    ) -> Result<Self> {
        journal_of(&primary)?;
        let declared = ReplicaSetConfig::from_model(model)?;
        let peers: Vec<String> = declared
            .iter()
            .flat_map(|c| c.peers.iter().map(|p| p.node.clone()))
            .collect();
        if peers.iter().any(|p| p == node) {
            return Err(BrokerError::InvalidModel(format!(
                "primary node `{node}` is also declared a replica"
            )));
        }
        let members: Vec<String> = std::iter::once(node.to_owned()).chain(peers).collect();
        let names = strs(&members);
        let mut supervisor = Supervisor::new(&names, policy);
        supervisor.designate_replica_set(node, &names[1..]);
        let round = declared
            .iter()
            .flat_map(|c| c.peers.iter().map(|p| p.ack_timeout))
            .max()
            .unwrap_or(SimDuration::ZERO);
        Ok(ReplicaGroup {
            replicator: QuorumReplicator::new(lanes(&declared, &members, node), node),
            standbys: members[1..]
                .iter()
                .map(|m| (m.clone(), Standby::new(m)))
                .collect(),
            model: model.clone(),
            invariants: invariants.iter().map(|s| (*s).to_owned()).collect(),
            declared,
            primary: node.to_owned(),
            members,
            snapshot_every: primary.snapshot_every(),
            broker: primary,
            round,
            down: BTreeMap::new(),
            supervisor,
            parked: None,
            hubs: Box::new(hubs),
            updates,
            queue: FaultQueue::default(),
            damaged: None,
            fault_at: None,
            recoveries_us: Vec::new(),
            retired_retransmits: 0,
            committed_actions: Vec::new(),
            one_primary: monitor::failover_properties(),
            one_primary_memory: BTreeMap::new(),
            one_primary_trips: 0,
            report: GroupReport::default(),
        })
    }

    /// The serving primary.
    pub fn primary(&self) -> &GenericBroker {
        &self.broker
    }

    /// The serving primary, for issuing calls.
    pub fn primary_mut(&mut self) -> &mut GenericBroker {
        &mut self.broker
    }

    /// The node the primary runs on.
    pub fn primary_node(&self) -> &str {
        &self.primary
    }

    /// Whether the primary has crashed and the supervisor has not acted
    /// on it yet: it serves nothing.
    pub fn primary_down(&self) -> bool {
        self.crashed(&self.primary)
    }

    /// The live replica on `node`, if any.
    pub fn standby(&self, node: &str) -> Option<&Standby> {
        self.standbys.get(node)
    }

    /// The node of the parked ex-primary, if one is waiting for its
    /// partition to heal.
    pub fn parked_node(&self) -> Option<&str> {
        self.parked.as_ref().map(|p| p.node.as_str())
    }

    /// The primary's replicator.
    pub fn replicator(&self) -> &QuorumReplicator {
        &self.replicator
    }

    /// The supervisor.
    pub fn supervisor(&self) -> &Supervisor {
        &self.supervisor
    }

    /// The supervisor, for feeding it symptoms
    /// ([`Supervisor::note_monitor_trip`] and the like).
    pub fn supervisor_mut(&mut self) -> &mut Supervisor {
        &mut self.supervisor
    }

    /// The primary's virtual clock.
    pub fn now(&self) -> SimTime {
        self.broker.now()
    }

    /// Advances the primary's virtual clock (idle time between calls).
    pub fn advance_clock(&mut self, d: SimDuration) {
        self.broker.advance_clock(d);
    }

    /// The fault queue: faults pushed here take effect at the next
    /// [`ReplicaGroup::apply_faults`].
    pub fn faults(&mut self) -> &mut dyn ComponentTarget {
        &mut self.queue
    }

    /// Delivers every event of `driver` due by `now` at its own instant,
    /// so recovery time is measured from the true fault time.
    pub fn deliver(&mut self, driver: &mut FaultDriver, now: SimTime, net: &Network) -> Result<()> {
        while let Some(at) = driver.next_at() {
            if at > now {
                break;
            }
            driver.advance_full(at, self.broker.hub_mut(), Some(net), Some(&mut self.queue));
            self.apply_faults(at, net)?;
        }
        Ok(())
    }

    /// Carries out the queued faults as of instant `at`. A primary that is
    /// crashed or cut afterwards opens the recovery-time window.
    pub fn apply_faults(&mut self, at: SimTime, net: &Network) -> Result<()> {
        for fault in std::mem::take(&mut self.queue.0) {
            self.apply(fault, at)?;
        }
        if self.fault_at.is_none() && self.primary_unhealthy(net) {
            self.fault_at = Some(at.as_micros());
        }
        Ok(())
    }

    /// Feeds the supervisor its inputs at `now`: every member's partition
    /// flag, heartbeats, and the replicas' applied LSNs. A healthy primary
    /// closes the recovery-time window.
    pub fn observe(&mut self, now: SimTime, net: &Network) {
        for n in &self.members {
            self.supervisor
                .note_partitioned(n, is_cut(net, n, &self.members));
            self.supervisor.heartbeat(n, now);
        }
        if !self.primary_unhealthy(net) {
            self.fault_at = None;
        }
        for (n, sb) in &self.standbys {
            self.supervisor.note_replica_lsn(n, sb.applied_lsn());
        }
    }

    /// One supervision cycle: [`ReplicaGroup::observe`], tick the
    /// supervisor, carry out its decisions, rejoin every healed
    /// ex-primary, and check `onePrimaryPerEpoch`. Returns the decisions
    /// the group cannot carry out itself (`RollbackUpgrade`).
    pub fn supervise(&mut self, now: SimTime, net: &Network) -> Result<Vec<SupervisorDecision>> {
        self.observe(now, net);
        let mut failover = None;
        let mut restart_primary = false;
        let mut revive = Vec::new();
        let mut unexecuted = Vec::new();
        for decision in self.supervisor.tick(now)? {
            match decision {
                SupervisorDecision::Escalate { .. } => self.report.escalated = true,
                SupervisorDecision::Failover {
                    standby,
                    reason,
                    epoch,
                    ..
                } => failover = Some((standby, epoch, reason)),
                // Only a crash needs a restart: a partitioned or wedged
                // node's lane retransmits once it is back.
                SupervisorDecision::Restart {
                    component, reason, ..
                } => {
                    if component == self.primary {
                        restart_primary = reason == "crashed";
                    } else if reason == "crashed" {
                        revive.push(component);
                    }
                }
                // Replicas serve nothing, so only the primary is repaired.
                SupervisorDecision::Quarantine { component, .. } => {
                    if component == self.primary {
                        self.quarantine()?;
                    }
                }
                SupervisorDecision::RepairJournal {
                    component, standby, ..
                } => {
                    if component == self.primary {
                        let damaged = match self.damaged.take() {
                            Some(d) => d,
                            None => journal_of(&self.broker)?.to_vec(),
                        };
                        self.recover_primary(&damaged, now, Some(&standby))?;
                    }
                }
                rollback @ SupervisorDecision::RollbackUpgrade { .. } => unexecuted.push(rollback),
            }
        }
        if let Some((to, epoch, reason)) = failover {
            self.fail_over(now, &to, epoch, &reason)?;
        } else if restart_primary {
            self.restart_primary(now)?;
        }
        for node in revive {
            self.revive(&node)?;
        }
        self.rejoin_healed(now, net)?;
        let watched = self.one_primary.watched_keys();
        self.one_primary_trips += self
            .one_primary
            .check_observed(
                self.supervisor.state(),
                &strs(&watched),
                &mut self.one_primary_memory,
            )
            .len() as u64;
        Ok(unexecuted)
    }

    /// Ships to the replicas until the journal is quorum-committed or
    /// `rounds` rounds, one ack timeout apart from `from`, have passed.
    /// Returns whether it is quorum-committed (always, in a zero-peer
    /// group).
    pub fn drain(&mut self, from: SimTime, rounds: u64, net: &Network) -> Result<bool> {
        for k in 0..rounds {
            let at = SimTime::from_micros(from.as_micros() + k * self.round.as_micros());
            self.tick(at, net)?;
            if self.replicator.quorum_synced() {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// One shipping cycle to the live replicas at `now`.
    pub fn tick(&mut self, now: SimTime, net: &Network) -> Result<QuorumShipReport> {
        let bytes = journal_of(&self.broker)?;
        let mut peers: Vec<&mut Standby> = self.standbys.values_mut().collect();
        self.replicator
            .tick(now, self.broker.epoch(), net, bytes, &mut peers)
    }

    /// The end-of-campaign quiesce: ships until every lane is acked, or
    /// until no lane has made progress for a few rounds (those lanes are
    /// cut off or their nodes are down).
    pub fn quiesce(&mut self, net: &Network) -> Result<()> {
        let start = self.broker.now().as_micros();
        let (mut stalled, mut last_lag) = (0u64, u64::MAX);
        for k in 0..QUIESCE_ROUNDS {
            self.tick(
                SimTime::from_micros(start + k * self.round.as_micros()),
                net,
            )?;
            if self.replicator.synced() {
                break;
            }
            let lag = self.replicator.lag();
            stalled = if lag < last_lag { 0 } else { stalled + 1 };
            if stalled >= QUIESCE_STALLED {
                break;
            }
            last_lag = lag;
        }
        Ok(())
    }

    /// Whether every replica the primary can reach both ways runs the
    /// primary's model version.
    pub fn upgrades_propagated(&self, net: &Network) -> bool {
        self.standbys
            .iter()
            .filter(|(n, _)| net.is_up(&self.primary, n) && net.is_up(n, &self.primary))
            .all(|(_, s)| s.model_version() == self.broker.model_version())
    }

    /// Records that the client was told `action` is committed.
    pub fn commit(&mut self, action: &str) {
        self.report.committed += 1;
        self.committed_actions.push(action.to_owned());
    }

    /// Quarantine: rolls the primary back to its newest verified snapshot.
    pub fn quarantine(&mut self) -> Result<()> {
        self.broker.rollback_to_snapshot()?;
        self.report.snapshot_rollbacks += 1;
        self.damaged = None;
        Ok(())
    }

    /// Reports that the primary's durable journal reads back as `damaged`;
    /// the next [`ReplicaGroup::supervise`] repairs it from a replica, or
    /// quarantines the primary when none is reachable.
    pub fn note_journal_damage(&mut self, damaged: Vec<u8>, detail: &str) {
        self.damaged = Some(damaged);
        self.supervisor.note_journal_damage(&self.primary, detail);
    }

    /// What the group did, with the end-of-run audit: committed-trace
    /// divergence against the primary's journal, replay consistency, and
    /// the retransmit total.
    pub fn report(&self) -> Result<GroupReport> {
        let bytes = journal_of(&self.broker)?;
        let text = std::str::from_utf8(bytes)
            .map_err(|e| BrokerError::RecoveryDiverged(format!("journal is not UTF-8: {e}")))?;
        let mut trace = Vec::new();
        for line in text.lines() {
            if let JournalRecord::Command {
                action, ok: true, ..
            } = journal::parse_line(line)?
            {
                trace.push(action);
            }
        }
        let mut r = self.report.clone();
        let mut j = 0usize;
        for a in &self.committed_actions {
            match trace[j..].iter().position(|x| x == a) {
                Some(p) => j += p + 1,
                None => r.divergent_commits += 1,
            }
        }
        let replayed = journal::replay(bytes)?;
        r.replay_consistent = self
            .broker
            .state()
            .first_divergence(&replayed.state)
            .is_none();
        r.retransmits = self.retired_retransmits
            + self.replicator.retransmits()
            + self
                .parked
                .as_ref()
                .map_or(0, |p| p.replicator.retransmits());
        r.commit_lsn = self.replicator.commit_lsn();
        r.journal_bytes = bytes.len() as u64;
        r.state_version = self.broker.state().version();
        if !self.recoveries_us.is_empty() {
            let total: u64 = self.recoveries_us.iter().sum();
            r.mean_failover_ms = total as f64 / self.recoveries_us.len() as f64 / 1000.0;
        }
        r.max_failover_ms = self.recoveries_us.iter().max().copied().unwrap_or(0) as f64 / 1000.0;
        r.one_primary_per_epoch = self.one_primary_trips == 0;
        Ok(r)
    }

    fn crashed(&self, node: &str) -> bool {
        self.supervisor.state().int(&format!("crashed_{node}")) == Some(1)
    }

    fn primary_unhealthy(&self, net: &Network) -> bool {
        self.crashed(&self.primary) || is_cut(net, &self.primary, &self.members)
    }

    fn new_replicator(&self, primary: &str) -> QuorumReplicator {
        QuorumReplicator::new(lanes(&self.declared, &self.members, primary), primary)
    }

    /// Takes the resource hub out of the primary: the resources outlive
    /// the middleware process that dies or is replaced.
    fn take_hub(&mut self) -> ResourceHub {
        std::mem::replace(self.broker.hub_mut(), ResourceHub::new(0))
    }

    fn fresh_broker(&mut self, hub: ResourceHub) -> Result<GenericBroker> {
        let mut fresh = GenericBroker::from_model(&self.model, hub)?;
        fresh.enable_journal(self.snapshot_every);
        Ok(fresh)
    }

    /// Folds the new primary into the committed-but-lost audit.
    fn note_loss(&mut self) {
        let held = (self.updates)(self.broker.state());
        let lost = self.report.committed.saturating_sub(held);
        self.report.committed_lost = self.report.committed_lost.max(lost);
    }

    /// Logs a recovery finished at `now + penalty_us`, timed from the
    /// fault that opened the window.
    fn log_recovery(&mut self, now: SimTime, penalty_us: u64) {
        let detect = now.as_micros() - self.fault_at.take().unwrap_or(now.as_micros());
        self.recoveries_us.push(detect + penalty_us);
    }

    fn apply(&mut self, fault: Fault, at: SimTime) -> Result<()> {
        match fault {
            Fault::Crash(node) => {
                if !self.members.contains(&node) {
                    return Ok(());
                }
                self.report.crashes += 1;
                self.supervisor.crash_component(&node);
                if node != self.primary {
                    if let Some(sb) = self.standbys.remove(&node) {
                        self.down.insert(node, sb.journal_bytes().to_vec());
                    }
                } else if self.fault_at.is_none() {
                    self.fault_at = Some(at.as_micros());
                }
            }
            Fault::Corrupt(key, value) => {
                if self.primary_down() {
                    return Ok(());
                }
                self.report.corruptions += 1;
                let before = (self.updates)(self.broker.state());
                let trips = self.broker.corrupt_state(&key, &value);
                if !trips.is_empty() {
                    self.report.monitor_trips += trips.len() as u64;
                    // The rolled-back updates stay in the journal; only
                    // the commit ledger follows them back.
                    self.quarantine()?;
                    let rewound = before.saturating_sub((self.updates)(self.broker.state()));
                    self.report.committed = self.report.committed.saturating_sub(rewound);
                }
            }
            Fault::Upgrade(candidate) => {
                if self.primary_down() {
                    return Ok(());
                }
                self.report.upgrades_pushed += 1;
                let next = self.broker.model_version() + 1;
                if self.broker.monitor_latched()
                    || self
                        .broker
                        .commit_upgrade(next, &candidate, &mut |_| {})
                        .is_err()
                {
                    self.report.upgrades_skipped += 1;
                } else {
                    self.report.upgrades_applied += 1;
                }
            }
            Fault::Storage(node, kind) => self.damage(&node, kind, at)?,
        }
        Ok(())
    }

    /// A storage fault on `node`'s journal. The primary loses power with
    /// its disk damaged and recovers at once; a live replica's mirror is
    /// rebuilt; a down replica's durable mirror keeps the damage until it
    /// is revived.
    fn damage(&mut self, node: &str, kind: StorageFault, at: SimTime) -> Result<()> {
        if !self.members.iter().any(|m| m == node) {
            return Ok(());
        }
        if node == self.primary {
            if self.primary_down() {
                return Ok(());
            }
            self.report.storage_faults += 1;
            let pristine = journal_of(&self.broker)?;
            let damaged = kind.apply(pristine);
            if damaged == pristine {
                self.report.harmless += 1;
                return Ok(());
            }
            return self.recover_primary(&damaged, at, None);
        }
        if let Some(sb) = self.standbys.get(node) {
            self.report.storage_faults += 1;
            let damaged = kind.apply(sb.journal_bytes());
            if damaged == sb.journal_bytes() {
                self.report.harmless += 1;
                return Ok(());
            }
            let sources: Vec<&Standby> = self
                .standbys
                .iter()
                .filter(|(n, _)| n.as_str() != node)
                .map(|(_, s)| s)
                .collect();
            let rebuilt = rebuild_standby(
                node,
                &damaged,
                journal_of(&self.broker)?,
                &sources,
                self.supervisor.epoch(),
                &mut self.report,
            )?;
            // The rebuilt mirror may be shorter than the lane's ack.
            self.replicator.reset_peer(node);
            self.standbys.insert(node.to_owned(), rebuilt);
        } else if let Some(bytes) = self.down.get_mut(node) {
            self.report.storage_faults += 1;
            *bytes = kind.apply(bytes);
        }
        Ok(())
    }

    /// Recovers the primary in place from its `damaged` journal at `at`:
    /// anti-entropy from the named replica (or the freshest live one),
    /// else plain recovery, else a fresh model. The survivors are fenced
    /// and resynced to the recovered journal.
    fn recover_primary(&mut self, damaged: &[u8], at: SimTime, source: Option<&str>) -> Result<()> {
        let epoch = self.supervisor.epoch();
        let hub = self.take_hub();
        let invariants = strs(&self.invariants);
        let sources: Vec<&Standby> = match source.and_then(|s| self.standbys.get(s)) {
            Some(named) => vec![named],
            None => self.standbys.values().collect(),
        };
        let (mut next, penalty) =
            match recover_with_anti_entropy(&self.model, hub, damaged, &invariants, &sources) {
                Ok((b, replayed, repair)) => {
                    if repair.is_some() {
                        self.report.anti_entropy_repairs += 1;
                    }
                    (b, replay_penalty(&replayed))
                }
                Err(_) => {
                    let hub = (self.hubs)(HUB_RECOVER);
                    match GenericBroker::recover(&self.model, hub, damaged, &invariants) {
                        Ok((b, replayed)) => (b, replay_penalty(&replayed)),
                        Err(_) => {
                            let hub = (self.hubs)(HUB_FRESH);
                            self.report.restarts += 1;
                            (self.fresh_broker(hub)?, RESTART_PENALTY_US)
                        }
                    }
                }
            };
        next.set_snapshot_every(self.snapshot_every);
        if next.epoch() < epoch {
            next.adopt_epoch(epoch);
        }
        catch_up_clock(&mut next, at.as_micros() + penalty);
        self.broker = next;
        self.note_loss();
        let fresh = self.new_replicator(&self.primary);
        self.retired_retransmits += std::mem::replace(&mut self.replicator, fresh).retransmits();
        self.resync_survivors(epoch)
    }

    /// Promotes `to`'s mirror under `epoch`.
    fn fail_over(&mut self, now: SimTime, to: &str, epoch: u64, reason: &str) -> Result<()> {
        // A replica that crashed and was restarted in this very tick is
        // electable before it is revived.
        self.revive(to)?;
        let mut elected = self.standbys.remove(to).ok_or_else(|| {
            BrokerError::RecoveryDiverged(format!("elected replica `{to}` has no mirror"))
        })?;
        // A crashed primary's resources pass to its successor; a deposed
        // one that still runs keeps them.
        let deposed_alive = reason != "crashed";
        let hub = if deposed_alive {
            (self.hubs)(HUB_PROMOTED + epoch)
        } else {
            self.take_hub()
        };
        let (mut promoted, replayed) =
            elected.promote(epoch, &self.model, hub, &strs(&self.invariants))?;
        promoted.set_snapshot_every(self.snapshot_every);
        let penalty = replay_penalty(&replayed);
        catch_up_clock(&mut promoted, now.as_micros() + penalty);
        let fresh = self.new_replicator(to);
        let replicator = std::mem::replace(&mut self.replicator, fresh);
        let deposed = std::mem::replace(&mut self.broker, promoted);
        let node = std::mem::replace(&mut self.primary, to.to_owned());
        self.report.failovers += 1;
        self.note_loss();
        self.log_recovery(now, penalty);
        if deposed_alive {
            let parked = Parked {
                node,
                broker: deposed,
                replicator,
            };
            if let Some(earlier) = self.parked.replace(parked) {
                self.retired_retransmits += earlier.replicator.retransmits();
            }
        } else {
            self.retired_retransmits += replicator.retransmits();
        }
        self.resync_survivors(self.supervisor.epoch())
    }

    /// No electable replica remained: a fresh model on the same node. The
    /// journal died with the process.
    fn restart_primary(&mut self, now: SimTime) -> Result<()> {
        let epoch = self.supervisor.epoch();
        let hub = self.take_hub();
        let mut fresh = self.fresh_broker(hub)?;
        if fresh.epoch() < epoch {
            fresh.adopt_epoch(epoch);
        }
        fresh.advance_clock(SimDuration::from_micros(
            now.as_micros() + RESTART_PENALTY_US,
        ));
        self.broker = fresh;
        self.report.restarts += 1;
        self.note_loss();
        self.log_recovery(now, RESTART_PENALTY_US);
        let replicator = self.new_replicator(&self.primary);
        self.retired_retransmits +=
            std::mem::replace(&mut self.replicator, replicator).retransmits();
        self.resync_survivors(epoch)
    }

    /// Revives a crashed replica from its durable mirror and rewinds its
    /// lane: the mirror is older than the lane's cumulative ack.
    fn revive(&mut self, node: &str) -> Result<()> {
        if self.standbys.contains_key(node) {
            return Ok(());
        }
        let mirror = self.down.remove(node).unwrap_or_default();
        let sources: Vec<&Standby> = self.standbys.values().collect();
        let sb = rebuild_standby(
            node,
            &mirror,
            journal_of(&self.broker)?,
            &sources,
            self.supervisor.epoch(),
            &mut self.report,
        )?;
        self.replicator.reset_peer(node);
        self.standbys.insert(node.to_owned(), sb);
        self.report.replica_revivals += 1;
        Ok(())
    }

    /// Fences every survivor at `epoch` and resyncs any whose mirror is
    /// no longer a prefix of the primary's journal.
    fn resync_survivors(&mut self, epoch: u64) -> Result<()> {
        let auth = journal_of(&self.broker)?;
        for (node, sb) in &mut self.standbys {
            sb.fence(epoch);
            if !auth.starts_with(sb.journal_bytes()) {
                *sb = Standby::from_mirror(node, auth, epoch)?;
                self.report.standby_resyncs += 1;
            }
        }
        Ok(())
    }

    /// Readmits every failed-over member that is reachable again: a
    /// parked ex-primary first ships its stale journal (the survivors
    /// refuse it) and is reconciled; then the member rejoins the set with
    /// the authoritative journal as its mirror.
    fn rejoin_healed(&mut self, now: SimTime, net: &Network) -> Result<()> {
        let healed: Vec<String> = self
            .members
            .iter()
            .filter(|n| {
                **n != self.primary
                    && self.supervisor.awaiting_rejoin(n)
                    && !is_cut(net, n, &self.members)
            })
            .cloned()
            .collect();
        for old in healed {
            match self.parked.take() {
                Some(p) if p.node != old => self.parked = Some(p),
                // A later crash took the parked journal with it.
                Some(p) if self.crashed(&old) => {
                    self.retired_retransmits += p.replicator.retransmits();
                }
                Some(p) => self.fence_and_reconcile(now, net, p)?,
                None => {}
            }
            self.supervisor.rejoin(&old, now);
            self.supervisor.add_replica(&self.primary, &old);
            let mirror =
                Standby::from_mirror(&old, journal_of(&self.broker)?, self.supervisor.epoch())?;
            self.standbys.insert(old, mirror);
            self.report.rejoins += 1;
        }
        Ok(())
    }

    fn fence_and_reconcile(&mut self, now: SimTime, net: &Network, mut p: Parked) -> Result<()> {
        let stale = journal_of(&p.broker)?.to_vec();
        let mut peers: Vec<&mut Standby> = self.standbys.values_mut().collect();
        let shipped = p
            .replicator
            .tick(now, p.broker.epoch(), net, &stale, &mut peers)?;
        if shipped.fenced > 0 {
            self.report.fenced_events += 1;
        }
        self.retired_retransmits += p.replicator.retransmits();
        let hub = (self.hubs)(HUB_RECONCILE);
        let (_, reconciled) = reconcile(
            journal_of(&self.broker)?,
            &stale,
            &self.primary,
            &self.model,
            hub,
            &strs(&self.invariants),
        )?;
        self.report.reconciles += 1;
        self.report.discarded_stale_lines += reconciled.discarded_stale_lines as u64;
        Ok(())
    }
}
