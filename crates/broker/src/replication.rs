//! Replicated models@runtime: journal shipping to a replica set.
//!
//! The primary's write-ahead journal (see [`crate::journal`]) already
//! captures every runtime-model mutation, so replication is journal
//! shipping: a [`QuorumReplicator`] on the primary streams journal lines
//! over the simulated [`Network`] to one [`Standby`] per peer of the
//! model's `ReplicaSet`. Each standby applies every record into its own
//! [`StateManager`] *and* keeps a byte-for-byte mirror of the journal —
//! promotion is then just the normal crash-recovery path
//! ([`GenericBroker::recover`]) run over the mirrored bytes. A single hot
//! standby is a one-peer set: quorum 1 with an `Async` lane, or quorum 2
//! with an `AckWindowed` lane.
//!
//! Every peer has its own lane, shipped go-back-N with a cumulative ack:
//! the standby acknowledges the count of contiguous lines received, the
//! primary retransmits from that cursor after an ack timeout. Two
//! model-declared disciplines ([`ShipMode`]) share the machinery:
//!
//! * `Async` — ship everything pending each tick, best effort. The
//!   primary commits locally without waiting, so records not yet
//!   acknowledged at failover are lost.
//! * `AckWindowed` — at most `window_records` unacknowledged lines in
//!   flight; the caller gates commit on [`QuorumReplicator::synced`] (or
//!   [`QuorumReplicator::quorum_synced`]), so a committed update is by
//!   construction on the peers it waited for.
//!
//! Split brain is prevented by *epoch fencing*: promotion appends a
//! journaled epoch record, and the standby (or the promoted primary)
//! refuses shipped records from an older epoch with the typed
//! [`BrokerError::StaleEpoch`]. A healed stale primary is reconciled by
//! diffing the two journals and replaying the authoritative suffix
//! through recovery ([`reconcile`]).

use crate::engine::{GenericBroker, RecoveryReport};
use crate::journal::{self, CommandKind, JournalRecord, Recovered};
use crate::monitor::{MonitorSet, MonitorTrip};
use crate::state::StateManager;
use crate::{BrokerError, Result};
use mddsm_meta::model::Model;
use mddsm_sim::net::{Network, SendOutcome};
use mddsm_sim::resource::ResourceHub;
use mddsm_sim::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Journal-shipping discipline (the `ShipMode` enumeration of the
/// Fig. 6 metamodel extension).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShipMode {
    /// Best-effort: ship everything pending, commit without waiting.
    Async,
    /// Windowed with retransmission: commit implies replicated.
    AckWindowed,
}

/// One member of a model-defined replica set: the node it listens on and
/// its private shipping lane parameters (peers may mix disciplines).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaPeer {
    /// Simulated-network node the replica listens on.
    pub node: String,
    /// Shipping discipline of this peer's lane.
    pub mode: ShipMode,
    /// `AckWindowed`: max unacknowledged journal lines in flight.
    pub window_records: u64,
    /// Virtual time before this lane's unacked batch is retransmitted.
    pub ack_timeout: SimDuration,
}

/// Compiled parameters of a broker model's `ReplicaSet` component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaSetConfig {
    /// Nodes — counting the primary itself — that must hold a journal
    /// record before it is quorum-committed.
    pub quorum: u64,
    /// The peers, in model order.
    pub peers: Vec<ReplicaPeer>,
}

impl ReplicaSetConfig {
    /// Compiles the `ReplicaSet` of a broker model; `None` when the model
    /// declares no replica set. A declared quorum of 0 computes a
    /// majority of the total node count (peers + primary); an explicit
    /// quorum outside `1..=total` or a duplicate peer node is refused as
    /// an invalid model.
    pub fn from_model(model: &Model) -> Result<Option<Self>> {
        let Some(&mgr) = model.all_of_class("ReplicaSet").first() else {
            return Ok(None);
        };
        let mut peers = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        for &r in model.refs(mgr, "replicas") {
            let node = model
                .attr_str(r, "node")
                .ok_or_else(|| BrokerError::InvalidModel("ReplicaNode needs a node name".into()))?
                .to_owned();
            if !seen.insert(node.clone()) {
                return Err(BrokerError::InvalidModel(format!(
                    "ReplicaSet declares node `{node}` twice"
                )));
            }
            let mode = match model.attr(r, "mode").and_then(|v| v.as_enum_literal()) {
                Some("Async") => ShipMode::Async,
                Some("AckWindowed") => ShipMode::AckWindowed,
                other => {
                    return Err(BrokerError::InvalidModel(format!(
                        "ReplicaNode `{node}` has bad mode {other:?}"
                    )))
                }
            };
            let int = |name: &str, default: i64| model.attr_int(r, name).unwrap_or(default).max(0);
            peers.push(ReplicaPeer {
                node,
                mode,
                window_records: int("windowRecords", 32) as u64,
                ack_timeout: SimDuration::from_micros(int("ackTimeoutUs", 10_000) as u64),
            });
        }
        if peers.is_empty() {
            return Err(BrokerError::InvalidModel(
                "ReplicaSet needs at least one replica".into(),
            ));
        }
        let total = peers.len() as u64 + 1;
        let declared = model.attr_int(mgr, "quorum").unwrap_or(0).max(0) as u64;
        let quorum = if declared == 0 {
            total / 2 + 1
        } else {
            declared
        };
        if quorum < 1 || quorum > total {
            return Err(BrokerError::InvalidModel(format!(
                "ReplicaSet quorum {quorum} is outside 1..={total}"
            )));
        }
        Ok(Some(ReplicaSetConfig { quorum, peers }))
    }
}

/// Per-peer shipping lane of a [`QuorumReplicator`]: the go-back-N
/// cursors of one peer, independent of every other lane.
#[derive(Debug)]
struct PeerLane {
    cfg: ReplicaPeer,
    acked_seq: u64,
    shipped_high: u64,
    ever_shipped: u64,
    last_ship: Option<SimTime>,
    acked_lsn: u64,
    retransmit_events: u64,
    fenced_count: u64,
}

impl PeerLane {
    fn new(cfg: ReplicaPeer) -> Self {
        PeerLane {
            cfg,
            acked_seq: 0,
            shipped_high: 0,
            ever_shipped: 0,
            last_ship: None,
            acked_lsn: 0,
            retransmit_events: 0,
            fenced_count: 0,
        }
    }
}

/// What one [`QuorumReplicator::tick`] did, summed over every lane.
#[derive(Debug, Clone, Default)]
pub struct QuorumShipReport {
    /// Journal lines attempted on any wire this tick.
    pub shipped: u64,
    /// Lines newly covered by some peer's cumulative ack.
    pub newly_acked: u64,
    /// Attempts that re-sent a line a lane had shipped before.
    pub retransmitted: u64,
    /// Virtual link time all legs consumed (the caller charges it).
    pub latency: SimDuration,
    /// Lanes whose receiver fenced us this tick (stale epoch).
    pub fenced: u64,
    /// Quorum commit LSN after the tick.
    pub commit_lsn: u64,
}

/// The primary-side engine of a model-defined replica *set*: ships the
/// journal go-back-N to each peer over its own independent lane and
/// advances a **quorum commit LSN** — the quorum-th largest of the
/// per-node durable LSNs, counting the primary's own journal head. A
/// record at or below the commit LSN is held by at least `quorum` nodes,
/// so it survives any minority failure.
///
/// A single hot standby is a one-peer set (quorum 1 for an `Async` lane,
/// 2 for an `AckWindowed` one). The outbox keeps the *full* shipped
/// history (lines are never popped on ack), so a peer that lost its
/// mirror can be re-shipped from sequence 0 with
/// [`QuorumReplicator::reset_peer`]. The outbox is indexed by sequence
/// number, so a tick costs the lines it ships plus one step per lane,
/// however long the history grows.
///
/// Health is OCL-addressable through the metrics [`StateManager`]:
///
/// | key | meaning |
/// |---|---|
/// | `repl_commit_lsn` | quorum commit LSN |
/// | `repl_quorum` | declared quorum (nodes, counting the primary) |
/// | `repl_peers` | peer count |
/// | `repl_lag` | journal lines enqueued but unacked, summed over lanes |
/// | `repl_epoch` | epoch the replicator currently ships under |
/// | `repl_retransmits` | ack-timeout go-backs, summed over lanes |
/// | `repl_fenced` | times any receiver refused us as stale |
#[derive(Debug)]
pub struct QuorumReplicator {
    cfg: ReplicaSetConfig,
    node: String,
    epoch: u64,
    /// Bytes of the primary journal already ingested into the outbox.
    read_offset: usize,
    /// Full shipped history: `outbox[seq] = (state LSN, framed line)`
    /// — indexed by sequence number, so a lane's batch is a range of it
    /// and shipping borrows each line. Never trimmed.
    outbox: Vec<(Option<u64>, Box<str>)>,
    /// Newest state LSN the primary's own journal holds.
    head_lsn: u64,
    lanes: Vec<PeerLane>,
    /// Monotone quorum commit point.
    commit_lsn: u64,
    metrics: StateManager,
}

impl QuorumReplicator {
    /// Creates a quorum replicator for a primary on network node `node`.
    pub fn new(cfg: ReplicaSetConfig, node: &str) -> Self {
        let mut metrics = StateManager::new();
        metrics.set_int("repl_commit_lsn", 0);
        metrics.set_int("repl_quorum", cfg.quorum as i64);
        metrics.set_int("repl_peers", cfg.peers.len() as i64);
        metrics.set_int("repl_lag", 0);
        metrics.set_int("repl_epoch", 1);
        metrics.set_int("repl_retransmits", 0);
        metrics.set_int("repl_fenced", 0);
        let lanes = cfg.peers.iter().cloned().map(PeerLane::new).collect();
        QuorumReplicator {
            cfg,
            node: node.to_owned(),
            epoch: 1,
            read_offset: 0,
            outbox: Vec::new(),
            head_lsn: 0,
            lanes,
            commit_lsn: 0,
            metrics,
        }
    }

    /// Compiles the model's `ReplicaSet` and builds the replicator;
    /// `None` when the model declares no replica set.
    pub fn from_model(model: &Model, node: &str) -> Result<Option<Self>> {
        Ok(ReplicaSetConfig::from_model(model)?.map(|cfg| Self::new(cfg, node)))
    }

    /// The compiled configuration.
    pub fn config(&self) -> &ReplicaSetConfig {
        &self.cfg
    }

    /// Declared quorum (nodes, counting the primary).
    pub fn quorum(&self) -> u64 {
        self.cfg.quorum
    }

    /// The quorum commit LSN: every state mutation at or below it is held
    /// by at least `quorum` nodes. Monotone.
    pub fn commit_lsn(&self) -> u64 {
        self.commit_lsn
    }

    /// Journal lines enqueued but unacked, summed over every lane.
    pub fn lag(&self) -> u64 {
        let next_seq = self.outbox.len() as u64;
        self.lanes
            .iter()
            .map(|l| next_seq.saturating_sub(l.acked_seq))
            .sum()
    }

    /// `true` once *every* peer acknowledged every ingested line.
    pub fn synced(&self) -> bool {
        self.lanes
            .iter()
            .all(|l| l.acked_seq >= self.outbox.len() as u64)
    }

    /// `true` once enough peers acknowledged everything that the whole
    /// journal is quorum-committed (the primary counts as one holder).
    pub fn quorum_synced(&self) -> bool {
        let holders = 1 + self
            .lanes
            .iter()
            .filter(|l| l.acked_seq >= self.outbox.len() as u64)
            .count() as u64;
        holders >= self.cfg.quorum
    }

    /// Newest state LSN known applied on `node` (0 for unknown peers).
    pub fn acked_lsn(&self, node: &str) -> u64 {
        self.lanes
            .iter()
            .find(|l| l.cfg.node == node)
            .map_or(0, |l| l.acked_lsn)
    }

    /// Ack-timeout go-back events, summed over every lane.
    pub fn retransmits(&self) -> u64 {
        self.lanes.iter().map(|l| l.retransmit_events).sum()
    }

    /// Times any receiver refused this primary as stale.
    pub fn fenced(&self) -> u64 {
        self.lanes.iter().map(|l| l.fenced_count).sum()
    }

    /// Peer nodes, in model order.
    pub fn peer_nodes(&self) -> Vec<&str> {
        self.lanes.iter().map(|l| l.cfg.node.as_str()).collect()
    }

    /// The OCL-addressable metrics model (see the type docs for keys).
    pub fn metrics(&self) -> &StateManager {
        &self.metrics
    }

    /// Mutable metrics access — the autonomic manager ticks its
    /// replication rules against this state.
    pub fn metrics_mut(&mut self) -> &mut StateManager {
        &mut self.metrics
    }

    /// Rewinds a peer's lane to sequence 0 so the full retained history
    /// is re-shipped — the revival path for a replica that lost its
    /// mirror. Returns `false` for an unknown node. The commit LSN is
    /// monotone and unaffected by the rewind.
    pub fn reset_peer(&mut self, node: &str) -> bool {
        match self.lanes.iter_mut().find(|l| l.cfg.node == node) {
            Some(lane) => {
                lane.acked_seq = 0;
                lane.shipped_high = 0;
                lane.last_ship = None;
                lane.acked_lsn = 0;
                true
            }
            None => false,
        }
    }

    /// Adds (or replaces) a peer lane — the rejoin path for a healed
    /// ex-primary entering the set as a replica. The new lane starts at
    /// sequence 0; pair with a standby rebuilt from a current mirror
    /// ([`Standby::from_mirror`]) or let the re-ack sync the cursor.
    pub fn add_peer(&mut self, cfg: ReplicaPeer) {
        self.lanes.retain(|l| l.cfg.node != cfg.node);
        self.cfg.peers.retain(|p| p.node != cfg.node);
        self.cfg.peers.push(cfg.clone());
        self.lanes.push(PeerLane::new(cfg));
        self.metrics
            .set_int("repl_peers", self.cfg.peers.len() as i64);
    }

    /// One shipping cycle at virtual instant `now` under fencing epoch
    /// `epoch`: ingests new journal bytes, then runs each lane's
    /// go-back-N independently — ack timeout, window, wire legs, and
    /// cumulative ack per peer — and advances the quorum commit LSN.
    ///
    /// `peers` holds the standbys currently reachable *in-process*; a
    /// lane whose node has no standby in the slice is simply skipped
    /// (the node is down — its lane retries next tick). A lane fenced by
    /// its receiver is counted and **does not** stop the other lanes.
    pub fn tick(
        &mut self,
        now: SimTime,
        epoch: u64,
        net: &Network,
        journal_bytes: &[u8],
        peers: &mut [&mut Standby],
    ) -> Result<QuorumShipReport> {
        self.epoch = epoch;
        self.ingest(journal_bytes)?;
        let mut report = QuorumShipReport::default();

        let next_seq = self.outbox.len() as u64;

        for lane in &mut self.lanes {
            let Some(standby) = peers.iter_mut().find(|s| s.node() == lane.cfg.node) else {
                continue;
            };
            // Ack timeout: go back to this lane's cumulative cursor.
            if lane.acked_seq < lane.shipped_high {
                if let Some(t) = lane.last_ship {
                    if now.since(t) >= lane.cfg.ack_timeout {
                        lane.shipped_high = lane.acked_seq;
                        lane.retransmit_events += 1;
                    }
                }
            }
            let window_end = match lane.cfg.mode {
                ShipMode::Async => next_seq,
                ShipMode::AckWindowed => lane.acked_seq + lane.cfg.window_records,
            }
            .min(next_seq);

            // The batch is a range of the sequence-indexed outbox, each
            // line borrowed from it. It starts past the acked cursor too:
            // a re-ack (a rejoined mirror, a go-back whose acks were
            // lost) can move that beyond `shipped_high`, and the peer
            // already holds every line below it.
            for seq in lane.shipped_high.max(lane.acked_seq)..window_end {
                if seq < lane.ever_shipped {
                    report.retransmitted += 1;
                }
                lane.shipped_high = seq + 1;
                lane.ever_shipped = lane.ever_shipped.max(lane.shipped_high);
                lane.last_ship = Some(now);
                report.shipped += 1;
                let SendOutcome::Scheduled(out) = net.transmit(&self.node, &lane.cfg.node) else {
                    // Data leg dropped: the rest of this lane's batch
                    // would arrive as a gap — wait for the ack timeout.
                    break;
                };
                report.latency = report.latency.saturating_add(out);
                match standby.receive(seq, &self.outbox[seq as usize].1, self.epoch) {
                    Err(BrokerError::StaleEpoch { .. }) => {
                        lane.fenced_count += 1;
                        report.fenced += 1;
                        break;
                    }
                    Err(e) => return Err(e),
                    Ok(received) => {
                        if let SendOutcome::Scheduled(back) =
                            net.transmit(&lane.cfg.node, &self.node)
                        {
                            report.latency = report.latency.saturating_add(back);
                            // A survivor of an earlier primary can re-ack
                            // a cursor past this stream's head; cap it.
                            let received = received.min(next_seq);
                            if received > lane.acked_seq {
                                report.newly_acked += received - lane.acked_seq;
                                for (lsn, _) in
                                    &self.outbox[lane.acked_seq as usize..received as usize]
                                {
                                    if let Some(lsn) = *lsn {
                                        lane.acked_lsn = lane.acked_lsn.max(lsn);
                                    }
                                }
                                lane.acked_seq = received;
                            }
                        }
                    }
                }
            }
        }

        self.update_commit();
        report.commit_lsn = self.commit_lsn;
        self.metrics.set_int("repl_lag", self.lag() as i64);
        self.metrics
            .set_int("repl_commit_lsn", self.commit_lsn as i64);
        self.metrics.set_int("repl_epoch", self.epoch as i64);
        self.metrics
            .set_int("repl_retransmits", self.retransmits() as i64);
        self.metrics.set_int("repl_fenced", self.fenced() as i64);
        Ok(report)
    }

    /// Drops journal history below the **quorum commit point** — never
    /// below merely-acked LSNs a minority holds:
    /// [`GenericBroker::truncate_journal_to`] at the commit LSN, with the
    /// read cursor shifted to match the rewritten bytes. Returns the
    /// bytes reclaimed.
    pub fn truncate_primary(&mut self, broker: &mut GenericBroker) -> usize {
        let reclaimed = broker.truncate_journal_to(self.commit_lsn);
        self.read_offset = self.read_offset.saturating_sub(reclaimed);
        reclaimed
    }

    /// Recomputes the commit LSN: the quorum-th largest of the per-node
    /// durable LSNs (each lane's acked LSN, plus the primary's own
    /// journal head), kept monotone.
    fn update_commit(&mut self) {
        let mut lsns: Vec<u64> = self.lanes.iter().map(|l| l.acked_lsn).collect();
        lsns.push(self.head_lsn);
        lsns.sort_unstable_by(|a, b| b.cmp(a));
        let q = self.cfg.quorum as usize;
        if q >= 1 && q <= lsns.len() {
            self.commit_lsn = self.commit_lsn.max(lsns[q - 1]);
        }
    }

    /// Ingests every complete journal line appended past the read
    /// cursor, with the state LSN it commits; blank lines are skipped. A
    /// journal shorter than the cursor was rewritten without going through
    /// `truncate_primary` (a dropped-tail recovery, say), so the shipped
    /// history no longer matches its bytes: that is a typed error, never a
    /// panic.
    fn ingest(&mut self, journal_bytes: &[u8]) -> Result<()> {
        let Some(mut fresh) = journal_bytes.get(self.read_offset..) else {
            return Err(BrokerError::RecoveryDiverged(format!(
                "journal shrank to {} bytes below the {} already ingested: \
                 it was rewritten without truncate_primary",
                journal_bytes.len(),
                self.read_offset
            )));
        };
        while let Some(nl) = fresh.iter().position(|&b| b == b'\n') {
            let line = std::str::from_utf8(&fresh[..nl])
                .map_err(|e| BrokerError::RecoveryDiverged(format!("journal is not UTF-8: {e}")))?;
            fresh = &fresh[nl + 1..];
            self.read_offset += nl + 1;
            if line.is_empty() {
                continue;
            }
            let lsn = journal::parse_line(line)?.lsn();
            if let Some(lsn) = lsn {
                self.head_lsn = self.head_lsn.max(lsn);
            }
            self.outbox.push((lsn, line.into()));
        }
        Ok(())
    }
}

/// The hot standby: applies shipped journal records into its own runtime
/// model as they arrive and mirrors the journal bytes, so promotion is
/// the ordinary recovery path over the mirror. Tracks the fencing epoch
/// and refuses records shipped under an older one.
#[derive(Debug)]
pub struct Standby {
    node: String,
    bytes: Vec<u8>,
    received: u64,
    epoch: u64,
    state: StateManager,
    clock_us: u64,
    calls: u64,
    events: u64,
    /// Monitors evaluated against every applied record; `None` until
    /// [`Standby::arm_monitors`].
    monitors: Option<MonitorSet>,
    /// Observer-side monitor memory. The mirror must stay byte-identical
    /// to the primary's journal, so observation writes its latches and
    /// `at-most-one` cells here, never into the mirrored state.
    monitor_memory: BTreeMap<String, String>,
    monitor_trips: Vec<MonitorTrip>,
    /// Runtime-model version the newest shipped `Upgrade` record put
    /// live on the primary (1 until one arrives) — so failover
    /// mid-upgrade promotes under one consistent version.
    model_version: u64,
}

impl Standby {
    /// Creates an empty standby on network node `node` (epoch 1, like a
    /// fresh primary).
    pub fn new(node: &str) -> Self {
        Standby {
            node: node.to_owned(),
            bytes: Vec::new(),
            received: 0,
            epoch: 1,
            state: StateManager::new(),
            clock_us: 0,
            calls: 0,
            events: 0,
            monitors: None,
            monitor_memory: BTreeMap::new(),
            monitor_trips: Vec::new(),
            model_version: 1,
        }
    }

    /// Rebuilds a standby on node `node` by replaying a journal mirror
    /// line-by-line through the ordinary [`Standby::receive`] path, then
    /// fencing it at `epoch`. This is how a revived replica, a
    /// re-parented survivor, or a healed ex-primary re-enters a replica
    /// set: the rebuilt standby's mirror is byte-identical to `bytes` and
    /// its applied state matches a recovery over them.
    pub fn from_mirror(node: &str, bytes: &[u8], epoch: u64) -> Result<Self> {
        let mut sb = Standby::new(node);
        for raw in bytes.split_inclusive(|&b| b == b'\n') {
            let body = match raw.last() {
                Some(b'\n') => &raw[..raw.len() - 1],
                _ => raw,
            };
            if body.is_empty() {
                continue;
            }
            let line = std::str::from_utf8(body)
                .map_err(|e| BrokerError::RecoveryDiverged(format!("mirror is not UTF-8: {e}")))?;
            // Pass the standby's *current* epoch so embedded Epoch
            // records (which raise it) keep the replay admissible.
            let (seq, e) = (sb.received, sb.epoch);
            sb.receive(seq, line, e)?;
        }
        sb.fence(epoch);
        Ok(sb)
    }

    /// Runtime-model version the primary most recently shipped a cutover
    /// for (1 until any upgrade arrives).
    pub fn model_version(&self) -> u64 {
        self.model_version
    }

    /// Arms in-stream monitors over the apply path: from here on every
    /// shipped record is checked as it is applied, with the same compiled
    /// monitors (and therefore the same verdicts) as the primary — an
    /// independent observer that catches a divergent primary even when
    /// the primary's own monitoring is off or compromised.
    pub fn arm_monitors(&mut self, monitors: MonitorSet) {
        self.monitors = Some(monitors);
    }

    /// Trips this standby observed while applying shipped records.
    pub fn monitor_trips(&self) -> &[MonitorTrip] {
        &self.monitor_trips
    }

    /// Clears the observer's tripped latches (after the primary repaired
    /// or rolled back the violation) so monitoring resumes.
    pub fn clear_monitor_trips(&mut self) {
        if let Some(m) = &self.monitors {
            m.clear_observed_trips(&mut self.monitor_memory);
        }
        self.monitor_trips.clear();
    }

    /// The network node this standby listens on.
    pub fn node(&self) -> &str {
        &self.node
    }

    /// Contiguous journal lines received so far (the cumulative ack).
    pub fn received(&self) -> u64 {
        self.received
    }

    /// Fencing epoch this standby currently honors.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The mirrored journal bytes.
    pub fn journal_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The standby's live runtime model (continuously applied).
    pub fn state(&self) -> &StateManager {
        &self.state
    }

    /// Newest state LSN applied into the standby's runtime model.
    pub fn applied_lsn(&self) -> u64 {
        self.state.version()
    }

    /// Raises the standby's fencing epoch without promoting it — used by
    /// a promoted broker that keeps its `Standby` shell around purely to
    /// fence reconnecting stale primaries.
    pub fn fence(&mut self, epoch: u64) {
        self.epoch = self.epoch.max(epoch);
    }

    /// Receives one shipped journal line. Enforces, in order:
    ///
    /// 1. **Epoch fence** — a line shipped under `epoch` older than ours
    ///    is refused with [`BrokerError::StaleEpoch`] (split-brain
    ///    protection); a *newer* epoch is adopted.
    /// 2. **Sequencing** — a duplicate (`seq` below the cursor) is
    ///    dropped, a gap (`seq` above it) is not applied; both just
    ///    re-ack the cursor so the primary goes back.
    /// 3. **Application** — the record is parsed and applied into the
    ///    standby's runtime model (LSN-checked like recovery), and the
    ///    line is appended to the journal mirror.
    ///
    /// Returns the cumulative ack: the contiguous line count received.
    pub fn receive(&mut self, seq: u64, line: &str, epoch: u64) -> Result<u64> {
        if epoch < self.epoch {
            return Err(BrokerError::StaleEpoch {
                got: epoch,
                current: self.epoch,
            });
        }
        self.epoch = epoch;
        if seq != self.received {
            return Ok(self.received);
        }
        let record = journal::parse_line(line)?;
        // The key the record wrote, for the in-stream monitor check below
        // (`None` = nothing watched changed; a snapshot restore can change
        // anything, so it re-checks the full watched set).
        let mut dirty_key: Option<&str> = None;
        let mut dirty_all = false;
        match &record {
            JournalRecord::Op(op) => {
                self.state.apply_op(op)?;
                dirty_key = Some(op.key());
            }
            JournalRecord::OpCoalesced { first_lsn, op } => {
                self.state.apply_coalesced(*first_lsn, op)?;
                dirty_key = Some(op.key());
            }
            JournalRecord::Command { clock_us, kind, .. } => {
                self.clock_us = *clock_us;
                match kind {
                    CommandKind::Call => self.calls += 1,
                    CommandKind::Event => self.events += 1,
                }
            }
            JournalRecord::Clock { clock_us } => self.clock_us = *clock_us,
            JournalRecord::Epoch { epoch } => self.epoch = self.epoch.max(*epoch),
            JournalRecord::Snapshot {
                state,
                clock_us,
                calls,
                events,
            } => {
                self.state.restore(state);
                self.clock_us = *clock_us;
                self.calls = *calls;
                self.events = *events;
                dirty_all = true;
            }
            JournalRecord::Upgrade { version, ops, .. } => {
                // A cutover: apply the embedded migration ops (LSN-checked
                // like any op) and adopt the shipped model version, so a
                // promotion after this point serves the new model. The
                // migrations may touch any watched key, so the monitor
                // check below re-scans the full watched set.
                for op in ops {
                    self.state.apply_op(op)?;
                }
                self.model_version = *version;
                dirty_all = true;
            }
            JournalRecord::Note { .. } => {}
        }
        if let Some(monitors) = &self.monitors {
            let trips = match dirty_key {
                Some(key) => monitors.check_observed(&self.state, &[key], &mut self.monitor_memory),
                None if dirty_all => {
                    let watched = monitors.watched_keys();
                    let dirty: Vec<&str> = watched.iter().map(String::as_str).collect();
                    monitors.check_observed(&self.state, &dirty, &mut self.monitor_memory)
                }
                None => Vec::new(),
            };
            self.monitor_trips.extend(trips);
        }
        self.bytes.extend_from_slice(line.as_bytes());
        self.bytes.push(b'\n');
        self.received += 1;
        Ok(self.received)
    }

    /// In-process shipping without a network or replicator: receives,
    /// in order and under fencing epoch `epoch`, every line of the
    /// primary's `journal_bytes` past [`Standby::received`]. Returns the
    /// cumulative ack.
    pub fn catch_up(&mut self, journal_bytes: &[u8], epoch: u64) -> Result<u64> {
        let text = std::str::from_utf8(journal_bytes)
            .map_err(|e| BrokerError::RecoveryDiverged(format!("journal is not UTF-8: {e}")))?;
        for line in text.lines().skip(self.received as usize) {
            self.receive(self.received, line, epoch)?;
        }
        Ok(self.received)
    }

    /// Promotes the standby to primary under fencing epoch `epoch`: runs
    /// the ordinary recovery path over the journal mirror, then journals
    /// the epoch fence on the new primary so stale-epoch refusal survives
    /// *its* crashes too. The standby keeps its raised epoch and can stay
    /// behind as a fence for reconnecting stale primaries.
    pub fn promote(
        &mut self,
        epoch: u64,
        model: &Model,
        hub: ResourceHub,
        invariants: &[&str],
    ) -> Result<(GenericBroker, RecoveryReport)> {
        let (mut broker, report) = GenericBroker::recover(model, hub, &self.bytes, invariants)?;
        self.epoch = self.epoch.max(epoch);
        broker.adopt_epoch(self.epoch);
        Ok((broker, report))
    }
}

/// What [`reconcile`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReconcileReport {
    /// Journal lines the two histories share (longest common prefix).
    pub common_lines: usize,
    /// Stale-side suffix lines discarded (writes a fenced primary made
    /// after the histories diverged — the "committed but lost" set when
    /// the stale side had acked them to clients).
    pub discarded_stale_lines: usize,
    /// Authoritative-side suffix lines replayed past the common prefix.
    pub replayed_lines: usize,
    /// Node whose journal served as the authoritative history.
    pub source_node: String,
}

/// Reconciles a healed stale primary with the authoritative history: the
/// journals are diffed line-by-line to find the divergence point, the
/// stale suffix is discarded, and a fresh broker is rebuilt from the
/// *authoritative* journal through the normal recovery path (snapshot +
/// LSN-checked replay + invariants). The rebuilt runtime model is
/// cross-checked against an independent replay with
/// [`StateManager::first_divergence`] before it is handed back.
/// `source_node` names the node the authoritative journal came from and
/// is reported verbatim in [`ReconcileReport::source_node`].
pub fn reconcile(
    authoritative: &[u8],
    stale: &[u8],
    source_node: &str,
    model: &Model,
    hub: ResourceHub,
    invariants: &[&str],
) -> Result<(GenericBroker, ReconcileReport)> {
    let a_lines: Vec<&[u8]> = authoritative.split_inclusive(|&b| b == b'\n').collect();
    let s_lines: Vec<&[u8]> = stale.split_inclusive(|&b| b == b'\n').collect();
    let common = a_lines
        .iter()
        .zip(&s_lines)
        .take_while(|(a, s)| a == s)
        .count();
    let (broker, _report) = GenericBroker::recover(model, hub, authoritative, invariants)?;
    let independent = journal::replay(authoritative)?;
    if let Some(d) = broker.state().first_divergence(&independent.state) {
        return Err(BrokerError::RecoveryDiverged(format!(
            "reconciled model disagrees with journal replay: {d}"
        )));
    }
    Ok((
        broker,
        ReconcileReport {
            common_lines: common,
            discarded_stale_lines: s_lines.len() - common,
            replayed_lines: a_lines.len() - common,
            source_node: source_node.to_owned(),
        },
    ))
}

/// What [`repair_journal`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRepair {
    /// Journal lines the damaged local copy and the mirror share (longest
    /// common prefix).
    pub common_lines: usize,
    /// Mirror lines fetched past the common prefix — the anti-entropy
    /// transfer that replaced the damaged region.
    pub fetched_lines: usize,
    /// Readable local lines past the mirror's head that were kept (writes
    /// appended after the last ship, which the mirror never saw).
    pub kept_tail_lines: usize,
    /// Size of the healed journal (bytes).
    pub healed_bytes: usize,
    /// Node whose mirror served as the repair source.
    pub source_node: String,
}

/// Anti-entropy repair of a damaged journal from a standby's mirror.
///
/// The mirror is a byte-for-byte copy of every shipped line, so healing
/// is the [`reconcile`] diff run the other way around: the damaged local
/// journal and the mirror are diffed line-by-line to the divergence
/// point, the mirror is taken as authoritative from there (it holds the
/// records the disk gave back wrong — the missing LSN range), and any
/// *readable* local lines beyond the mirror's head (appends the primary
/// made after its last ship) are kept, stopping at the first unreadable
/// one — that suffix is the torn garbage the tail policy would drop
/// anyway. The healed journal must then replay cleanly end-to-end
/// ([`journal::replay`]); if it does not — the damage extends past what
/// the mirror covers — the error propagates and the caller falls back to
/// quarantine.
pub fn repair_journal(local: &[u8], standby: &Standby) -> Result<(Vec<u8>, JournalRepair)> {
    heal(local, standby).map(|(healed, repair, _)| (healed, repair))
}

/// [`repair_journal`], also handing back the healed journal's replay so
/// recovery resumes over it without replaying it again.
fn heal(local: &[u8], standby: &Standby) -> Result<(Vec<u8>, JournalRepair, Recovered)> {
    let mirror = standby.journal_bytes();
    if mirror.is_empty() {
        return Err(BrokerError::RecoveryDiverged(
            "anti-entropy repair needs a standby mirror, but the mirror is empty".to_owned(),
        ));
    }
    let l_lines: Vec<&[u8]> = local.split_inclusive(|&b| b == b'\n').collect();
    let m_lines: Vec<&[u8]> = mirror.split_inclusive(|&b| b == b'\n').collect();
    let common = m_lines
        .iter()
        .zip(&l_lines)
        .take_while(|(m, l)| m == l)
        .count();
    let mut healed = mirror.to_vec();
    let mut kept_tail_lines = 0usize;
    for raw in l_lines.iter().skip(m_lines.len()) {
        let Some(line) = raw
            .strip_suffix(b"\n")
            .and_then(|b| std::str::from_utf8(b).ok())
        else {
            break;
        };
        if journal::parse_line(line).is_err() {
            break;
        }
        healed.extend_from_slice(raw);
        kept_tail_lines += 1;
    }
    let replayed = journal::replay(&healed)?;
    if replayed.torn.is_some() {
        return Err(BrokerError::RecoveryDiverged(
            "anti-entropy repair left a torn tail — mirror does not cover the damage".to_owned(),
        ));
    }
    let report = JournalRepair {
        common_lines: common,
        fetched_lines: m_lines.len() - common,
        kept_tail_lines,
        healed_bytes: healed.len(),
        source_node: standby.node().to_owned(),
    };
    Ok((healed, report, replayed))
}

/// Picks the freshest anti-entropy source from a replica set: the
/// standby with the largest applied LSN, ties broken by the longest
/// mirror (most lines received), then by slice order — deterministic, so
/// every node polls the same schedule to the same answer. `None` for an
/// empty candidate slice.
pub fn select_repair_source<'a>(candidates: &[&'a Standby]) -> Option<&'a Standby> {
    let mut best: Option<&'a Standby> = None;
    for &c in candidates {
        let better = match best {
            None => true,
            Some(b) => {
                c.applied_lsn() > b.applied_lsn()
                    || (c.applied_lsn() == b.applied_lsn() && c.received() > b.received())
            }
        };
        if better {
            best = Some(c);
        }
    }
    best
}

/// The anti-entropy repair criterion: why `journal_bytes`, whose replay
/// is `replayed`, must be healed from `source`'s mirror before recovery,
/// or `None` when plain recovery loses nothing the source holds. Repair
/// is needed on:
///
/// * interior [`BrokerError::JournalDamaged`] — bit-rot the mirror can
///   replace;
/// * a torn tail that cut below what the source already applied
///   (acknowledged records must never be lost);
/// * a mirror that extends past the local journal's intact prefix — a
///   *clean* tail loss (unsynced writes dropped by a power cut) leaves no
///   torn marker and may drop only command records (which carry no LSN),
///   so it is only visible by comparing against the mirror.
///
/// Any other replay error is not repairable from a mirror: `None`, and
/// recovery reports the error itself.
pub fn repair_reason(
    journal_bytes: &[u8],
    replayed: &Result<Recovered>,
    source: &Standby,
) -> Option<String> {
    match replayed {
        Err(BrokerError::JournalDamaged { lsn, offset, why }) => Some(format!(
            "journal damaged at lsn {lsn}, byte {offset}: {why}"
        )),
        Err(_) => None,
        Ok(r) => {
            let intact = match &r.torn {
                Some(t) => &journal_bytes[..t.offset as usize],
                None => journal_bytes,
            };
            let mirror = source.journal_bytes();
            let gap = (mirror.len() > intact.len() && mirror.starts_with(intact))
                || r.state.version() < source.applied_lsn();
            gap.then(|| "acknowledged records missing from the journal tail".to_owned())
        }
    }
}

/// Recovery with the anti-entropy fallback. The freshest of the reachable
/// `peers` ([`select_repair_source`]) is the repair source; with none in
/// reach this is the typed [`BrokerError::RecoveryDiverged`], and the
/// caller falls back to plain recovery or quarantine. Recovery is the
/// ordinary [`GenericBroker::recover`] when [`repair_reason`] finds
/// nothing to repair; otherwise the journal is first healed from the
/// source's mirror with [`repair_journal`] and recovery runs over the
/// healed bytes. Each journal is replayed once.
///
/// The repair provenance is journaled as a `Note` on the recovered
/// instance.
pub fn recover_with_anti_entropy(
    model: &Model,
    hub: ResourceHub,
    journal_bytes: &[u8],
    invariants: &[&str],
    peers: &[&Standby],
) -> Result<(GenericBroker, RecoveryReport, Option<JournalRepair>)> {
    let standby = select_repair_source(peers).ok_or_else(|| {
        BrokerError::RecoveryDiverged(
            "anti-entropy recovery needs at least one reachable replica mirror".to_owned(),
        )
    })?;
    let replayed = journal::replay(journal_bytes);
    if repair_reason(journal_bytes, &replayed, standby).is_none() {
        let (broker, report) =
            GenericBroker::resume(model, hub, journal_bytes, replayed?, invariants)?;
        return Ok((broker, report, None));
    }
    let (healed, repair, recovered) = heal(journal_bytes, standby)?;
    let (mut broker, report) = GenericBroker::resume(model, hub, &healed, recovered, invariants)?;
    broker.journal_note(&format!(
        "anti-entropy repair from standby {}: {} common line(s), {} fetched, {} kept from tail",
        standby.node(),
        repair.common_lines,
        repair.fetched_lines,
        repair.kept_tail_lines
    ));
    Ok((broker, report, Some(repair)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::BrokerModelBuilder;
    use mddsm_sim::net::Link;
    use mddsm_sim::resource::{args, Outcome};

    const SNAPSHOT_EVERY: u64 = 8;
    /// Ack timeout of every test lane (µs); drain rounds are this apart.
    const ACK_TIMEOUT_US: u64 = 5_000;

    fn hub() -> ResourceHub {
        let mut h = ResourceHub::new(7);
        h.register_fn("sim.ctr", |_, _| Outcome::ok());
        h
    }

    /// A counter broker replicated to `peers`, each over an
    /// `AckWindowed` lane with a window of 4.
    fn quorum_model(quorum: u64, peers: &[&str]) -> Model {
        let lanes: Vec<(&str, &str, u64, u64)> = peers
            .iter()
            .map(|n| (*n, "AckWindowed", 4, ACK_TIMEOUT_US))
            .collect();
        BrokerModelBuilder::new("qrep")
            .call_handler("inc", "inc")
            .action("inc", "doInc", "ctr", "inc", &[], None, &["count=+1"])
            .bind_resource("ctr", "sim.ctr")
            .replica_set(quorum, &lanes)
            .build()
    }

    /// A single hot standby on `b`: a one-peer set, quorum 2.
    fn model() -> Model {
        quorum_model(2, &["b"])
    }

    fn net() -> Network {
        Network::new(Link::default(), 99)
    }

    fn primary(m: &Model) -> GenericBroker {
        let mut b = GenericBroker::from_model(m, hub()).unwrap();
        b.enable_journal(SNAPSHOT_EVERY);
        b
    }

    fn replicator(m: &Model) -> QuorumReplicator {
        QuorumReplicator::from_model(m, "a").unwrap().unwrap()
    }

    /// Ships until every peer is synced or `rounds` ack timeouts elapse.
    fn drain(
        rep: &mut QuorumReplicator,
        net: &Network,
        broker: &GenericBroker,
        peers: &mut [&mut Standby],
        rounds: u32,
    ) {
        let mut now = SimTime::ZERO;
        for _ in 0..rounds {
            let bytes = broker.journal_bytes().unwrap();
            rep.tick(now, broker.epoch(), net, bytes, peers).unwrap();
            if rep.synced() {
                return;
            }
            now = now + SimDuration::from_micros(ACK_TIMEOUT_US);
        }
    }

    #[test]
    fn journal_ships_and_the_standby_tracks_the_primary() {
        let mut broker = primary(&model());
        let mut rep = replicator(&model());
        let mut standby = Standby::new("b");
        let net = net();

        for _ in 0..10 {
            broker.call("inc", &args(&[])).unwrap();
            drain(&mut rep, &net, &broker, &mut [&mut standby], 4);
        }
        assert!(rep.synced());
        assert_eq!(rep.lag(), 0);
        assert_eq!(rep.metrics().int("repl_lag"), Some(0));
        // The standby's live model matches the primary's, and the mirror
        // is byte-identical — promotion would recover exactly this state.
        assert_eq!(
            broker.state().first_divergence(standby.state()),
            None,
            "standby diverged"
        );
        assert_eq!(standby.journal_bytes(), broker.journal_bytes().unwrap());
        assert_eq!(rep.acked_lsn("b"), broker.state().version());
        assert_eq!(rep.commit_lsn(), broker.state().version());
        assert_eq!(standby.state().int("count"), Some(10));
    }

    #[test]
    fn lossy_links_retransmit_until_the_standby_converges() {
        let mut broker = primary(&model());
        let mut rep = replicator(&model());
        let mut standby = Standby::new("b");
        let net = net();
        net.set_link_loss("a", "b", 0.5);
        net.set_link_loss("b", "a", 0.5);

        for _ in 0..20 {
            broker.call("inc", &args(&[])).unwrap();
        }
        drain(&mut rep, &net, &broker, &mut [&mut standby], 400);
        assert!(rep.synced(), "never converged under loss");
        assert!(rep.retransmits() > 0, "0.5 loss must force retransmission");
        assert_eq!(
            rep.metrics().int("repl_retransmits"),
            Some(rep.retransmits() as i64)
        );
        assert_eq!(broker.state().first_divergence(standby.state()), None);
        assert_eq!(standby.journal_bytes(), broker.journal_bytes().unwrap());
    }

    #[test]
    fn the_ack_window_bounds_what_goes_on_the_wire() {
        let mut broker = primary(&model());
        let mut rep = replicator(&model());
        let window = rep.config().peers[0].window_records;
        let mut standby = Standby::new("b");
        let net = net();
        net.partition_node("b");

        for _ in 0..20 {
            broker.call("inc", &args(&[])).unwrap();
        }
        let bytes = broker.journal_bytes().unwrap().to_vec();
        let r = rep
            .tick(SimTime::ZERO, 1, &net, &bytes, &mut [&mut standby])
            .unwrap();
        // Go-back-N stops a batch on the first dropped leg, so at most
        // one line hits a partitioned wire — and never more than the
        // window even on healthy ones.
        assert!(r.shipped <= window);
        assert!(rep.lag() > window);
        assert_eq!(standby.received(), 0);
    }

    #[test]
    fn promotion_fences_the_stale_primary() {
        let m = model();
        let mut broker = primary(&m);
        let mut rep = replicator(&m);
        let mut standby = Standby::new("b");
        let net = net();

        // Healthy replication, then a partition strands the primary.
        for _ in 0..5 {
            broker.call("inc", &args(&[])).unwrap();
        }
        drain(&mut rep, &net, &broker, &mut [&mut standby], 4);
        net.partition_node("a");
        // The stranded primary keeps serving (split brain in the making).
        broker.call("inc", &args(&[])).unwrap();

        // Supervisor-side: promote the standby under epoch 2.
        let (promoted, report) = standby.promote(2, &m, hub(), &[]).unwrap();
        assert_eq!(promoted.epoch(), 2);
        assert_eq!(promoted.state().int("count"), Some(5));
        assert!(report.ops_replayed > 0 || report.snapshot_version > 0);

        // The old primary heals and tries to ship its stale writes.
        net.heal_node("a");
        let bytes = broker.journal_bytes().unwrap().to_vec();
        let r = rep
            .tick(
                SimTime::from_millis(100),
                broker.epoch(),
                &net,
                &bytes,
                &mut [&mut standby],
            )
            .unwrap();
        assert_eq!(r.fenced, 1, "stale primary must be fenced");
        assert_eq!(rep.metrics().int("repl_fenced"), Some(1));
        // Direct receive refuses with the typed error, and applies
        // nothing.
        let applied_before = standby.applied_lsn();
        match standby.receive(standby.received(), "op 99 set x i 1", 1) {
            Err(BrokerError::StaleEpoch { got: 1, current: 2 }) => {}
            other => panic!("expected StaleEpoch, got {other:?}"),
        }
        assert_eq!(standby.applied_lsn(), applied_before);

        // The fence itself is journaled: even after the *promoted*
        // broker crashes and recovers, the epoch holds.
        let (recovered, _) =
            GenericBroker::recover(&m, hub(), promoted.journal_bytes().unwrap(), &[]).unwrap();
        assert_eq!(recovered.epoch(), 2);
    }

    #[test]
    fn reconcile_discards_the_stale_suffix_and_rebuilds() {
        let m = model();
        let mut broker = primary(&m);
        let mut rep = replicator(&m);
        let mut standby = Standby::new("b");
        let net = net();

        for _ in 0..4 {
            broker.call("inc", &args(&[])).unwrap();
        }
        drain(&mut rep, &net, &broker, &mut [&mut standby], 4);
        // Partition; both sides write: the primary's writes are doomed.
        net.partition_node("a");
        broker.call("inc", &args(&[])).unwrap();
        broker.call("inc", &args(&[])).unwrap();
        let (mut promoted, _) = standby.promote(2, &m, hub(), &[]).unwrap();
        promoted.call("inc", &args(&[])).unwrap();

        let (rebuilt, rr) = reconcile(
            promoted.journal_bytes().unwrap(),
            broker.journal_bytes().unwrap(),
            "b",
            &m,
            hub(),
            &[],
        )
        .unwrap();
        assert!(rr.common_lines > 0);
        // Satellite regression: the report names the node whose journal
        // won, as a typed field.
        assert_eq!(rr.source_node, "b");
        // Each call journals two lines (the state op and the command
        // record), so the two doomed calls discard four.
        assert_eq!(rr.discarded_stale_lines, 4, "two doomed calls: {rr:?}");
        assert!(rr.replayed_lines > 0);
        // The reconciled broker carries the authoritative history: the
        // promoted side's count and epoch, not the stale writes.
        assert_eq!(rebuilt.state().int("count"), Some(5));
        assert_eq!(rebuilt.epoch(), 2);
    }

    #[test]
    fn truncation_keeps_the_ship_cursor_consistent() {
        let mut broker = primary(&model());
        let mut rep = replicator(&model());
        let mut standby = Standby::new("b");
        let net = net();

        for _ in 0..SNAPSHOT_EVERY + 2 {
            broker.call("inc", &args(&[])).unwrap();
        }
        drain(&mut rep, &net, &broker, &mut [&mut standby], 8);
        assert!(rep.synced());
        let reclaimed = rep.truncate_primary(&mut broker);
        assert!(
            reclaimed > 0,
            "acked history behind a snapshot must free bytes"
        );

        // Shipping continues seamlessly over the rewritten journal.
        for _ in 0..3 {
            broker.call("inc", &args(&[])).unwrap();
        }
        drain(&mut rep, &net, &broker, &mut [&mut standby], 8);
        assert!(rep.synced());
        assert_eq!(broker.state().first_divergence(standby.state()), None);
        assert_eq!(
            standby.state().int("count"),
            Some(SNAPSHOT_EVERY as i64 + 5)
        );
    }

    #[test]
    fn catch_up_mirrors_the_journal_in_process() {
        let mut broker = primary(&model());
        let mut standby = Standby::new("b");
        for _ in 0..5 {
            broker.call("inc", &args(&[])).unwrap();
            let bytes = broker.journal_bytes().unwrap();
            let acked = standby.catch_up(bytes, broker.epoch()).unwrap();
            assert_eq!(acked, standby.received());
        }
        let bytes = broker.journal_bytes().unwrap();
        assert_eq!(standby.journal_bytes(), bytes);
        assert_eq!(broker.state().first_divergence(standby.state()), None);
        // Nothing new: a second call ships nothing.
        let received = standby.received();
        assert_eq!(standby.catch_up(bytes, broker.epoch()).unwrap(), received);
        // A fenced standby refuses a stale epoch with the typed error.
        broker.call("inc", &args(&[])).unwrap();
        standby.fence(2);
        assert!(matches!(
            standby.catch_up(broker.journal_bytes().unwrap(), 1),
            Err(BrokerError::StaleEpoch { got: 1, current: 2 })
        ));
    }

    /// First index at or after `from` whose byte is not a newline — a safe
    /// place to flip a bit without merging journal lines.
    fn non_newline_at(bytes: &[u8], from: usize) -> usize {
        (from..bytes.len())
            .find(|&i| bytes[i] != b'\n')
            .expect("a non-newline byte past the midpoint")
    }

    /// A fully-synced primary/standby pair plus a pristine copy of the
    /// primary's journal bytes, after `calls` increments.
    fn synced_pair(calls: u32) -> (GenericBroker, Standby, Vec<u8>) {
        let mut broker = primary(&model());
        let mut rep = replicator(&model());
        let mut standby = Standby::new("b");
        let net = net();
        for _ in 0..calls {
            broker.call("inc", &args(&[])).unwrap();
            drain(&mut rep, &net, &broker, &mut [&mut standby], 4);
        }
        assert!(rep.synced());
        let pristine = broker.journal_bytes().unwrap().to_vec();
        (broker, standby, pristine)
    }

    #[test]
    fn anti_entropy_heals_interior_damage_byte_identically() {
        let m = model();
        let (_broker, standby, pristine) = synced_pair(6);
        // Bit-rot an interior line: flip one payload byte in the middle of
        // the journal. The CRC frame catches it; replay refuses.
        let mid = non_newline_at(&pristine, pristine.len() / 2);
        let mut damaged = pristine.clone();
        damaged[mid] ^= 0x01;
        let replayed = journal::replay(&damaged);
        assert!(matches!(replayed, Err(BrokerError::JournalDamaged { .. })));
        let reason = repair_reason(&damaged, &replayed, &standby).expect("damage needs repair");
        assert!(reason.starts_with("journal damaged at lsn "), "{reason}");
        // The standby's mirror covers the damage: the healed journal is
        // byte-identical to the pristine one.
        let (healed, repair) = repair_journal(&damaged, &standby).unwrap();
        assert_eq!(
            healed, pristine,
            "healed journal must match the undamaged one"
        );
        assert!(repair.fetched_lines > 0);
        assert_eq!(
            repair.kept_tail_lines, 0,
            "fully synced: no local-only tail"
        );
        // End-to-end: recovery with the anti-entropy fallback rebuilds the
        // exact pre-damage state and journals the repair provenance.
        let (recovered, _report, rep) =
            recover_with_anti_entropy(&m, hub(), &damaged, &[], &[&standby]).unwrap();
        assert_eq!(rep.as_ref(), Some(&repair));
        assert_eq!(recovered.state().int("count"), Some(6));
        assert_eq!(recovered.state().first_divergence(standby.state()), None);
        let text = std::str::from_utf8(recovered.journal_bytes().unwrap()).unwrap();
        assert!(
            text.lines()
                .map(journal::line_payload)
                .any(|p| p.starts_with("note ") && p.contains("anti-entropy")),
            "repair provenance must be journaled"
        );
    }

    #[test]
    fn torn_tail_below_the_ack_point_is_healed_not_dropped() {
        // Satellite guarantee: torn-tail truncation never loses a record
        // the standby already acknowledged. Tear into the journal's final
        // line — which the standby HAS applied — and recover.
        let m = model();
        let (_broker, standby, pristine) = synced_pair(5);
        // Tear into the last *op* line (the record that carries an LSN);
        // everything after it goes with the tear.
        let text = std::str::from_utf8(&pristine).unwrap();
        let mut op_start = 0;
        let mut offset = 0;
        for raw in text.split_inclusive('\n') {
            if journal::line_payload(raw.trim_end_matches('\n')).starts_with("op ") {
                op_start = offset;
            }
            offset += raw.len();
        }
        let cut = op_start + 5; // mid-record: the line is unreadable
        let torn = &pristine[..cut];
        // Plain replay shrugs: torn tail, drop the partial record. But the
        // ack window says that record was committed — plain recovery would
        // silently lose it.
        let r = journal::replay(torn).unwrap();
        let t = r.torn.as_ref().expect("tail is torn");
        assert!(standby.applied_lsn() > t.last_lsn, "acked past the tear");
        // The anti-entropy path refuses to lose it: heal from the mirror.
        let (recovered, report, rep) =
            recover_with_anti_entropy(&m, hub(), torn, &[], &[&standby]).unwrap();
        assert!(rep.is_some(), "ack-window check must force a repair");
        assert_eq!(report.torn_records_dropped, 0);
        assert_eq!(recovered.state().int("count"), Some(5), "no committed loss");
        assert_eq!(recovered.state().version(), standby.applied_lsn());
    }

    #[test]
    fn unacked_torn_tail_recovers_locally_without_repair() {
        // A tear in records the standby never acknowledged is the normal
        // crash-torn-tail case: truncate and continue, no repair needed.
        let m = model();
        let (mut broker, standby, _) = synced_pair(4);
        let net = net();
        net.partition_node("b");
        // One more call that never ships: its records are unacked.
        broker.call("inc", &args(&[])).unwrap();
        let bytes = broker.journal_bytes().unwrap();
        let last_line_start = bytes[..bytes.len() - 1]
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |i| i + 1);
        let torn = &bytes[..last_line_start + 3];
        assert_eq!(repair_reason(torn, &journal::replay(torn), &standby), None);
        let (recovered, report, rep) =
            recover_with_anti_entropy(&m, hub(), torn, &[], &[&standby]).unwrap();
        assert!(rep.is_none(), "unacked tear needs no standby round-trip");
        assert_eq!(report.torn_records_dropped, 1);
        // The unacked in-flight record is (correctly) gone; everything
        // acknowledged survives.
        assert!(recovered.state().version() >= standby.applied_lsn());
    }

    #[test]
    fn clean_tail_loss_is_caught_by_the_mirror_not_the_checksum() {
        // A power cut that drops not-yet-synced writes leaves a journal
        // ending on a clean record boundary: every surviving line passes
        // its CRC and the lost tail may hold only command records, which
        // carry no LSN. Checksums and the ack window are both blind —
        // only the mirror comparison sees the loss.
        let m = model();
        let (_broker, standby, pristine) = synced_pair(4);
        let lines: Vec<&[u8]> = pristine.split_inclusive(|&b| b == b'\n').collect();
        let cut: usize = lines[..lines.len() - 1].iter().map(|l| l.len()).sum();
        let clipped = &pristine[..cut];
        let r = journal::replay(clipped).unwrap();
        assert!(r.torn.is_none(), "a clean cut leaves no torn marker");
        assert_eq!(
            repair_reason(clipped, &Ok(r), &standby).as_deref(),
            Some("acknowledged records missing from the journal tail")
        );
        let (recovered, _report, rep) =
            recover_with_anti_entropy(&m, hub(), clipped, &[], &[&standby]).unwrap();
        assert!(rep.is_some(), "the mirror comparison must force a repair");
        assert_eq!(recovered.state().int("count"), Some(4));
        let jb = recovered.journal_bytes().unwrap();
        assert!(
            jb.starts_with(&pristine),
            "the healed journal restores the dropped tail byte-identically"
        );
    }

    #[test]
    fn repair_keeps_readable_local_writes_past_the_mirror() {
        // Writes appended after the last ship exist only locally; a repair
        // triggered by interior damage must keep them.
        let m = model();
        let (mut broker, standby, _) = synced_pair(3);
        let net = net();
        net.partition_node("b");
        broker.call("inc", &args(&[])).unwrap(); // local-only, readable
        let pristine = broker.journal_bytes().unwrap().to_vec();
        let local_only_lines = pristine
            .split_inclusive(|&b| b == b'\n')
            .count()
            .saturating_sub(
                standby
                    .journal_bytes()
                    .split_inclusive(|&b| b == b'\n')
                    .count(),
            );
        assert!(
            local_only_lines >= 2,
            "the unshipped call left lines behind"
        );
        let mut damaged = pristine.clone();
        // Interior damage inside the mirror-covered prefix.
        let flip_at = non_newline_at(&damaged, standby.journal_bytes().len() / 2);
        damaged[flip_at] ^= 0x01;
        let (healed, repair) = repair_journal(&damaged, &standby).unwrap();
        assert_eq!(healed, pristine);
        assert_eq!(
            repair.kept_tail_lines, local_only_lines,
            "every readable local-only line survives the repair"
        );
        let (recovered, _report, rep) =
            recover_with_anti_entropy(&m, hub(), &damaged, &[], &[&standby]).unwrap();
        assert!(rep.is_some());
        assert_eq!(recovered.state().int("count"), Some(4));
    }

    #[test]
    fn repair_refuses_an_empty_mirror_and_drops_unreadable_local_tails() {
        // Empty mirror: nothing to heal from.
        let empty = Standby::new("b");
        let damaged = b"v1 00000000 op 1 int x 1\n";
        match repair_journal(damaged, &empty) {
            Err(BrokerError::RecoveryDiverged(msg)) => assert!(msg.contains("empty"), "{msg}"),
            other => panic!("expected RecoveryDiverged, got {other:?}"),
        }
        // Corruption in a local-only (never-shipped, unacked) tail line:
        // the mirror cannot vouch for it, so the repair keeps readable
        // local lines up to the damage and drops the rest — the healed
        // journal replays clean with no torn tail.
        let (mut broker, standby, _) = synced_pair(2);
        let net = net();
        net.partition_node("b");
        broker.call("inc", &args(&[])).unwrap();
        let mut damaged = broker.journal_bytes().unwrap().to_vec();
        let n = damaged.len();
        damaged[n - 4] ^= 0x01; // corrupt the final local-only line
        let (healed, repair) = repair_journal(&damaged, &standby).unwrap();
        let r = journal::replay(&healed).unwrap();
        assert!(r.torn.is_none(), "healed journal must not be torn");
        assert_eq!(
            repair.kept_tail_lines, 1,
            "the readable op line survives; the corrupt cmd line is dropped"
        );
        assert_eq!(r.state.int("count"), Some(3), "readable local write kept");
    }

    #[test]
    fn repair_report_names_its_source_node() {
        // Satellite regression: anti-entropy provenance is a typed field,
        // not a string buried in a journal note.
        let (_broker, standby, pristine) = synced_pair(4);
        let mid = non_newline_at(&pristine, pristine.len() / 2);
        let mut damaged = pristine.clone();
        damaged[mid] ^= 0x01;
        let (_healed, repair) = repair_journal(&damaged, &standby).unwrap();
        assert_eq!(repair.source_node, "b");
    }

    // ----- quorum replica sets -----

    #[test]
    fn replica_set_config_compiles_and_validates() {
        assert!(
            ReplicaSetConfig::from_model(&BrokerModelBuilder::new("p").build())
                .unwrap()
                .is_none()
        );
        // quorum 0 computes the majority of (peers + primary).
        let cfg = ReplicaSetConfig::from_model(&quorum_model(0, &["b", "c"]))
            .unwrap()
            .unwrap();
        assert_eq!(cfg.quorum, 2, "majority of 3 nodes");
        assert_eq!(cfg.peers.len(), 2);
        assert_eq!(cfg.peers[0].mode, ShipMode::AckWindowed);
        // An explicit quorum above the node count is an invalid model.
        match ReplicaSetConfig::from_model(&quorum_model(4, &["b", "c"])) {
            Err(BrokerError::InvalidModel(msg)) => assert!(msg.contains("quorum"), "{msg}"),
            other => panic!("expected InvalidModel, got {other:?}"),
        }
    }

    #[test]
    fn commit_lsn_is_the_quorum_th_largest_acked() {
        let m = quorum_model(2, &["b", "c"]);
        let mut broker = primary(&m);
        let mut rep = replicator(&m);
        let mut b = Standby::new("b");
        let mut c = Standby::new("c");
        let net = net();
        // c is unreachable the whole time: the primary + b still form a
        // quorum of 2, so commit advances to the head.
        net.partition_node("c");
        for _ in 0..6 {
            broker.call("inc", &args(&[])).unwrap();
        }
        drain(&mut rep, &net, &broker, &mut [&mut b, &mut c], 40);
        assert!(!rep.synced(), "c can never ack through a partition");
        assert!(rep.quorum_synced(), "primary + b are a quorum");
        assert_eq!(rep.commit_lsn(), broker.state().version());
        assert_eq!(rep.acked_lsn("b"), broker.state().version());
        assert_eq!(rep.acked_lsn("c"), 0);
        assert_eq!(rep.metrics().int("repl_quorum"), Some(2));
        assert_eq!(
            rep.metrics().int("repl_commit_lsn"),
            Some(rep.commit_lsn() as i64)
        );
        // Every committed LSN is on b byte-for-byte (the safety claim).
        let committed =
            journal::prefix_through_lsn(broker.journal_bytes().unwrap(), rep.commit_lsn()).unwrap();
        assert!(b.journal_bytes().starts_with(committed));
    }

    #[test]
    fn a_minority_ack_does_not_commit_and_truncation_respects_it() {
        // Quorum 3 of 3 nodes: with c partitioned, b's acks alone must
        // not advance the commit point — and truncation must not drop
        // history below what the quorum holds.
        let m = quorum_model(3, &["b", "c"]);
        let mut broker = primary(&m);
        let mut rep = replicator(&m);
        let mut b = Standby::new("b");
        let mut c = Standby::new("c");
        let net = net();
        net.partition_node("c");
        for _ in 0..SNAPSHOT_EVERY + 2 {
            broker.call("inc", &args(&[])).unwrap();
        }
        drain(&mut rep, &net, &broker, &mut [&mut b, &mut c], 40);
        assert_eq!(rep.acked_lsn("b"), broker.state().version());
        assert_eq!(rep.commit_lsn(), 0, "2 holders < quorum 3: nothing commits");
        assert_eq!(
            rep.truncate_primary(&mut broker),
            0,
            "nothing quorum-committed, nothing reclaimable"
        );
        // Heal c: the full set converges and the commit point catches up.
        net.heal_node("c");
        drain(&mut rep, &net, &broker, &mut [&mut b, &mut c], 40);
        assert!(rep.synced());
        assert_eq!(rep.commit_lsn(), broker.state().version());
        assert!(
            rep.truncate_primary(&mut broker) > 0,
            "committed history behind a snapshot is reclaimable now"
        );
        // Shipping continues seamlessly over the rewritten journal.
        broker.call("inc", &args(&[])).unwrap();
        drain(&mut rep, &net, &broker, &mut [&mut b, &mut c], 40);
        assert!(rep.synced());
        assert_eq!(broker.state().first_divergence(b.state()), None);
        assert_eq!(broker.state().first_divergence(c.state()), None);
    }

    #[test]
    fn reset_peer_reships_the_full_history_to_a_fresh_mirror() {
        let m = quorum_model(2, &["b", "c"]);
        let mut broker = primary(&m);
        let mut rep = replicator(&m);
        let mut b = Standby::new("b");
        let mut c = Standby::new("c");
        let net = net();
        for _ in 0..5 {
            broker.call("inc", &args(&[])).unwrap();
        }
        drain(&mut rep, &net, &broker, &mut [&mut b, &mut c], 40);
        assert!(rep.synced());
        let commit_before = rep.commit_lsn();
        // c loses its disk: revive it empty and rewind its lane.
        let mut c = Standby::new("c");
        assert!(rep.reset_peer("c"));
        assert!(!rep.reset_peer("zz"), "unknown nodes are refused");
        assert_eq!(
            rep.commit_lsn(),
            commit_before,
            "the commit point is monotone across a rewind"
        );
        drain(&mut rep, &net, &broker, &mut [&mut b, &mut c], 40);
        assert!(rep.synced());
        assert_eq!(c.journal_bytes(), broker.journal_bytes().unwrap());
        assert_eq!(broker.state().first_divergence(c.state()), None);
    }

    #[test]
    fn quorum_tick_refuses_a_journal_shorter_than_the_read_cursor() {
        let m = quorum_model(2, &["b", "c"]);
        let mut broker = primary(&m);
        let mut rep = replicator(&m);
        let (mut b, mut c) = (Standby::new("b"), Standby::new("c"));
        let net = net();
        for _ in 0..3 {
            broker.call("inc", &args(&[])).unwrap();
        }
        drain(&mut rep, &net, &broker, &mut [&mut b, &mut c], 40);
        let bytes = broker.journal_bytes().unwrap();
        let short = &bytes[..bytes.len() / 2];
        let peers: &mut [&mut Standby] = &mut [&mut b, &mut c];
        match rep.tick(SimTime::ZERO, broker.epoch(), &net, short, peers) {
            Err(BrokerError::RecoveryDiverged(m)) => assert!(m.contains("truncate_primary"), "{m}"),
            other => panic!("expected RecoveryDiverged, got {other:?}"),
        }
        // Nothing was shipped from the bad bytes: the mirrors still match
        // the real journal.
        assert_eq!(b.journal_bytes(), bytes);
        assert_eq!(c.journal_bytes(), bytes);
    }

    #[test]
    fn one_fenced_lane_does_not_stop_the_others() {
        let m = quorum_model(2, &["b", "c"]);
        let mut broker = primary(&m);
        let mut rep = replicator(&m);
        let mut b = Standby::new("b");
        let mut c = Standby::new("c");
        // c has seen a newer epoch (a promotion happened elsewhere): it
        // fences this primary, but b's lane keeps shipping.
        c.fence(5);
        let net = net();
        for _ in 0..4 {
            broker.call("inc", &args(&[])).unwrap();
        }
        let bytes = broker.journal_bytes().unwrap().to_vec();
        let r = rep
            .tick(
                SimTime::ZERO,
                broker.epoch(),
                &net,
                &bytes,
                &mut [&mut b, &mut c],
            )
            .unwrap();
        assert!(r.fenced >= 1, "c must fence the stale primary");
        assert!(b.received() > 0, "b's lane is unaffected");
        assert_eq!(c.received(), 0);
        assert_eq!(rep.fenced(), r.fenced);
    }

    #[test]
    fn from_mirror_rebuilds_a_standby_byte_identically() {
        let (_broker, standby, pristine) = synced_pair(6);
        let rebuilt = Standby::from_mirror("d", &pristine, 3).unwrap();
        assert_eq!(rebuilt.journal_bytes(), standby.journal_bytes());
        assert_eq!(rebuilt.applied_lsn(), standby.applied_lsn());
        assert_eq!(rebuilt.received(), standby.received());
        assert_eq!(rebuilt.state().first_divergence(standby.state()), None);
        assert_eq!(rebuilt.epoch(), 3, "rebuilt standby honors the fence");
        assert_eq!(rebuilt.node(), "d");
    }

    #[test]
    fn the_freshest_replica_serves_as_the_quorum_repair_source() {
        let m = quorum_model(2, &["b", "c"]);
        let mut broker = primary(&m);
        let mut rep = replicator(&m);
        let mut b = Standby::new("b");
        let mut c = Standby::new("c");
        let net = net();
        for _ in 0..4 {
            broker.call("inc", &args(&[])).unwrap();
        }
        drain(&mut rep, &net, &broker, &mut [&mut b, &mut c], 40);
        // c falls behind: two more calls ship to b only.
        net.partition_node("c");
        for _ in 0..2 {
            broker.call("inc", &args(&[])).unwrap();
        }
        drain(&mut rep, &net, &broker, &mut [&mut b, &mut c], 40);
        assert!(b.applied_lsn() > c.applied_lsn());
        let src = select_repair_source(&[&c, &b]).expect("two candidates");
        assert_eq!(src.node(), "b", "the freshest mirror wins");
        assert!(select_repair_source(&[]).is_none());

        // The primary's journal rots: quorum recovery heals it from b,
        // and the repair provenance names b as the typed source.
        let pristine = broker.journal_bytes().unwrap().to_vec();
        let mid = non_newline_at(&pristine, b.journal_bytes().len() / 2);
        let mut damaged = pristine.clone();
        damaged[mid] ^= 0x01;
        let (recovered, _report, repair) =
            recover_with_anti_entropy(&m, hub(), &damaged, &[], &[&c, &b]).unwrap();
        let repair = repair.expect("interior damage forces a repair");
        assert_eq!(repair.source_node, "b");
        assert_eq!(recovered.state().int("count"), Some(6));
        match recover_with_anti_entropy(&m, hub(), &damaged, &[], &[]) {
            Err(BrokerError::RecoveryDiverged(msg)) => {
                assert!(msg.contains("reachable"), "{msg}")
            }
            other => panic!("expected RecoveryDiverged, got {other:?}"),
        }
    }
}
