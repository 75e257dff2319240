//! E13 — durable-storage fault tolerance: checksummed self-healing
//! journal vs a naive one under a seeded storage-fault campaign.
//!
//! E7–E10 assume the journal on disk is the journal that was written.
//! E13 drops that assumption: disks tear final writes on power cuts, rot
//! bits at rest, and lose cleanly-truncated tails when the page cache
//! never reached the platter. A seeded storage campaign
//! ([`mddsm_sim::fault::random_storage_campaign`]) injects four damage
//! shapes into the journal bytes — torn final write, interior bit flip,
//! clean tail drop, truncated newest snapshot — each followed by a crash
//! and recovery. Three configurations over the same campaign:
//!
//! * **naive** — the legacy unframed journal. Damage is only caught when
//!   it happens to break the record grammar; a flipped digit or a halved
//!   snapshot can replay *successfully* into the wrong state, and every
//!   tail loss silently discards committed records;
//! * **checksummed** — per-record CRC32 framing (`v1` dialect). Every
//!   byte-level alteration is detected at replay — torn tails are
//!   truncated and journaled, interior rot is the typed
//!   [`BrokerError::JournalDamaged`] — but detection without a repair
//!   source degrades to quarantine + manual restore, and a *clean* tail
//!   drop leaves nothing for a checksum to disagree with;
//! * **self-healing** — checksummed plus a [`Standby`] mirror fed by
//!   journal shipping (E9). Recovery compares the local journal against
//!   the mirror: interior damage, acked torn tails, and clean drops all
//!   trigger [`SupervisorDecision::RepairJournal`] and an anti-entropy
//!   heal ([`recover_with_anti_entropy`]) that restores the journal
//!   byte-identically. The shipping ack runs ahead of the local fsync,
//!   which is exactly why the mirror can see a clean drop the disk hides.
//!
//! Expected on every seed: the self-healing configuration detects **100%**
//! of effective injections and loses **zero** committed updates, healed
//! journals are byte-identical to the undamaged ones, the checksummed
//! configuration detects all *byte* damage (clean drops excepted, by
//! construction), and the naive configuration measurably loses committed
//! records. CRC framing cost on the clean journal append path is measured
//! wall-clock by [`hotpath_cost`] — the only non-deterministic numbers,
//! kept in the artifact's `wall_clock` member.
//!
//! [`BrokerError::JournalDamaged`]: mddsm_broker::BrokerError::JournalDamaged
//! [`SupervisorDecision::RepairJournal`]: mddsm_broker::SupervisorDecision::RepairJournal
//! [`recover_with_anti_entropy`]: mddsm_broker::replication::recover_with_anti_entropy

use mddsm_broker::journal;
use mddsm_broker::{
    recover_with_anti_entropy, repair_journal, repair_reason, BrokerError, BrokerModelBuilder,
    GenericBroker, RestartPolicy, Standby, Supervisor, SupervisorDecision,
};
use mddsm_meta::Model;
use mddsm_sim::fault::{
    random_storage_campaign, ComponentTarget, FaultDriver, StorageCampaignConfig, StorageFault,
};
use mddsm_sim::resource::{args, Args, Outcome};
use mddsm_sim::{LatencyModel, ResourceHub, SimDuration, SimTime};

use crate::artifacts::{Artifact, Obj};
use crate::micro::HotpathCost;

/// Journal snapshot cadence (entries between snapshots). Low enough that
/// campaigns regularly damage journals that contain snapshot records.
pub const SNAPSHOT_EVERY: u64 = 16;

/// The recovery-time invariants — deliberately mild, so a silently
/// corrupted naive journal *replays* rather than being caught by luck.
pub const INVARIANTS: &[&str] = &["self.count = null or self.count >= 0"];

/// The one resource the E13 and E14 models call.
pub(crate) fn hub(seed: u64) -> ResourceHub {
    let mut h = ResourceHub::new(seed);
    h.register(
        "sim.store",
        LatencyModel::fixed_ms(3),
        SimDuration::from_millis(250),
        Box::new(|_: &str, _: &Args| Outcome::ok()),
    );
    h
}

/// The E13 broker model: a phase flip-flop plus a counter, so journals
/// carry both string and integer writes (both damage targets) and the
/// state visibly diverges when a record is silently altered.
pub fn e13_broker_model() -> Model {
    BrokerModelBuilder::new("e13")
        .call_handler("h", "op")
        .policy("phaseA", "self.phase = null or self.phase = \"a\"")
        .action(
            "h",
            "serveA",
            "sim.store",
            "put",
            &["n=$n"],
            Some("phaseA"),
            &["phase=b", "count=+1"],
        )
        .action(
            "h",
            "serveB",
            "sim.store",
            "put",
            &["n=$n"],
            None,
            &["phase=a", "count=+1"],
        )
        .build()
}

/// How a configuration journals (and whether it can heal).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Legacy unframed journal, no mirror: damage detection by luck.
    Naive,
    /// CRC32-framed journal, no mirror: detection without repair.
    Checksummed,
    /// CRC32-framed journal plus a standby mirror: detect and heal.
    SelfHealing,
}

/// Routes the campaign's storage events out of the fault driver.
#[derive(Default)]
struct StorageSink(Vec<StorageFault>);

impl ComponentTarget for StorageSink {
    fn crash_component(&mut self, _: &str) {}
    fn stall_component(&mut self, _: &str) {}
    fn torn_write(&mut self, _component: &str, bytes: u64) {
        self.0.push(StorageFault::Torn(bytes));
    }
    fn bit_flip(&mut self, _component: &str, offset: u64) {
        self.0.push(StorageFault::Flip(offset));
    }
    fn drop_unsynced(&mut self, _component: &str, records: u64) {
        self.0.push(StorageFault::Drop(records));
    }
    fn truncate_snapshot(&mut self, _component: &str) {
        self.0.push(StorageFault::TruncateSnapshot);
    }
}

/// Metrics of one configuration under one campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct E13Run {
    /// Calls issued.
    pub calls: u64,
    /// Calls that executed successfully.
    pub served: u64,
    /// Storage faults injected (all kinds).
    pub faults: u64,
    /// Injections that left the journal bytes unchanged (e.g. a snapshot
    /// truncation before any snapshot exists) — no damage to detect.
    pub harmless: u64,
    /// Torn-final-write injections.
    pub torn_faults: u64,
    /// Interior bit-flip injections.
    pub flip_faults: u64,
    /// Clean tail-drop injections.
    pub drop_faults: u64,
    /// Snapshot-truncation injections.
    pub snap_faults: u64,
    /// Effective injections recovery detected (torn-tail report, typed
    /// `JournalDamaged`, or the mirror comparison).
    pub detected: u64,
    /// Byte-altering damage that replayed without any detection — the
    /// lying-disk hazard (must be zero under CRC framing).
    pub silent_byte: u64,
    /// Clean tail drops that replayed without any detection — invisible
    /// to checksums by construction; only the mirror comparison sees them.
    pub silent_drop: u64,
    /// Recoveries that truncated a torn tail (and journaled the fact).
    pub torn_recoveries: u64,
    /// Anti-entropy repairs performed from the standby mirror.
    pub repairs: u64,
    /// `RepairJournal` decisions the supervisor derived from damage
    /// symptoms.
    pub repair_decisions: u64,
    /// Damage quarantines (detection without a standby to heal from).
    pub quarantines: u64,
    /// Operator restores from the off-site backup after an unhealable
    /// refusal (the manual toil self-healing removes).
    pub manual_restores: u64,
    /// Committed state updates lost across all recoveries (version
    /// regressions survived into the resumed run).
    pub committed_lost: u64,
    /// Every anti-entropy heal reproduced the pre-damage journal
    /// byte-identically.
    pub repairs_byte_identical: bool,
    /// Every repaired recovery reproduced the pre-damage runtime state.
    pub repairs_state_identical: bool,
    /// Final journal size (bytes).
    pub journal_bytes: u64,
    /// Final state-model version (journal LSN head).
    pub state_version: u64,
    /// Whether an independent replay of the final journal agrees with the
    /// live runtime model.
    pub replay_consistent: bool,
}

impl E13Run {
    fn new(calls: u64) -> Self {
        E13Run {
            calls,
            served: 0,
            faults: 0,
            harmless: 0,
            torn_faults: 0,
            flip_faults: 0,
            drop_faults: 0,
            snap_faults: 0,
            detected: 0,
            silent_byte: 0,
            silent_drop: 0,
            torn_recoveries: 0,
            repairs: 0,
            repair_decisions: 0,
            quarantines: 0,
            manual_restores: 0,
            committed_lost: 0,
            repairs_byte_identical: true,
            repairs_state_identical: true,
            journal_bytes: 0,
            state_version: 0,
            replay_consistent: false,
        }
    }
}

/// The pre-damage observables a recovery is judged against.
struct PreFault {
    version: u64,
    count: Option<i64>,
    phase: Option<String>,
}

impl PreFault {
    fn of(broker: &GenericBroker) -> Self {
        PreFault {
            version: broker.state().version(),
            count: broker.state().int("count"),
            phase: broker.state().str("phase").map(str::to_owned),
        }
    }

    fn matches(&self, broker: &GenericBroker) -> bool {
        broker.state().version() == self.version
            && broker.state().int("count") == self.count
            && broker.state().str("phase").map(str::to_owned) == self.phase
    }
}

/// Damages the journal, crashes the broker, and recovers it the way the
/// variant can: plain replay (naive/checksummed, with a manual backup
/// restore when replay refuses) or the anti-entropy path (self-healing).
#[allow(clippy::too_many_lines)]
fn apply_storage_fault(
    broker: GenericBroker,
    fault: StorageFault,
    model: &Model,
    run: &mut E13Run,
    standby: Option<&Standby>,
    supervisor: &mut Supervisor,
    now: SimTime,
) -> GenericBroker {
    run.faults += 1;
    let pristine = broker.journal_bytes().expect("journaling on").to_vec();
    match fault {
        StorageFault::Torn(_) => run.torn_faults += 1,
        StorageFault::Flip(_) => run.flip_faults += 1,
        StorageFault::Drop(_) => run.drop_faults += 1,
        StorageFault::TruncateSnapshot => run.snap_faults += 1,
    }
    let damaged = fault.apply(&pristine);
    if damaged == pristine {
        run.harmless += 1;
        return broker;
    }
    let pre = PreFault::of(&broker);
    let hub = broker.into_hub();

    // Pre-flight the damaged bytes so the recovery verdict is known
    // before the hub is committed to a (possibly refusing) recovery.
    let preflight = journal::replay(&damaged);

    if let Some(sb) = standby {
        // Self-healing: the damage criterion recover_with_anti_entropy
        // applies.
        if let Some(reason) = repair_reason(&damaged, &preflight, sb) {
            run.detected += 1;
            supervisor.note_journal_damage("a", &reason);
            for d in supervisor.tick(now).expect("symptoms evaluate") {
                match d {
                    SupervisorDecision::RepairJournal { .. } => run.repair_decisions += 1,
                    SupervisorDecision::Quarantine { .. } => run.quarantines += 1,
                    _ => {}
                }
            }
            // Byte-identity verdict on the heal itself, independent of the
            // recovery that follows.
            let (healed, _) = repair_journal(&damaged, sb).expect("the mirror covers the damage");
            run.repairs_byte_identical &= healed == pristine;
        } else if preflight.as_ref().is_ok_and(|r| r.torn.is_some()) {
            // A torn tail the mirror does not reach past: local truncation
            // is the whole story (unreachable while shipping keeps up).
            run.detected += 1;
        } else {
            // Effective damage that nothing saw — counted so the 100%
            // detection verdict would fail loudly.
            if matches!(fault, StorageFault::Drop(_)) {
                run.silent_drop += 1;
            } else {
                run.silent_byte += 1;
            }
        }
        let (recovered, report, repair) =
            recover_with_anti_entropy(model, hub, &damaged, INVARIANTS, &[sb])
                .expect("anti-entropy recovery succeeds");
        if repair.is_some() {
            run.repairs += 1;
            run.repairs_state_identical &= pre.matches(&recovered);
        }
        if report.torn_records_dropped > 0 {
            run.torn_recoveries += 1;
        }
        run.committed_lost += pre.version.saturating_sub(recovered.state().version());
        return recovered;
    }

    // Naive / checksummed: no mirror. Recovery either replays (possibly
    // into silently wrong state), truncates a torn tail, or refuses —
    // and a refusal can only be resolved by an operator restoring the
    // off-site backup (modelled by the pristine copy).
    match preflight {
        Ok(replayed) => {
            let (recovered, report) = GenericBroker::recover(model, hub, &damaged, INVARIANTS)
                .expect("pre-flighted journal recovers");
            if report.torn_records_dropped > 0 {
                run.detected += 1;
                run.torn_recoveries += 1;
            } else if matches!(fault, StorageFault::Drop(_)) {
                run.silent_drop += 1;
            } else {
                run.silent_byte += 1;
            }
            debug_assert_eq!(replayed.state.version(), recovered.state().version());
            run.committed_lost += pre.version.saturating_sub(recovered.state().version());
            recovered
        }
        Err(BrokerError::JournalDamaged { .. }) => {
            run.detected += 1;
            run.quarantines += 1;
            run.manual_restores += 1;
            let (recovered, _) = GenericBroker::recover(model, hub, &pristine, INVARIANTS)
                .expect("the backup replays");
            recovered
        }
        Err(e) => panic!("unexpected replay refusal: {e}"),
    }
}

/// Runs one configuration over the campaign generated by `seed`.
pub fn run_variant(seed: u64, calls: u64, period_ms: u64, variant: Variant) -> E13Run {
    let model = e13_broker_model();
    let mut broker = GenericBroker::from_model(&model, hub(seed)).expect("E13 model valid");
    broker.enable_journal_with(SNAPSHOT_EVERY, variant != Variant::Naive);

    let horizon = SimDuration::from_millis(calls * period_ms);
    let mut supervisor = Supervisor::new(
        &["a", "b"],
        RestartPolicy {
            max_restarts: 10_000,
            window: SimDuration::from_millis(1),
            stall_after: SimDuration::from_millis(4 * calls * period_ms),
        },
    );
    let mut standby: Option<Standby> = None;
    if variant == Variant::SelfHealing {
        supervisor.designate_replica_set("a", &["b"]);
        standby = Some(Standby::new("b"));
    }

    let campaign = random_storage_campaign(
        "e13",
        seed,
        &StorageCampaignConfig {
            component: "a".into(),
            horizon,
            mean_uptime: SimDuration::from_millis(900),
            ..StorageCampaignConfig::default()
        },
    );
    let mut driver = FaultDriver::from_model(&campaign).expect("campaign conforms");
    let mut sink = StorageSink::default();

    let period = SimDuration::from_millis(period_ms);
    let mut now = SimTime::ZERO;
    let mut run = E13Run::new(calls);

    for i in 0..calls {
        while let Some(te) = driver.next_at() {
            if te > now {
                break;
            }
            driver.advance_full(te, broker.hub_mut(), None, Some(&mut sink));
        }
        for fault in sink.0.drain(..) {
            broker = apply_storage_fault(
                broker,
                fault,
                &model,
                &mut run,
                standby.as_ref(),
                &mut supervisor,
                now,
            );
            // A repair replaces the journal with the healed (pristine)
            // bytes, so the mirror's received cursor still lines up;
            // recovery notes appended after it ship like any other record.
            if let Some(sb) = standby.as_mut() {
                let journal = broker.journal_bytes().expect("journaling on");
                sb.catch_up(journal, broker.epoch())
                    .expect("shipping is healthy");
            }
        }

        supervisor.heartbeat("a", now);
        supervisor.heartbeat("b", now);

        let n = i.to_string();
        match broker.call("op", &args(&[("n", &n)])) {
            Ok(r) => {
                if r.outcome.is_ok() {
                    run.served += 1;
                }
            }
            Err(e) => panic!("unexpected refusal: {e}"),
        }
        broker.advance_clock(period);
        now = now + period;
        if let Some(sb) = standby.as_mut() {
            let journal = broker.journal_bytes().expect("journaling on");
            sb.catch_up(journal, broker.epoch())
                .expect("shipping is healthy");
        }
    }

    let journal_bytes = broker.journal_bytes().expect("journaling on");
    let replayed = journal::replay(journal_bytes).expect("final journal replays");
    run.replay_consistent = broker.state().first_divergence(&replayed.state).is_none();
    run.journal_bytes = journal_bytes.len() as u64;
    run.state_version = broker.state().version();
    run
}

/// All three configurations over one campaign seed.
#[derive(Debug, Clone, PartialEq)]
pub struct E13Campaign {
    /// Campaign seed.
    pub seed: u64,
    /// Legacy unframed journal.
    pub naive: E13Run,
    /// CRC32-framed journal, no mirror.
    pub checksummed: E13Run,
    /// CRC32-framed journal plus standby anti-entropy.
    pub self_healing: E13Run,
}

/// Runs the three configurations over the campaign generated by `seed`.
pub fn run_campaign(seed: u64, calls: u64, period_ms: u64) -> E13Campaign {
    E13Campaign {
        seed,
        naive: run_variant(seed, calls, period_ms, Variant::Naive),
        checksummed: run_variant(seed, calls, period_ms, Variant::Checksummed),
        self_healing: run_variant(seed, calls, period_ms, Variant::SelfHealing),
    }
}

/// The full experiment: three configurations across several seeded
/// campaigns, with the claims checked across all of them.
#[derive(Debug, Clone, PartialEq)]
pub struct E13Result {
    /// Campaign seeds, in run order.
    pub seeds: Vec<u64>,
    /// Calls per configuration per campaign.
    pub calls: u64,
    /// Virtual milliseconds between calls.
    pub period_ms: u64,
    /// Per-seed results.
    pub campaigns: Vec<E13Campaign>,
    /// The naive journal lost committed updates or replayed silently
    /// corrupted bytes on some seed (the hazard framing removes).
    pub naive_loss_observed: bool,
    /// CRC framing detected every byte-altering injection on every seed
    /// (clean drops excepted, by construction).
    pub checksummed_detects_byte_damage: bool,
    /// The self-healing configuration detected every effective injection
    /// on every seed — including clean drops, via the mirror comparison.
    pub self_healing_detected_all: bool,
    /// Zero committed updates lost by the self-healing configuration on
    /// every seed.
    pub self_healing_zero_loss: bool,
    /// Every anti-entropy heal reproduced the pre-damage journal and
    /// state exactly, on every seed.
    pub repairs_byte_identical: bool,
    /// Every final journal replays to the live runtime model, in every
    /// configuration, on every seed.
    pub replays_consistent: bool,
    /// Wall-clock CRC-framing cost on the clean journal append path
    /// (measured separately by [`hotpath_cost`], `None` in deterministic
    /// runs).
    pub wall_clock: Option<HotpathCost>,
}

/// Runs E13 across `seeds`. Deterministic in the seeds; the wall-clock
/// framing overhead is *not* measured here (see [`hotpath_cost`]).
pub fn run(seeds: &[u64], calls: u64, period_ms: u64) -> E13Result {
    let campaigns: Vec<E13Campaign> = seeds
        .iter()
        .map(|&s| run_campaign(s, calls, period_ms))
        .collect();
    let naive_loss_observed = campaigns
        .iter()
        .any(|c| c.naive.committed_lost > 0 || c.naive.silent_byte > 0);
    let checksummed_detects_byte_damage = campaigns.iter().all(|c| c.checksummed.silent_byte == 0);
    let self_healing_detected_all = campaigns.iter().all(|c| {
        c.self_healing.silent_byte == 0
            && c.self_healing.silent_drop == 0
            && c.self_healing.detected == c.self_healing.faults - c.self_healing.harmless
    });
    let self_healing_zero_loss = campaigns.iter().all(|c| c.self_healing.committed_lost == 0);
    let repairs_byte_identical = campaigns
        .iter()
        .all(|c| c.self_healing.repairs_byte_identical && c.self_healing.repairs_state_identical);
    let replays_consistent = campaigns.iter().all(|c| {
        c.naive.replay_consistent
            && c.checksummed.replay_consistent
            && c.self_healing.replay_consistent
    });
    E13Result {
        seeds: seeds.to_vec(),
        calls,
        period_ms,
        campaigns,
        naive_loss_observed,
        checksummed_detects_byte_damage,
        self_healing_detected_all,
        self_healing_zero_loss,
        repairs_byte_identical,
        replays_consistent,
        wall_clock: None,
    }
}

/// Wall-clock cost of CRC32 framing: the shared
/// [`crate::micro::hotpath_cost`] probe over clean runs (no faults),
/// unframed (base) vs framed (variant), same model and snapshot cadence.
pub fn hotpath_cost(calls: u64, reps: u64) -> HotpathCost {
    let model = e13_broker_model();
    crate::micro::hotpath_cost(calls, reps, |framed, seed| {
        let mut b = GenericBroker::from_model(&model, hub(seed)).expect("E13 model valid");
        b.enable_journal_with(SNAPSHOT_EVERY, framed);
        b
    })
}

fn fields(r: &E13Run) -> Obj {
    crate::obj! {
        "calls": r.calls, "served": r.served, "faults": r.faults, "harmless": r.harmless,
        "torn_faults": r.torn_faults, "flip_faults": r.flip_faults,
        "drop_faults": r.drop_faults, "snap_faults": r.snap_faults, "detected": r.detected,
        "silent_byte": r.silent_byte, "silent_drop": r.silent_drop,
        "torn_recoveries": r.torn_recoveries, "repairs": r.repairs,
        "repair_decisions": r.repair_decisions, "quarantines": r.quarantines,
        "manual_restores": r.manual_restores, "committed_lost": r.committed_lost,
        "repairs_byte_identical": r.repairs_byte_identical,
        "repairs_state_identical": r.repairs_state_identical,
        "journal_bytes": r.journal_bytes, "state_version": r.state_version,
        "replay_consistent": r.replay_consistent,
    }
}

impl E13Result {
    /// The `BENCH_e13.json` artifact. Deterministic in the seeds except
    /// for `wall_clock`, when measured.
    pub fn artifact(&self) -> Artifact {
        let campaigns: Vec<Obj> = self
            .campaigns
            .iter()
            .map(|c| {
                crate::obj! {
                    "seed": c.seed, "naive": fields(&c.naive),
                    "checksummed": fields(&c.checksummed),
                    "self_healing": fields(&c.self_healing),
                }
            })
            .collect();
        Artifact::new(
            "e13",
            crate::obj! {
                "seed": self.seeds.first().copied().unwrap_or(0),
                "seeds": self.seeds.clone(),
                "calls": self.calls,
                "period_ms": self.period_ms,
                "snapshot_every": SNAPSHOT_EVERY,
                "naive_loss_observed": self.naive_loss_observed,
                "checksummed_detects_byte_damage": self.checksummed_detects_byte_damage,
                "self_healing_detected_all": self.self_healing_detected_all,
                "self_healing_zero_loss": self.self_healing_zero_loss,
                "repairs_byte_identical": self.repairs_byte_identical,
                "replays_consistent": self.replays_consistent,
                "wall_clock": self.wall_clock.map(|c| c.fields()),
                "campaigns": campaigns,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_healing_detects_everything_and_loses_nothing() {
        let r = run(&[1, 3, 7], 400, 20);
        for c in &r.campaigns {
            let sh = &c.self_healing;
            assert!(sh.faults > 0, "seed {}: campaign was empty", c.seed);
            assert_eq!(sh.silent_byte, 0, "seed {}", c.seed);
            assert_eq!(sh.silent_drop, 0, "seed {}", c.seed);
            assert_eq!(sh.committed_lost, 0, "seed {}", c.seed);
            assert!(sh.repairs_byte_identical, "seed {}", c.seed);
            assert!(sh.repairs_state_identical, "seed {}", c.seed);
            assert_eq!(
                sh.repair_decisions, sh.repairs,
                "seed {}: every repair rides a supervisor decision",
                c.seed
            );
            assert_eq!(
                sh.quarantines, 0,
                "seed {}: the standby was reachable",
                c.seed
            );
            assert_eq!(sh.manual_restores, 0, "seed {}", c.seed);
        }
        assert!(r.self_healing_detected_all);
        assert!(r.self_healing_zero_loss);
        assert!(r.repairs_byte_identical);
        assert!(r.replays_consistent);
    }

    #[test]
    fn checksums_catch_byte_damage_but_not_clean_drops() {
        let r = run(&[1, 3, 7], 400, 20);
        assert!(r.checksummed_detects_byte_damage);
        let (mut drops, mut silent_drops) = (0u64, 0u64);
        for c in &r.campaigns {
            assert_eq!(c.checksummed.silent_byte, 0, "seed {}", c.seed);
            drops += c.checksummed.drop_faults;
            silent_drops += c.checksummed.silent_drop;
        }
        // The detection gradient: checksums alone are blind to clean tail
        // drops — that is exactly what the mirror comparison adds.
        assert!(drops > 0, "no clean drops were injected at these seeds");
        assert!(silent_drops > 0, "a clean drop should evade the checksum");
    }

    #[test]
    fn naive_journals_lose_committed_records() {
        let r = run(&[1, 3, 7], 400, 20);
        assert!(r.naive_loss_observed);
        let lost: u64 = r.campaigns.iter().map(|c| c.naive.committed_lost).sum();
        assert!(
            lost > 0,
            "storage faults must cost the naive journal records"
        );
        // Self-healing over the identical campaigns loses nothing.
        let healed_lost: u64 = r
            .campaigns
            .iter()
            .map(|c| c.self_healing.committed_lost)
            .sum();
        assert_eq!(healed_lost, 0);
    }

    #[test]
    fn detection_without_a_mirror_degrades_to_manual_restores() {
        let r = run(&[1, 3, 7], 400, 20);
        let restores: u64 = r
            .campaigns
            .iter()
            .map(|c| c.checksummed.manual_restores)
            .sum();
        assert!(
            restores > 0,
            "interior damage should force operator intervention without a standby"
        );
        for c in &r.campaigns {
            assert_eq!(c.checksummed.manual_restores, c.checksummed.quarantines);
            assert_eq!(c.self_healing.manual_restores, 0, "seed {}", c.seed);
        }
    }

    #[test]
    fn repeated_runs_are_byte_identical() {
        let a = run(&[7], 200, 20);
        let b = run(&[7], 200, 20);
        assert_eq!(a, b);
        assert_eq!(a.artifact().render(), b.artifact().render());
    }
}
