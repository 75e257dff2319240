//! E14 — live model evolution: hot upgrade of runtime models under
//! traffic, vs a stop-the-world restart baseline.
//!
//! E7–E13 hardened the broker against crashes, partitions, corruption,
//! and lying disks — but assumed the *model* never changes while the
//! broker serves. E14 drops that assumption: a seeded campaign
//! ([`mddsm_sim::fault::random_upgrade_campaign`]) pushes candidate
//! models at a serving broker while component crashes, state corruptions,
//! torn writes, and dropped unsynced tails rage around the upgrades. Two
//! deployment styles over identical campaigns and call schedules:
//!
//! * **live** — the staged [`LiveUpgrade`] protocol: gate through the
//!   static analyzer and delta classifier, shadow the candidate's
//!   monitors and policies against real calls, cut over atomically
//!   through one journaled `Upgrade` record, then watch a probation
//!   window in which a monitor trip raises
//!   [`SupervisorDecision::RollbackUpgrade`] and rolls the model and the
//!   migrated keys back. Traffic is served throughout;
//! * **stop-the-world** — the classic baseline: the same cutover record
//!   (so journals stay comparable), but no shadow and no probation, and
//!   every upgrade restarts the process — calls arriving during the
//!   restart window are refused.
//!
//! Expected on every seed: both variants end every campaign on *one*
//! consistent committed model version (the journal, the live state, and
//! the standby mirror agree; a crash mid-upgrade recovers to pure
//! old-model or pure new-model state via [`recover_versioned`], never a
//! hybrid); zero committed updates are lost (storage damage heals from
//! the E13 mirror); every crash recovery is byte-identical to an
//! independent replay; and the live variant's goodput strictly beats the
//! stop-the-world baseline's.
//!
//! [`LiveUpgrade`]: mddsm_broker::LiveUpgrade
//! [`SupervisorDecision::RollbackUpgrade`]: mddsm_broker::SupervisorDecision::RollbackUpgrade
//! [`recover_versioned`]: mddsm_broker::recover_versioned

use mddsm_broker::journal;
use mddsm_broker::{
    recover_versioned, repair_journal, BrokerError, BrokerModelBuilder, GenericBroker, LiveUpgrade,
    RestartPolicy, Standby, Supervisor, SupervisorDecision, UpgradePhase,
};
use mddsm_meta::Model;
use mddsm_sim::fault::{
    drop_tail_records, random_upgrade_campaign, tear_tail, ComponentTarget, FaultDriver,
    UpgradeCampaignConfig,
};
use mddsm_sim::resource::args;
use mddsm_sim::{SimDuration, SimTime};

use crate::artifacts::{fixed, Artifact, Obj};
use crate::e13::hub;

/// Journal snapshot cadence (entries between snapshots).
pub const SNAPSHOT_EVERY: u64 = 24;

/// Real calls the shadow phase must observe before a cutover.
pub const SHADOW_CALLS: u64 = 6;

/// Monitor + policy divergences tolerated by a cutover. One is expected
/// by construction: a candidate monitor over a not-yet-migrated key trips
/// once in shadow (the migration seeds the key at cutover).
pub const MAX_DIVERGENCES: u64 = 1;

/// Consecutive healthy probation ticks that commit a live upgrade.
pub const PROBATION_TICKS: u64 = 8;

/// Virtual downtime charged per crash recovery (both variants) and per
/// stop-the-world upgrade restart (that variant only).
pub const RESTART_US: u64 = 80_000;

/// Recovery-time invariants, shared by every model version.
pub const INVARIANTS: &[&str] = &["self.count = null or self.count >= 0"];

fn base(name: &str) -> BrokerModelBuilder {
    BrokerModelBuilder::new(name)
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
        .monitor("count_nonneg", "self.count = null or self.count >= 0")
        .bind_resource("sim.store", "sim.store")
}

/// The pre-evolution model (version 1): the E13-shaped flip-flop counter
/// plus one armed monitor.
pub fn e14_model_v1() -> Model {
    base("e14").build()
}

/// Candidate `v2`: same serving interface, plus a service-tier cell
/// seeded by a declared migration and watched by a new monitor.
pub fn e14_model_v2() -> Model {
    base("e14")
        .monitor(
            "tier_known",
            "self.svc_tier = \"gold\" or self.svc_tier = \"silver\"",
        )
        .migration("seed-tier", "svc_tier", "gold")
        .build()
}

/// Candidate `v3`: drops the tier cell again (monitor retired, key
/// unset by a declared migration) and adds an integer service level.
pub fn e14_model_v3() -> Model {
    base("e14")
        .monitor("level_pos", "self.svc_level = null or self.svc_level >= 1")
        .migration("drop-tier", "svc_tier", "")
        .migration("seed-level", "svc_level", "3")
        .build()
}

/// How a variant deploys model upgrades.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Staged hot upgrade: shadow, journaled cutover, probation,
    /// monitor-triggered rollback. Serves throughout.
    Live,
    /// Immediate cutover plus a restart window during which every call
    /// is refused. No shadow, no probation, no automatic rollback.
    StopTheWorld,
}

/// One campaign event as delivered by the fault driver.
#[derive(Debug, Clone)]
enum CampaignEvent {
    Upgrade(String),
    Crash,
    Corrupt(String, String),
    Torn(u64),
    Drop(u64),
}

/// Routes the campaign's events out of the fault driver.
#[derive(Default)]
struct EventSink(Vec<CampaignEvent>);

impl ComponentTarget for EventSink {
    fn crash_component(&mut self, _: &str) {
        self.0.push(CampaignEvent::Crash);
    }
    fn stall_component(&mut self, _: &str) {}
    fn corrupt_state(&mut self, _component: &str, key: &str, value: &str) {
        self.0
            .push(CampaignEvent::Corrupt(key.to_owned(), value.to_owned()));
    }
    fn torn_write(&mut self, _component: &str, bytes: u64) {
        self.0.push(CampaignEvent::Torn(bytes));
    }
    fn drop_unsynced(&mut self, _component: &str, records: u64) {
        self.0.push(CampaignEvent::Drop(records));
    }
    fn begin_upgrade(&mut self, _component: &str, candidate: &str) {
        self.0.push(CampaignEvent::Upgrade(candidate.to_owned()));
    }
}

/// Metrics of one variant under one campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct E14Run {
    /// Calls issued.
    pub calls: u64,
    /// Calls that executed successfully.
    pub served: u64,
    /// Calls refused because the process was down (restart window).
    pub dropped: u64,
    /// Calls refused by a latched monitor (cleared by rollback).
    pub refused_calls: u64,
    /// Upgrade pushes delivered by the campaign.
    pub upgrades_pushed: u64,
    /// Pushes skipped (an upgrade already in flight, or the candidate is
    /// already the live model).
    pub upgrades_skipped: u64,
    /// Pushes refused at the gate (typed `UpgradeRefused`).
    pub gate_refused: u64,
    /// Cutovers refused after shadowing (divergence or latch).
    pub shadow_refused: u64,
    /// Journaled cutovers performed.
    pub cutovers: u64,
    /// Upgrades that committed (probation passed, or stop-the-world).
    pub committed: u64,
    /// Probation regressions rolled back via the supervisor.
    pub rolled_back: u64,
    /// Shadow-phase upgrades aborted by a crash (state untouched).
    pub aborted_by_crash: u64,
    /// Probation-phase upgrades force-committed by a crash (the journal
    /// had already pinned the new version).
    pub crash_committed: u64,
    /// Component crashes survived.
    pub crashes: u64,
    /// State corruptions injected.
    pub corruptions: u64,
    /// Monitor trips observed (from corruption or bad state).
    pub monitor_trips: u64,
    /// Quarantine recoveries via snapshot rollback (outside probation).
    pub snapshot_rollbacks: u64,
    /// Storage faults injected (torn writes + dropped tails).
    pub storage_faults: u64,
    /// Storage injections that left the journal unchanged.
    pub harmless: u64,
    /// Committed state updates lost across all recoveries.
    pub committed_lost: u64,
    /// Every anti-entropy heal reproduced the pre-damage journal bytes.
    pub repairs_byte_identical: bool,
    /// Every crash recovery matched an independent replay byte-for-byte.
    pub replays_byte_identical: bool,
    /// Final model version (journal-pinned).
    pub final_version: u64,
    /// Journal, live state, and standby mirror all agree at the end.
    pub consistent_final: bool,
    /// Served fraction of issued calls.
    pub goodput: f64,
    /// 99th-percentile served-call latency (virtual µs).
    pub p99_us: u64,
}

impl E14Run {
    fn new(calls: u64) -> Self {
        E14Run {
            calls,
            served: 0,
            dropped: 0,
            refused_calls: 0,
            upgrades_pushed: 0,
            upgrades_skipped: 0,
            gate_refused: 0,
            shadow_refused: 0,
            cutovers: 0,
            committed: 0,
            rolled_back: 0,
            aborted_by_crash: 0,
            crash_committed: 0,
            crashes: 0,
            corruptions: 0,
            monitor_trips: 0,
            snapshot_rollbacks: 0,
            storage_faults: 0,
            harmless: 0,
            committed_lost: 0,
            repairs_byte_identical: true,
            replays_byte_identical: true,
            final_version: 0,
            consistent_final: false,
            goodput: 0.0,
            p99_us: 0,
        }
    }
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// The named model-version table built as cutovers assign versions.
struct VersionTable(Vec<(u64, String, Model)>);

impl VersionTable {
    fn refs(&self) -> Vec<(u64, &Model)> {
        self.0.iter().map(|(v, _, m)| (*v, m)).collect()
    }

    fn by_version(&self, version: u64) -> &(u64, String, Model) {
        self.0
            .iter()
            .find(|(v, _, _)| *v == version)
            .expect("journal pins a known version")
    }
}

/// Crashes `broker` and recovers it through the versioned path, updating
/// the run's loss and byte-identity verdicts. Returns the recovered
/// broker and the version it resolved to.
fn crash_and_recover(
    broker: GenericBroker,
    bytes: &[u8],
    table: &VersionTable,
    run: &mut E14Run,
) -> (GenericBroker, u64) {
    let pre_version = broker.state().version();
    let hub = broker.into_hub();
    let (recovered, _) = recover_versioned(&table.refs(), hub, bytes, INVARIANTS)
        .expect("versioned recovery succeeds");
    // Never-hybrid: an independent replay of the same bytes must agree
    // with the recovered instance byte-for-byte, model version included.
    let replayed = journal::replay(bytes).expect("journal replays");
    run.replays_byte_identical &= replayed.state.snapshot() == recovered.state().snapshot()
        && replayed.model_version == recovered.model_version();
    run.committed_lost += pre_version.saturating_sub(recovered.state().version());
    let v = recovered.model_version();
    (recovered, v)
}

/// Runs one variant over the campaign generated by `seed`.
#[allow(clippy::too_many_lines)]
pub fn run_variant(seed: u64, calls: u64, period_ms: u64, variant: Variant) -> E14Run {
    let v1 = e14_model_v1();
    let candidates: Vec<(String, Model)> = vec![
        ("v2".to_owned(), e14_model_v2()),
        ("v3".to_owned(), e14_model_v3()),
    ];
    let mut table = VersionTable(vec![(1, "v1".to_owned(), v1.clone())]);
    let mut live_name = "v1".to_owned();

    let mut broker = GenericBroker::from_model(&v1, hub(seed)).expect("E14 model valid");
    broker.enable_journal_with(SNAPSHOT_EVERY, true);

    let mut supervisor = Supervisor::new(
        &["a"],
        RestartPolicy {
            max_restarts: 10_000,
            window: SimDuration::from_millis(1),
            stall_after: SimDuration::from_millis(4 * calls * period_ms),
        },
    );
    let mut standby = Standby::new("b");

    let horizon = SimDuration::from_millis(calls * period_ms);
    let campaign = random_upgrade_campaign(
        "e14",
        seed,
        &UpgradeCampaignConfig {
            component: "a".into(),
            candidates: candidates.iter().map(|(n, _)| n.clone()).collect(),
            corruptions: vec![
                ("count".into(), "-5".into()),
                ("svc_tier".into(), "mystery".into()),
            ],
            horizon,
            mean_gap: SimDuration::from_millis(600),
            ..UpgradeCampaignConfig::default()
        },
    );
    let mut driver = FaultDriver::from_model(&campaign).expect("campaign conforms");
    let mut sink = EventSink::default();

    let period = SimDuration::from_millis(period_ms);
    let mut now = SimTime::ZERO;
    let mut busy_until = SimTime::ZERO;
    let mut run = E14Run::new(calls);
    let mut upgrade: Option<(String, LiveUpgrade)> = None;
    let mut latencies: Vec<u64> = Vec::with_capacity(calls as usize);

    for i in 0..calls {
        while let Some(te) = driver.next_at() {
            if te > now {
                break;
            }
            driver.advance_full(te, broker.hub_mut(), None, Some(&mut sink));
        }
        for ev in sink.0.drain(..) {
            match ev {
                CampaignEvent::Upgrade(candidate) => {
                    run.upgrades_pushed += 1;
                    if upgrade.is_some() || candidate == live_name {
                        run.upgrades_skipped += 1;
                        continue;
                    }
                    let (_, cand_model) = candidates
                        .iter()
                        .find(|(n, _)| *n == candidate)
                        .expect("campaign names a known candidate");
                    let old = table.by_version(broker.model_version()).2.clone();
                    let target = if variant == Variant::Live {
                        PROBATION_TICKS
                    } else {
                        0
                    };
                    match LiveUpgrade::prepare(&broker, &old, cand_model, &candidate, target) {
                        Err(BrokerError::UpgradeRefused { .. }) => run.gate_refused += 1,
                        Err(e) => panic!("unexpected gate failure: {e}"),
                        Ok(mut up) => {
                            if variant == Variant::Live {
                                upgrade = Some((candidate.clone(), up));
                            } else {
                                // Stop-the-world: no shadow evidence, no
                                // probation — cut over immediately and
                                // charge the restart window.
                                match up.cutover(&mut broker, 0, u64::MAX) {
                                    Err(BrokerError::UpgradeRefused { .. }) => {
                                        run.shadow_refused += 1;
                                    }
                                    Err(e) => panic!("unexpected cutover failure: {e}"),
                                    Ok(_) => {
                                        run.cutovers += 1;
                                        run.committed += 1;
                                        table.0.push((
                                            up.new_version(),
                                            candidate.clone(),
                                            cand_model.clone(),
                                        ));
                                        live_name = candidate.clone();
                                        up.probation_tick(&broker, &mut supervisor, "a");
                                        busy_until = now + SimDuration::from_micros(RESTART_US);
                                    }
                                }
                            }
                        }
                    }
                }
                CampaignEvent::Crash => {
                    run.crashes += 1;
                    let bytes = broker.journal_bytes().expect("journaling on").to_vec();
                    let (recovered, v) = crash_and_recover(broker, &bytes, &table, &mut run);
                    broker = recovered;
                    live_name = table.by_version(v).1.clone();
                    busy_until = now + SimDuration::from_micros(RESTART_US);
                    // An in-flight upgrade dies with the process: a
                    // shadow-phase one leaves no trace (pure old model);
                    // a probation-phase one was already journaled (pure
                    // new model) and is committed by the recovery.
                    match upgrade.take().map(|(_, u)| u.phase()) {
                        Some(UpgradePhase::Shadow) => run.aborted_by_crash += 1,
                        Some(UpgradePhase::Probation) => run.crash_committed += 1,
                        _ => {}
                    }
                }
                CampaignEvent::Corrupt(key, value) => {
                    run.corruptions += 1;
                    let trips = broker.corrupt_state(&key, &value);
                    if trips.is_empty() {
                        // No monitor watches the poisoned key under the
                        // current model: silent corruption. Still ship the
                        // journaled write so the mirror stays a prefix.
                        let journal = broker.journal_bytes().expect("journaling on");
                        standby
                            .catch_up(journal, broker.epoch())
                            .expect("shipping is healthy");
                        continue;
                    }
                    run.monitor_trips += trips.len() as u64;
                    let in_probation = upgrade
                        .as_ref()
                        .is_some_and(|(_, u)| u.phase() == UpgradePhase::Probation);
                    if in_probation && variant == Variant::Live {
                        let (_, up) = upgrade.as_mut().expect("probation checked");
                        up.probation_tick(&broker, &mut supervisor, "a");
                        let decided = supervisor
                            .tick(now)
                            .expect("symptoms evaluate")
                            .into_iter()
                            .any(|d| matches!(d, SupervisorDecision::RollbackUpgrade { .. }));
                        assert!(decided, "a probation trip must decide a rollback");
                        // Heal the poisoned state first (clearing the
                        // latch), so the upgrade rollback's bracketing
                        // snapshots capture a healthy pre-image instead
                        // of re-freezing the corruption.
                        broker
                            .rollback_to_snapshot()
                            .expect("a trip-free snapshot exists");
                        run.snapshot_rollbacks += 1;
                        up.rollback(&mut broker, "monitor tripped in probation")
                            .expect("rollback succeeds");
                        let v = broker.model_version();
                        live_name = table.by_version(v).1.clone();
                        run.rolled_back += 1;
                        upgrade = None;
                        // The rollback restored the monitor memory; the
                        // corrupted *domain* key may still violate — let
                        // the quarantine path below catch a re-trip.
                    } else {
                        // No probation window to blame: quarantine and
                        // roll the state back to the newest trip-free
                        // snapshot (the E10 path).
                        broker
                            .rollback_to_snapshot()
                            .expect("a trip-free snapshot exists");
                        run.snapshot_rollbacks += 1;
                    }
                }
                CampaignEvent::Torn(n) | CampaignEvent::Drop(n) => {
                    run.storage_faults += 1;
                    let pristine = broker.journal_bytes().expect("journaling on").to_vec();
                    let damaged = match ev {
                        CampaignEvent::Torn(_) => tear_tail(&pristine, n),
                        _ => drop_tail_records(&pristine, n),
                    };
                    if damaged == pristine {
                        run.harmless += 1;
                        continue;
                    }
                    // The power cut also crashed the process. The E13
                    // mirror heals the journal before the versioned
                    // recovery replays it.
                    let (healed, _) =
                        repair_journal(&damaged, &standby).expect("the mirror covers the damage");
                    run.repairs_byte_identical &= healed == pristine;
                    let (recovered, v) = crash_and_recover(broker, &healed, &table, &mut run);
                    broker = recovered;
                    live_name = table.by_version(v).1.clone();
                    busy_until = now + SimDuration::from_micros(RESTART_US);
                    match upgrade.take().map(|(_, u)| u.phase()) {
                        Some(UpgradePhase::Shadow) => run.aborted_by_crash += 1,
                        Some(UpgradePhase::Probation) => run.crash_committed += 1,
                        _ => {}
                    }
                }
            }
            let journal = broker.journal_bytes().expect("journaling on");
            standby
                .catch_up(journal, broker.epoch())
                .expect("shipping is healthy");
        }

        supervisor.heartbeat("a", now);

        if now < busy_until {
            // The process is restarting: the connection is refused.
            run.dropped += 1;
        } else {
            let n = i.to_string();
            match broker.call("op", &args(&[("n", &n)])) {
                Ok(r) => {
                    if r.outcome.is_ok() {
                        run.served += 1;
                        latencies.push(r.cost.as_micros());
                    }
                }
                Err(BrokerError::MonitorTripped { .. }) => {
                    run.refused_calls += 1;
                    let in_probation = upgrade
                        .as_ref()
                        .is_some_and(|(_, u)| u.phase() == UpgradePhase::Probation);
                    if in_probation {
                        // The probation window takes the blame: heal the
                        // state first (clearing the latch), then roll the
                        // upgrade back.
                        let (_, up) = upgrade.as_mut().expect("probation checked");
                        up.probation_tick(&broker, &mut supervisor, "a");
                        let _ = supervisor.tick(now).expect("symptoms evaluate");
                        broker
                            .rollback_to_snapshot()
                            .expect("a trip-free snapshot exists");
                        run.snapshot_rollbacks += 1;
                        up.rollback(&mut broker, "monitor refused traffic in probation")
                            .expect("rollback succeeds");
                        live_name = table.by_version(broker.model_version()).1.clone();
                        run.rolled_back += 1;
                        upgrade = None;
                    } else {
                        // A restored-but-still-bad domain value re-tripped
                        // on the serving path: quarantine and restore
                        // service from the newest trip-free snapshot.
                        broker
                            .rollback_to_snapshot()
                            .expect("a trip-free snapshot exists");
                        run.snapshot_rollbacks += 1;
                    }
                }
                Err(e) => panic!("unexpected refusal: {e}"),
            }

            // Drive the in-flight upgrade on the live path.
            if let Some((name, mut up)) = upgrade.take() {
                match up.phase() {
                    UpgradePhase::Shadow => {
                        up.observe_call(&broker);
                        if up.shadow_calls() < SHADOW_CALLS {
                            upgrade = Some((name, up));
                        } else {
                            match up.cutover(&mut broker, SHADOW_CALLS, MAX_DIVERGENCES) {
                                Ok(_) => {
                                    run.cutovers += 1;
                                    let model = candidates
                                        .iter()
                                        .find(|(n, _)| *n == name)
                                        .expect("candidate is known")
                                        .1
                                        .clone();
                                    table.0.push((up.new_version(), name.clone(), model));
                                    live_name = name.clone();
                                    upgrade = Some((name, up));
                                }
                                Err(BrokerError::UpgradeRefused { .. }) => {
                                    // Shadow evidence vetoed the cutover:
                                    // the live model never changed.
                                    run.shadow_refused += 1;
                                }
                                Err(e) => panic!("unexpected cutover failure: {e}"),
                            }
                        }
                    }
                    UpgradePhase::Probation => {
                        let phase = up.probation_tick(&broker, &mut supervisor, "a");
                        let rollback = supervisor
                            .tick(now)
                            .expect("symptoms evaluate")
                            .into_iter()
                            .any(|d| matches!(d, SupervisorDecision::RollbackUpgrade { .. }));
                        if rollback {
                            up.rollback(&mut broker, "probation regression")
                                .expect("rollback succeeds");
                            live_name = table.by_version(broker.model_version()).1.clone();
                            run.rolled_back += 1;
                        } else if phase == UpgradePhase::Committed {
                            run.committed += 1;
                        } else {
                            upgrade = Some((name, up));
                        }
                    }
                    _ => {}
                }
            }
        }

        broker.advance_clock(period);
        now = now + period;
        let journal = broker.journal_bytes().expect("journaling on");
        standby
            .catch_up(journal, broker.epoch())
            .expect("shipping is healthy");
    }

    // An upgrade still in flight at the horizon: a shadow phase leaves no
    // trace; a probation phase has already journaled its version and is
    // committed by fiat (it regressed nothing so far).
    if let Some((_, up)) = upgrade.take() {
        if up.phase() == UpgradePhase::Probation {
            run.committed += 1;
        }
    }

    let bytes = broker.journal_bytes().expect("journaling on");
    let replayed = journal::replay(bytes).expect("final journal replays");
    run.final_version = broker.model_version();
    run.consistent_final = replayed.model_version == broker.model_version()
        && replayed.state.snapshot() == broker.state().snapshot()
        && standby.model_version() == broker.model_version();
    run.goodput = run.served as f64 / run.calls.max(1) as f64;
    latencies.sort_unstable();
    run.p99_us = percentile(&latencies, 0.99);
    run
}

/// Both variants over one campaign seed.
#[derive(Debug, Clone, PartialEq)]
pub struct E14Campaign {
    /// Campaign seed.
    pub seed: u64,
    /// Staged hot-upgrade protocol.
    pub live: E14Run,
    /// Stop-the-world restart baseline.
    pub stw: E14Run,
}

/// The full experiment: both variants across several seeded campaigns,
/// with the claims checked across all of them.
#[derive(Debug, Clone, PartialEq)]
pub struct E14Result {
    /// Campaign seeds, in run order.
    pub seeds: Vec<u64>,
    /// Calls per variant per campaign.
    pub calls: u64,
    /// Virtual milliseconds between calls.
    pub period_ms: u64,
    /// Per-seed results.
    pub campaigns: Vec<E14Campaign>,
    /// Every campaign ended on one consistent committed version, in both
    /// variants: journal, live state, and standby mirror agree, and every
    /// crash recovery resolved to a pure version.
    pub all_consistent: bool,
    /// Zero committed updates lost, in both variants, on every seed.
    pub zero_committed_lost: bool,
    /// Every crash recovery was byte-identical to an independent replay,
    /// and every anti-entropy heal reproduced the pre-damage journal.
    pub replays_byte_identical: bool,
    /// The live protocol's goodput strictly exceeds stop-the-world's,
    /// summed across seeds (and is never worse on any seed).
    pub live_goodput_wins: bool,
    /// Aggregate goodput of the live variant.
    pub goodput_live: f64,
    /// Aggregate goodput of the stop-the-world variant.
    pub goodput_stw: f64,
}

/// Runs E14 across `seeds`. Deterministic in the seeds: every number in
/// the result is derived from virtual time.
pub fn run(seeds: &[u64], calls: u64, period_ms: u64) -> E14Result {
    let campaigns: Vec<E14Campaign> = seeds
        .iter()
        .map(|&s| E14Campaign {
            seed: s,
            live: run_variant(s, calls, period_ms, Variant::Live),
            stw: run_variant(s, calls, period_ms, Variant::StopTheWorld),
        })
        .collect();
    let all_consistent = campaigns
        .iter()
        .all(|c| c.live.consistent_final && c.stw.consistent_final);
    let zero_committed_lost = campaigns
        .iter()
        .all(|c| c.live.committed_lost == 0 && c.stw.committed_lost == 0);
    let replays_byte_identical = campaigns.iter().all(|c| {
        c.live.replays_byte_identical
            && c.stw.replays_byte_identical
            && c.live.repairs_byte_identical
            && c.stw.repairs_byte_identical
    });
    let served_live: u64 = campaigns.iter().map(|c| c.live.served).sum();
    let served_stw: u64 = campaigns.iter().map(|c| c.stw.served).sum();
    let total: u64 = campaigns.iter().map(|c| c.live.calls).sum();
    let live_goodput_wins =
        served_live > served_stw && campaigns.iter().all(|c| c.live.served >= c.stw.served);
    E14Result {
        seeds: seeds.to_vec(),
        calls,
        period_ms,
        campaigns,
        all_consistent,
        zero_committed_lost,
        replays_byte_identical,
        live_goodput_wins,
        goodput_live: served_live as f64 / total.max(1) as f64,
        goodput_stw: served_stw as f64 / total.max(1) as f64,
    }
}

fn fields(r: &E14Run) -> Obj {
    crate::obj! {
        "calls": r.calls, "served": r.served, "dropped": r.dropped,
        "refused_calls": r.refused_calls, "upgrades_pushed": r.upgrades_pushed,
        "upgrades_skipped": r.upgrades_skipped, "gate_refused": r.gate_refused,
        "shadow_refused": r.shadow_refused, "cutovers": r.cutovers, "committed": r.committed,
        "rolled_back": r.rolled_back, "aborted_by_crash": r.aborted_by_crash,
        "crash_committed": r.crash_committed, "crashes": r.crashes,
        "corruptions": r.corruptions, "monitor_trips": r.monitor_trips,
        "snapshot_rollbacks": r.snapshot_rollbacks, "storage_faults": r.storage_faults,
        "harmless": r.harmless, "committed_lost": r.committed_lost,
        "repairs_byte_identical": r.repairs_byte_identical,
        "replays_byte_identical": r.replays_byte_identical, "final_version": r.final_version,
        "consistent_final": r.consistent_final, "goodput": fixed(r.goodput, 4),
        "p99_us": r.p99_us,
    }
}

impl E14Result {
    /// The `BENCH_e14.json` artifact. Deterministic in the seeds.
    pub fn artifact(&self) -> Artifact {
        let campaigns: Vec<Obj> = self
            .campaigns
            .iter()
            .map(|c| crate::obj! { "seed": c.seed, "live": fields(&c.live), "stw": fields(&c.stw) })
            .collect();
        Artifact::new(
            "e14",
            crate::obj! {
                "seed": self.seeds.first().copied().unwrap_or(0),
                "seeds": self.seeds.clone(),
                "calls": self.calls,
                "period_ms": self.period_ms,
                "snapshot_every": SNAPSHOT_EVERY,
                "shadow_calls": SHADOW_CALLS,
                "probation_ticks": PROBATION_TICKS,
                "restart_us": RESTART_US,
                "all_consistent": self.all_consistent,
                "zero_committed_lost": self.zero_committed_lost,
                "replays_byte_identical": self.replays_byte_identical,
                "live_goodput_wins": self.live_goodput_wins,
                "goodput_live": fixed(self.goodput_live, 4),
                "goodput_stw": fixed(self.goodput_stw, 4),
                "campaigns": campaigns,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaigns_end_consistent_with_zero_loss() {
        let r = run(&[1, 3, 7], 400, 20);
        for c in &r.campaigns {
            for (tag, v) in [("live", &c.live), ("stw", &c.stw)] {
                assert!(
                    v.upgrades_pushed > 0,
                    "seed {}/{tag}: campaign pushed no upgrades",
                    c.seed
                );
                assert!(v.consistent_final, "seed {}/{tag}", c.seed);
                assert_eq!(v.committed_lost, 0, "seed {}/{tag}", c.seed);
                assert!(v.replays_byte_identical, "seed {}/{tag}", c.seed);
                assert!(v.repairs_byte_identical, "seed {}/{tag}", c.seed);
            }
        }
        assert!(r.all_consistent);
        assert!(r.zero_committed_lost);
        assert!(r.replays_byte_identical);
    }

    #[test]
    fn live_upgrades_beat_stop_the_world_on_goodput() {
        let r = run(&[1, 3, 7], 400, 20);
        assert!(
            r.live_goodput_wins,
            "live {:.4} vs stw {:.4}",
            r.goodput_live, r.goodput_stw
        );
        // The mechanism: the baseline refuses calls during its restart
        // windows; the live protocol serves through its upgrades.
        let dropped_live: u64 = r.campaigns.iter().map(|c| c.live.dropped).sum();
        let dropped_stw: u64 = r.campaigns.iter().map(|c| c.stw.dropped).sum();
        assert!(dropped_stw > dropped_live);
    }

    #[test]
    fn upgrades_actually_commit_and_versions_advance() {
        let r = run(&[1, 3, 7], 400, 20);
        let committed: u64 = r
            .campaigns
            .iter()
            .map(|c| c.live.committed + c.live.crash_committed)
            .sum();
        assert!(committed > 0, "no live upgrade ever committed");
        assert!(
            r.campaigns
                .iter()
                .any(|c| c.live.final_version > 1 || c.stw.final_version > 1),
            "no campaign advanced past version 1"
        );
        // Every push is accounted for.
        for c in &r.campaigns {
            let l = &c.live;
            assert!(
                l.upgrades_skipped
                    + l.gate_refused
                    + l.shadow_refused
                    + l.cutovers
                    + l.aborted_by_crash
                    >= l.upgrades_pushed.saturating_sub(1),
                "seed {}: pushes leaked",
                c.seed
            );
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
