//! An OTP-style supervisor for middleware components, built on the
//! autonomic-manager machinery.
//!
//! The paper's autonomic manager reacts to *application* symptoms
//! (resource failures, breaker trips). This module points the same MAPE-K
//! idea at the *middleware itself*: each supervised component (a broker
//! instance, a controller) emits heartbeats into the supervisor's own
//! runtime model — a [`StateManager`], so liveness symptoms are genuine
//! OCL-lite expressions over it — and the supervisor detects dead
//! (crashed) or wedged (stalled) components and decides between restarting
//! from the last checkpoint and escalating, under a bounded
//! restart-intensity policy (one-for-one restarts, escalate after
//! `max_restarts` within `window`).
//!
//! Crash vs stall mirrors OTP practice: a crash is detected immediately
//! (the supervisor holds the equivalent of a process link), while a stall
//! only shows up as heartbeat staleness and is detected on the first tick
//! after `stall_after` of silence.

use crate::state::StateManager;
use crate::{BrokerError, Result};
use mddsm_meta::constraint;
use mddsm_sim::fault::ComponentTarget;
use mddsm_sim::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Bounded-escalation restart policy (OTP "restart intensity").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestartPolicy {
    /// Restarts tolerated within [`RestartPolicy::window`] before the
    /// supervisor gives up on the component and escalates. Exactly
    /// `max_restarts` restarts are *performed*; the next unhealthy event
    /// while all of them are still inside the window (count `>=`
    /// `max_restarts`) escalates instead of restarting.
    pub max_restarts: u32,
    /// Sliding window for counting restarts. The window edge is
    /// *inclusive*: a restart that happened exactly `window` ago (its
    /// timestamp `>= now - window`) still counts against
    /// [`RestartPolicy::max_restarts`]; one virtual microsecond older and
    /// it ages out.
    pub window: SimDuration,
    /// Heartbeat staleness after which a silent component counts as
    /// wedged.
    pub stall_after: SimDuration,
}

impl Default for RestartPolicy {
    fn default() -> Self {
        RestartPolicy {
            max_restarts: 3,
            window: SimDuration::from_millis(5_000),
            stall_after: SimDuration::from_millis(300),
        }
    }
}

/// What the supervisor decided about one unhealthy component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SupervisorDecision {
    /// Restart the component from its last checkpoint (one-for-one).
    Restart {
        /// The unhealthy component.
        component: String,
        /// Which liveness symptom fired.
        reason: String,
        /// Restarts of this component inside the current window,
        /// counting this one.
        restarts_in_window: u32,
    },
    /// Too many restarts inside the window: give up and hand the failure
    /// to the next tier.
    Escalate {
        /// The component the supervisor gave up on.
        component: String,
    },
    /// The component's replica set has a reachable member: promote the
    /// elected standby instead of restarting. The failed component leaves
    /// supervision until [`Supervisor::rejoin`].
    Failover {
        /// The failed (or force-failed-over) primary.
        component: String,
        /// The standby being promoted.
        standby: String,
        /// Which liveness symptom fired (`forced` for drills).
        reason: String,
        /// The new fencing epoch the promoted standby must journal.
        epoch: u64,
    },
    /// A runtime monitor tripped on the component: its model diverged
    /// from its own invariants while the process is still alive, so
    /// neither restart nor failover fits — the caller must stop trusting
    /// its outputs and repair the model (typically
    /// [`crate::engine::GenericBroker::rollback_to_snapshot`]) before the
    /// component rejoins service.
    Quarantine {
        /// The component whose monitor tripped.
        component: String,
        /// The tripped monitor's name.
        monitor: String,
    },
    /// The component's durable journal failed verification
    /// ([`crate::BrokerError::JournalDamaged`]) and its replica set has a
    /// reachable member: heal the journal from that standby's mirror
    /// (anti-entropy, [`crate::replication::repair_journal`]) and resume
    /// ordinary recovery. When no replica is reachable the symptom degrades to
    /// [`SupervisorDecision::Quarantine`] instead — there is nothing to
    /// repair from, so the component must not serve from a lying disk.
    RepairJournal {
        /// The component whose journal is damaged.
        component: String,
        /// The standby whose mirror the journal is healed from.
        standby: String,
        /// What recovery reported (the `JournalDamaged` rendering).
        reason: String,
    },
    /// The component regressed during a live-upgrade probation window —
    /// a runtime monitor tripped or brownout deepened under the candidate
    /// model — so the upgrade must be rolled back to the pre-upgrade
    /// verified snapshot and old model
    /// ([`crate::evolution::LiveUpgrade::rollback`]).
    RollbackUpgrade {
        /// The component serving under the regressing candidate.
        component: String,
        /// What regressed (monitor name or brownout signal).
        reason: String,
    },
}

impl SupervisorDecision {
    /// The component the decision is about.
    pub fn component(&self) -> &str {
        match self {
            SupervisorDecision::Restart { component, .. }
            | SupervisorDecision::Escalate { component }
            | SupervisorDecision::Failover { component, .. }
            | SupervisorDecision::Quarantine { component, .. }
            | SupervisorDecision::RepairJournal { component, .. }
            | SupervisorDecision::RollbackUpgrade { component, .. } => component,
        }
    }
}

/// A heartbeat-driven supervisor over named middleware components.
#[derive(Debug)]
pub struct Supervisor {
    /// The supervisor's own runtime model: `hb_<c>` (last heartbeat, µs),
    /// `crashed_<c>` / `wedged_<c>` flags, `restarts_<c>` counters — all
    /// OCL-addressable.
    state: StateManager,
    policy: RestartPolicy,
    components: Vec<String>,
    /// Virtual-time stamps of past restarts, per component (for the
    /// sliding restart-intensity window).
    restart_log: BTreeMap<String, Vec<u64>>,
    escalated: Vec<String>,
    /// primary -> its replica set (quorum failover: on primary loss the
    /// reachable member with the longest quorum-committed prefix is
    /// elected and the survivors are re-parented under it). A single hot
    /// standby is a one-member set.
    replica_sets: BTreeMap<String, Vec<String>>,
    /// Components failed over and awaiting [`Supervisor::rejoin`].
    awaiting_rejoin: Vec<String>,
    /// Forced failovers queued by [`ComponentTarget::failover_to`].
    forced: Vec<(String, String)>,
    /// Fencing epoch; bumped by every promotion.
    epoch: u64,
    /// `(epoch, promoted component)` per promotion, in order.
    promotions: Vec<(u64, String)>,
}

fn key(prefix: &str, component: &str) -> String {
    // State keys are OCL identifiers: dots in component names would split
    // attribute navigation, so they are flattened.
    format!("{prefix}_{}", component.replace('.', "_"))
}

impl Supervisor {
    /// A supervisor over `components`, all initially healthy with a
    /// heartbeat at time zero.
    pub fn new(components: &[&str], policy: RestartPolicy) -> Self {
        let mut state = StateManager::new();
        for c in components {
            state.set_int(&key("hb", c), 0);
            state.set_int(&key("crashed", c), 0);
            state.set_int(&key("wedged", c), 0);
            state.set_int(&key("partitioned", c), 0);
        }
        state.set_int("epoch", 1);
        Supervisor {
            state,
            policy,
            components: components.iter().map(|c| (*c).to_owned()).collect(),
            restart_log: BTreeMap::new(),
            escalated: Vec::new(),
            replica_sets: BTreeMap::new(),
            awaiting_rejoin: Vec::new(),
            forced: Vec::new(),
            epoch: 1,
            promotions: Vec::new(),
        }
    }

    /// Records a heartbeat from a live component. A wedged component's
    /// heartbeats are suppressed — that is what being wedged means — and
    /// so are a partitioned component's: it may be alive, but its
    /// heartbeats cannot reach the supervisor.
    pub fn heartbeat(&mut self, component: &str, now: SimTime) {
        if self.state.int(&key("wedged", component)) == Some(1)
            || self.state.int(&key("crashed", component)) == Some(1)
            || self.state.int(&key("partitioned", component)) == Some(1)
        {
            return;
        }
        self.state
            .set_int(&key("hb", component), now.as_micros() as i64);
    }

    /// Designates the replica set of `primary`: on primary loss the
    /// supervisor polls the members, elects the reachable one with the
    /// longest quorum-committed prefix (see
    /// [`Supervisor::note_replica_lsn`]) under a bumped epoch, and
    /// re-parents the survivors under it. A single hot standby is the
    /// one-member set `&[standby]`. Re-designating replaces the set.
    /// Unknown members and the primary itself are dropped from the set;
    /// an all-unknown set is ignored.
    pub fn designate_replica_set(&mut self, primary: &str, replicas: &[&str]) {
        if !self.known(primary) {
            return;
        }
        let set: Vec<String> = replicas
            .iter()
            .filter(|r| self.known(r) && **r != primary)
            .map(|r| (*r).to_owned())
            .collect();
        if !set.is_empty() {
            self.replica_sets.insert(primary.to_owned(), set);
        }
    }

    /// Adds one member to `primary`'s replica set (the rejoin path for a
    /// healed ex-primary re-entering as a replica). Idempotent; unknown
    /// components are ignored.
    pub fn add_replica(&mut self, primary: &str, node: &str) {
        if self.known(primary) && self.known(node) && primary != node {
            let set = self.replica_sets.entry(primary.to_owned()).or_default();
            if !set.iter().any(|n| n == node) {
                set.push(node.to_owned());
            }
        }
    }

    /// The designated replica set of `primary`, if any.
    pub fn replica_set(&self, primary: &str) -> Option<&[String]> {
        self.replica_sets.get(primary).map(Vec::as_slice)
    }

    /// Reports the newest state LSN applied on a replica — the
    /// supervisor's poll result, kept OCL-addressable under `lsn_<c>` so
    /// the election is a query over the supervisor's own runtime model.
    /// Unknown components are ignored.
    pub fn note_replica_lsn(&mut self, component: &str, lsn: u64) {
        if self.known(component) {
            self.state.set_int(&key("lsn", component), lsn as i64);
        }
    }

    /// Elects the failover target from `candidates`: the reachable member
    /// with the largest reported LSN, ties broken by slice order — every
    /// poller reaches the same answer deterministically. `None` when no
    /// member is reachable.
    fn elect(&self, candidates: &[String]) -> Option<String> {
        let mut best: Option<(&String, i64)> = None;
        for c in candidates {
            if !self.known(c) || !self.reachable(c) {
                continue;
            }
            let lsn = self.state.int(&key("lsn", c)).unwrap_or(0);
            match best {
                Some((_, b)) if lsn <= b => {}
                _ => best = Some((c, lsn)),
            }
        }
        best.map(|(c, _)| c.clone())
    }

    /// After promoting `new_primary` out of `old_primary`'s replica set,
    /// re-parents the surviving members under the new primary.
    fn reparent_after_promotion(&mut self, old_primary: &str, new_primary: &str) {
        if let Some(mut set) = self.replica_sets.remove(old_primary) {
            set.retain(|n| n != new_primary);
            if !set.is_empty() {
                self.replica_sets.insert(new_primary.to_owned(), set);
            }
        }
    }

    /// Marks a component (un)reachable over the network. Set by whoever
    /// watches the [`mddsm_sim::net::Network`] — a partitioned component
    /// stops being heard from and its symptom fires on the next tick.
    pub fn note_partitioned(&mut self, component: &str, partitioned: bool) {
        if self.known(component) {
            self.state
                .set_int(&key("partitioned", component), i64::from(partitioned));
        }
    }

    /// Feeds a runtime-monitor trip into the supervisor's runtime model
    /// as a symptom: the next [`Supervisor::tick`] emits a
    /// [`SupervisorDecision::Quarantine`] for the component. Unknown
    /// components are ignored.
    pub fn note_monitor_trip(&mut self, component: &str, monitor: &str) {
        if self.known(component) {
            self.state.set_int(&key("montrip", component), 1);
            self.state
                .set_str(&key("montrip_monitor", component), monitor);
        }
    }

    /// Feeds a journal-damage report
    /// ([`crate::BrokerError::JournalDamaged`]) into the supervisor's
    /// runtime model as a symptom: the next [`Supervisor::tick`] emits
    /// [`SupervisorDecision::RepairJournal`] when the component's replica
    /// set has a reachable member (whose mirror can heal the journal),
    /// falling back to [`SupervisorDecision::Quarantine`] when none
    /// exists. Unknown components are ignored.
    pub fn note_journal_damage(&mut self, component: &str, detail: &str) {
        if self.known(component) {
            self.state.set_int(&key("jdamage", component), 1);
            self.state.set_str(&key("jdamage_why", component), detail);
        }
    }

    /// Feeds a probation-window regression (monitor trip or brownout
    /// signal under a freshly cut-over candidate model) into the
    /// supervisor's runtime model as a symptom: the next
    /// [`Supervisor::tick`] emits
    /// [`SupervisorDecision::RollbackUpgrade`] for the component. Unknown
    /// components are ignored.
    pub fn note_upgrade_regression(&mut self, component: &str, reason: &str) {
        if self.known(component) {
            self.state.set_int(&key("upreg", component), 1);
            self.state.set_str(&key("upreg_why", component), reason);
        }
    }

    /// Readmits a failed-over (or healed) component to supervision with
    /// clean flags and a fresh heartbeat. The caller re-registers it as a
    /// replica ([`Supervisor::designate_replica_set`] or
    /// [`Supervisor::add_replica`]) once it has been fenced and
    /// reconciled.
    pub fn rejoin(&mut self, component: &str, now: SimTime) {
        if !self.known(component) {
            return;
        }
        self.awaiting_rejoin.retain(|c| c != component);
        self.state.set_int(&key("crashed", component), 0);
        self.state.set_int(&key("wedged", component), 0);
        self.state.set_int(&key("partitioned", component), 0);
        self.state
            .set_int(&key("hb", component), now.as_micros() as i64);
    }

    fn known(&self, component: &str) -> bool {
        self.components.iter().any(|c| c == component)
    }

    /// Whether the standby is fit to take over right now.
    fn reachable(&self, component: &str) -> bool {
        self.state.int(&key("crashed", component)) != Some(1)
            && self.state.int(&key("wedged", component)) != Some(1)
            && self.state.int(&key("partitioned", component)) != Some(1)
            && !self.awaiting_rejoin.iter().any(|c| c == component)
            && !self.escalated(component)
    }

    /// Current fencing epoch (1 until the first promotion).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// `(epoch, promoted component)` per promotion, oldest first.
    pub fn promotions(&self) -> &[(u64, String)] {
        &self.promotions
    }

    /// Whether the component was failed over and has not rejoined yet.
    pub fn awaiting_rejoin(&self, component: &str) -> bool {
        self.awaiting_rejoin.iter().any(|c| c == component)
    }

    fn promote(&mut self, component: String, standby: String, reason: &str) -> SupervisorDecision {
        self.epoch += 1;
        self.awaiting_rejoin.push(component.clone());
        self.promotions.push((self.epoch, standby.clone()));
        self.state.set_int("epoch", self.epoch as i64);
        self.state.set_str("primary", &standby);
        SupervisorDecision::Failover {
            component,
            standby,
            reason: reason.to_owned(),
            epoch: self.epoch,
        }
    }

    /// The supervisor's runtime model (for symptom inspection in tests and
    /// experiments).
    pub fn state(&self) -> &StateManager {
        &self.state
    }

    /// Whether the supervisor has given up on the component.
    pub fn escalated(&self, component: &str) -> bool {
        self.escalated.iter().any(|c| c == component)
    }

    /// Total restarts performed for a component.
    pub fn restarts(&self, component: &str) -> u32 {
        self.restart_log
            .get(component)
            .map_or(0, |l| l.len() as u32)
    }

    /// The liveness symptom for one component, as an OCL-lite condition
    /// over the supervisor's runtime model. `deadline_us` is
    /// `now - stall_after`: a heartbeat older than it means wedged.
    fn symptom(&self, component: &str, deadline_us: i64) -> String {
        format!(
            "self.{crashed} = 1 or self.{wedged} = 1 or self.{part} = 1 or self.{hb} < {deadline_us}",
            crashed = key("crashed", component),
            wedged = key("wedged", component),
            part = key("partitioned", component),
            hb = key("hb", component),
        )
    }

    /// One monitoring cycle at virtual time `now`: evaluates every
    /// component's liveness symptom and returns a decision per unhealthy
    /// component. A `Restart` decision resets the component's flags and
    /// heartbeat; an `Escalate` removes it from supervision. The tick
    /// only decides: a [`crate::group::ReplicaGroup`] carries the
    /// decisions out (promotion, restart, revival, quarantine, repair).
    pub fn tick(&mut self, now: SimTime) -> Result<Vec<SupervisorDecision>> {
        let now_us = now.as_micros();
        let deadline_us = now_us.saturating_sub(self.policy.stall_after.as_micros()) as i64;
        let mut decisions = Vec::new();
        // Forced failovers (drills) first: promote even a healthy primary,
        // as long as the standby could actually take over.
        for (component, standby) in std::mem::take(&mut self.forced) {
            if self.known(&component)
                && !self.escalated(&component)
                && !self.awaiting_rejoin(&component)
                && self.reachable(&standby)
            {
                self.reparent_after_promotion(&component, &standby);
                decisions.push(self.promote(component, standby, "forced"));
            }
        }
        // Monitor-trip symptoms: the component's process is alive but its
        // runtime model diverged — quarantine, don't restart. The flag is
        // consumed (one decision per trip); the tripped instance itself
        // stays latched until the caller repairs it.
        for component in self.components.clone() {
            if self.escalated(&component) || self.awaiting_rejoin(&component) {
                continue;
            }
            if self.state.int(&key("montrip", &component)) == Some(1) {
                self.state.set_int(&key("montrip", &component), 0);
                let monitor = self
                    .state
                    .str(&key("montrip_monitor", &component))
                    .unwrap_or_default()
                    .to_owned();
                decisions.push(SupervisorDecision::Quarantine { component, monitor });
            }
        }
        // Journal-damage symptoms: the component's durable store failed
        // verification. With a reachable standby the mirror can heal the
        // journal (anti-entropy); without one, the component must not
        // serve from a lying disk — quarantine. The flag is consumed (one
        // decision per report), like monitor trips.
        for component in self.components.clone() {
            if self.escalated(&component) || self.awaiting_rejoin(&component) {
                continue;
            }
            if self.state.int(&key("jdamage", &component)) == Some(1) {
                self.state.set_int(&key("jdamage", &component), 0);
                let reason = self
                    .state
                    .str(&key("jdamage_why", &component))
                    .unwrap_or_default()
                    .to_owned();
                // The replica set supplies the freshest reachable member
                // as the anti-entropy source.
                let standby = self
                    .replica_sets
                    .get(&component)
                    .and_then(|set| self.elect(set));
                decisions.push(match standby {
                    Some(standby) => SupervisorDecision::RepairJournal {
                        component,
                        standby,
                        reason,
                    },
                    None => SupervisorDecision::Quarantine {
                        component,
                        monitor: "journal".to_owned(),
                    },
                });
            }
        }
        // Upgrade-regression symptoms: a probation-window monitor trip or
        // brownout signal under a freshly cut-over candidate model. The
        // component is alive and its journal intact — the *model* is the
        // regression — so the decision is a rollback, not a restart. The
        // flag is consumed (one decision per regression).
        for component in self.components.clone() {
            if self.escalated(&component) || self.awaiting_rejoin(&component) {
                continue;
            }
            if self.state.int(&key("upreg", &component)) == Some(1) {
                self.state.set_int(&key("upreg", &component), 0);
                let reason = self
                    .state
                    .str(&key("upreg_why", &component))
                    .unwrap_or_default()
                    .to_owned();
                decisions.push(SupervisorDecision::RollbackUpgrade { component, reason });
            }
        }
        for component in self.components.clone() {
            if self.escalated(&component) || self.awaiting_rejoin(&component) {
                continue;
            }
            let src = self.symptom(&component, deadline_us);
            let expr = constraint::parse(&src)
                .map_err(|e| BrokerError::PolicyFailed(format!("symptom `{src}`: {e}")))?;
            if !self.state.eval(&expr)? {
                continue;
            }
            let reason = if self.state.int(&key("crashed", &component)) == Some(1) {
                "crashed"
            } else if self.state.int(&key("wedged", &component)) == Some(1) {
                "wedged"
            } else if self.state.int(&key("partitioned", &component)) == Some(1) {
                "partitioned"
            } else {
                "heartbeat-stale"
            };

            // A primary with a replica set holds a quorum election: the
            // reachable member with the longest reported prefix is
            // promoted under a bumped epoch and the survivors re-parent.
            // Restart intensity is not charged (the promoted replica is
            // fresh, not a restart of the failed component).
            if let Some(set) = self.replica_sets.get(&component).cloned() {
                if let Some(elected) = self.elect(&set) {
                    self.reparent_after_promotion(&component, &elected);
                    decisions.push(self.promote(component, elected, reason));
                    continue;
                }
            }

            // Restart-intensity check over the sliding window. Both
            // comparisons are deliberate about their edges: a restart
            // stamped exactly at `now - window` still counts (`>=`,
            // inclusive edge), and the supervisor escalates as soon as the
            // in-window count has *reached* `max_restarts` (`>=`) — i.e.
            // it performs at most `max_restarts` restarts per window and
            // the (max_restarts + 1)-th unhealthy event escalates.
            let log = self.restart_log.entry(component.clone()).or_default();
            let window_start = now_us.saturating_sub(self.policy.window.as_micros());
            log.retain(|t| *t >= window_start);
            if log.len() as u32 >= self.policy.max_restarts {
                self.escalated.push(component.clone());
                decisions.push(SupervisorDecision::Escalate {
                    component: component.clone(),
                });
                continue;
            }
            log.push(now_us);
            let restarts_in_window = log.len() as u32;
            self.state.set_int(&key("crashed", &component), 0);
            self.state.set_int(&key("wedged", &component), 0);
            self.state.set_int(&key("partitioned", &component), 0);
            self.state.set_int(&key("hb", &component), now_us as i64);
            self.state.bump(&key("restarts", &component), 1);
            decisions.push(SupervisorDecision::Restart {
                component,
                reason: reason.to_owned(),
                restarts_in_window,
            });
        }
        Ok(decisions)
    }
}

impl ComponentTarget for Supervisor {
    fn crash_component(&mut self, component: &str) {
        if self.components.iter().any(|c| c == component) {
            self.state.set_int(&key("crashed", component), 1);
        }
    }

    fn stall_component(&mut self, component: &str) {
        if self.components.iter().any(|c| c == component) {
            self.state.set_int(&key("wedged", component), 1);
        }
    }

    fn failover_to(&mut self, component: &str, standby: &str) {
        if self.known(component) && self.known(standby) && component != standby {
            self.forced.push((component.to_owned(), standby.to_owned()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> RestartPolicy {
        RestartPolicy {
            max_restarts: 2,
            window: SimDuration::from_millis(1_000),
            stall_after: SimDuration::from_millis(100),
        }
    }

    #[test]
    fn healthy_components_produce_no_decisions() {
        let mut s = Supervisor::new(&["broker"], policy());
        s.heartbeat("broker", SimTime::from_millis(50));
        assert!(s.tick(SimTime::from_millis(60)).unwrap().is_empty());
    }

    #[test]
    fn crash_is_detected_immediately_and_restarted() {
        let mut s = Supervisor::new(&["broker"], policy());
        s.heartbeat("broker", SimTime::from_millis(10));
        s.crash_component("broker");
        // Crashed components stop heartbeating.
        s.heartbeat("broker", SimTime::from_millis(11));
        let d = s.tick(SimTime::from_millis(12)).unwrap();
        assert_eq!(
            d,
            vec![SupervisorDecision::Restart {
                component: "broker".into(),
                reason: "crashed".into(),
                restarts_in_window: 1,
            }]
        );
        // Restart resets the flags: next tick is quiet.
        assert!(s.tick(SimTime::from_millis(13)).unwrap().is_empty());
        assert_eq!(s.restarts("broker"), 1);
        assert_eq!(s.state().int("restarts_broker"), Some(1));
    }

    #[test]
    fn stall_is_detected_by_heartbeat_staleness() {
        let mut s = Supervisor::new(&["ctl"], policy());
        s.heartbeat("ctl", SimTime::from_millis(10));
        s.stall_component("ctl");
        // Wedged: heartbeats are suppressed from now on.
        s.heartbeat("ctl", SimTime::from_millis(20));
        assert_eq!(s.state().int("hb_ctl"), Some(10_000));
        let d = s.tick(SimTime::from_millis(50)).unwrap();
        assert_eq!(d.len(), 1);
        assert!(matches!(&d[0], SupervisorDecision::Restart { reason, .. } if reason == "wedged"));
    }

    #[test]
    fn silent_component_goes_stale_without_a_fault_event() {
        let mut s = Supervisor::new(&["b"], policy());
        s.heartbeat("b", SimTime::from_millis(10));
        // Quiet for longer than stall_after without any injected fault.
        let d = s.tick(SimTime::from_millis(500)).unwrap();
        assert!(
            matches!(&d[0], SupervisorDecision::Restart { reason, .. } if reason == "heartbeat-stale")
        );
    }

    #[test]
    fn restart_intensity_escalates_then_stays_escalated() {
        let mut s = Supervisor::new(&["b"], policy());
        for i in 0..2u64 {
            s.crash_component("b");
            let d = s.tick(SimTime::from_millis(10 + i)).unwrap();
            assert!(matches!(&d[0], SupervisorDecision::Restart { .. }));
        }
        // Third crash inside the 1s window: escalate.
        s.crash_component("b");
        let d = s.tick(SimTime::from_millis(20)).unwrap();
        assert_eq!(
            d,
            vec![SupervisorDecision::Escalate {
                component: "b".into()
            }]
        );
        assert!(s.escalated("b"));
        // Escalated components are no longer supervised.
        assert!(s.tick(SimTime::from_millis(21)).unwrap().is_empty());
    }

    #[test]
    fn restart_window_slides() {
        let mut s = Supervisor::new(&["b"], policy());
        for t in [0u64, 500] {
            s.crash_component("b");
            assert_eq!(s.tick(SimTime::from_millis(10 + t)).unwrap().len(), 1);
        }
        // 1.6s later, both prior restarts fell out of the 1s window.
        s.crash_component("b");
        let d = s.tick(SimTime::from_millis(1_600)).unwrap();
        assert!(
            matches!(&d[0], SupervisorDecision::Restart { restarts_in_window, .. } if *restarts_in_window == 1)
        );
        assert_eq!(s.restarts("b"), 1); // pruned log only counts the window
    }

    /// Drives two restarts at t=0 and t=500ms (filling the 1s window of
    /// [`policy`]) and leaves a third crash pending.
    fn filled_window() -> Supervisor {
        let mut s = Supervisor::new(&["b"], policy());
        for t in [0u64, 500] {
            s.crash_component("b");
            assert_eq!(s.tick(SimTime::from_millis(t)).unwrap().len(), 1);
        }
        s.crash_component("b");
        s
    }

    #[test]
    fn restart_exactly_at_the_window_edge_still_counts() {
        // now - window == 0 == the first restart's stamp: the inclusive
        // edge keeps it in the window, so the count is 2 >= max 2 and the
        // third crash escalates.
        let mut s = filled_window();
        let d = s.tick(SimTime::from_millis(1_000)).unwrap();
        assert_eq!(
            d,
            vec![SupervisorDecision::Escalate {
                component: "b".into()
            }]
        );
    }

    #[test]
    fn restart_one_microsecond_past_the_edge_ages_out() {
        // One µs later the t=0 restart is strictly older than the window:
        // only the t=500ms restart remains, 1 < max 2, so the component
        // is restarted (and the new restart makes 2 in-window).
        let mut s = filled_window();
        let d = s.tick(SimTime::from_micros(1_000_001)).unwrap();
        assert!(
            matches!(
                &d[0],
                SupervisorDecision::Restart {
                    restarts_in_window, ..
                } if *restarts_in_window == 2
            ),
            "{d:?}"
        );
    }

    #[test]
    fn unknown_components_are_ignored() {
        let mut s = Supervisor::new(&["b"], policy());
        s.crash_component("ghost");
        s.stall_component("ghost");
        s.heartbeat("b", SimTime::from_millis(1));
        assert!(s.tick(SimTime::from_millis(2)).unwrap().is_empty());
    }

    #[test]
    fn crashed_primary_fails_over_to_its_standby() {
        let mut s = Supervisor::new(&["a", "b"], policy());
        s.designate_replica_set("a", &["b"]);
        s.heartbeat("b", SimTime::from_millis(9));
        s.crash_component("a");
        let d = s.tick(SimTime::from_millis(10)).unwrap();
        assert_eq!(
            d,
            vec![SupervisorDecision::Failover {
                component: "a".into(),
                standby: "b".into(),
                reason: "crashed".into(),
                epoch: 2,
            }]
        );
        assert_eq!(s.epoch(), 2);
        assert_eq!(s.promotions(), &[(2, "b".to_string())]);
        assert!(s.awaiting_rejoin("a"));
        assert_eq!(s.state().int("epoch"), Some(2));
        assert_eq!(s.state().str("primary"), Some("b"));
        // The failed-over primary is out of supervision: no more decisions
        // about it, even though its crashed flag is still set.
        s.heartbeat("b", SimTime::from_millis(11));
        assert!(s.tick(SimTime::from_millis(12)).unwrap().is_empty());
        // After fencing + reconcile the old primary rejoins as standby.
        s.rejoin("a", SimTime::from_millis(20));
        s.designate_replica_set("b", &["a"]);
        s.crash_component("b");
        let d = s.tick(SimTime::from_millis(21)).unwrap();
        assert!(matches!(
            &d[0],
            SupervisorDecision::Failover { standby, epoch: 3, .. } if standby == "a"
        ));
    }

    #[test]
    fn partition_fires_the_symptom_and_fails_over() {
        let mut s = Supervisor::new(&["a", "b"], policy());
        s.designate_replica_set("a", &["b"]);
        s.heartbeat("b", SimTime::from_millis(9));
        s.note_partitioned("a", true);
        // A partitioned node's heartbeats never arrive.
        s.heartbeat("a", SimTime::from_millis(9));
        assert_eq!(s.state().int("hb_a"), Some(0));
        let d = s.tick(SimTime::from_millis(10)).unwrap();
        assert!(matches!(
            &d[0],
            SupervisorDecision::Failover { reason, .. } if reason == "partitioned"
        ));
    }

    #[test]
    fn unreachable_standby_falls_back_to_restart() {
        let mut s = Supervisor::new(&["a", "b"], policy());
        s.designate_replica_set("a", &["b"]);
        // Simultaneous crash + partition: the standby cannot take over.
        s.crash_component("a");
        s.note_partitioned("b", true);
        let d = s.tick(SimTime::from_millis(10)).unwrap();
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(matches!(&d[0], SupervisorDecision::Restart { component, .. } if component == "a"));
        assert!(
            matches!(&d[1], SupervisorDecision::Restart { component, reason, .. }
                if component == "b" && reason == "partitioned")
        );
        assert_eq!(s.epoch(), 1, "no promotion happened");
    }

    #[test]
    fn monitor_trips_quarantine_without_charging_restart_intensity() {
        let mut s = Supervisor::new(&["b"], policy());
        s.heartbeat("b", SimTime::from_millis(9));
        s.note_monitor_trip("b", "nonneg");
        s.note_monitor_trip("ghost", "nonneg"); // unknown: ignored
        let d = s.tick(SimTime::from_millis(10)).unwrap();
        assert_eq!(
            d,
            vec![SupervisorDecision::Quarantine {
                component: "b".into(),
                monitor: "nonneg".into(),
            }]
        );
        assert_eq!(s.restarts("b"), 0, "quarantine is not a restart");
        // The symptom was consumed: quiet until the next trip.
        s.heartbeat("b", SimTime::from_millis(11));
        assert!(s.tick(SimTime::from_millis(12)).unwrap().is_empty());
    }

    #[test]
    fn journal_damage_repairs_from_a_reachable_standby() {
        let mut s = Supervisor::new(&["a", "b"], policy());
        s.designate_replica_set("a", &["b"]);
        s.heartbeat("a", SimTime::from_millis(9));
        s.heartbeat("b", SimTime::from_millis(9));
        s.note_journal_damage("a", "crc mismatch at lsn 7");
        s.note_journal_damage("ghost", "ignored"); // unknown: ignored
        let d = s.tick(SimTime::from_millis(10)).unwrap();
        assert_eq!(
            d,
            vec![SupervisorDecision::RepairJournal {
                component: "a".into(),
                standby: "b".into(),
                reason: "crc mismatch at lsn 7".into(),
            }]
        );
        assert_eq!(s.restarts("a"), 0, "repair is not a restart");
        // The symptom was consumed: quiet until the next report.
        s.heartbeat("a", SimTime::from_millis(11));
        s.heartbeat("b", SimTime::from_millis(11));
        assert!(s.tick(SimTime::from_millis(12)).unwrap().is_empty());
    }

    #[test]
    fn journal_damage_without_a_usable_standby_quarantines() {
        // No replica designated: nothing can heal the journal, and the
        // component must not serve from a lying disk.
        let mut s = Supervisor::new(&["a", "b"], policy());
        s.heartbeat("a", SimTime::from_millis(9));
        s.heartbeat("b", SimTime::from_millis(9));
        s.note_journal_damage("a", "bit rot");
        let d = s.tick(SimTime::from_millis(10)).unwrap();
        assert_eq!(
            d,
            vec![SupervisorDecision::Quarantine {
                component: "a".into(),
                monitor: "journal".into(),
            }]
        );
        // A designated but unreachable replica is no better.
        let mut s = Supervisor::new(&["a", "b"], policy());
        s.designate_replica_set("a", &["b"]);
        s.heartbeat("a", SimTime::from_millis(9));
        s.note_partitioned("b", true);
        s.note_journal_damage("a", "bit rot");
        let d = s.tick(SimTime::from_millis(10)).unwrap();
        assert!(
            d.iter().any(|x| matches!(
                x,
                SupervisorDecision::Quarantine { component, monitor }
                    if component == "a" && monitor == "journal"
            )),
            "{d:?}"
        );
    }

    #[test]
    fn quorum_election_promotes_the_longest_prefix_and_reparents() {
        let mut s = Supervisor::new(&["a", "b", "c", "d"], policy());
        s.designate_replica_set("a", &["b", "c", "d", "ghost"]);
        assert_eq!(
            s.replica_set("a").unwrap(),
            &["b", "c", "d"],
            "unknown members are dropped"
        );
        for n in ["b", "c", "d"] {
            s.heartbeat(n, SimTime::from_millis(9));
        }
        // Polled prefixes: c holds the longest quorum-committed prefix.
        s.note_replica_lsn("b", 7);
        s.note_replica_lsn("c", 9);
        s.note_replica_lsn("d", 9); // tie with c: slice order wins
        s.crash_component("a");
        let d = s.tick(SimTime::from_millis(10)).unwrap();
        assert_eq!(
            d,
            vec![SupervisorDecision::Failover {
                component: "a".into(),
                standby: "c".into(),
                reason: "crashed".into(),
                epoch: 2,
            }]
        );
        // Survivors re-parented under the elected primary; the shipped
        // one_primary_per_epoch keys update exactly as in the 2-node path.
        assert_eq!(s.replica_set("c").unwrap(), &["b", "d"]);
        assert!(s.replica_set("a").is_none());
        assert_eq!(s.state().str("primary"), Some("c"));
        assert_eq!(s.state().int("epoch"), Some(2));
        // The healed ex-primary rejoins the set as a replica.
        s.rejoin("a", SimTime::from_millis(20));
        s.add_replica("c", "a");
        assert_eq!(s.replica_set("c").unwrap(), &["b", "d", "a"]);
    }

    #[test]
    fn election_skips_unreachable_members_and_falls_back_to_restart() {
        let mut s = Supervisor::new(&["a", "b", "c"], policy());
        s.designate_replica_set("a", &["b", "c"]);
        for n in ["b", "c"] {
            s.heartbeat(n, SimTime::from_millis(9));
        }
        s.note_replica_lsn("b", 12);
        s.note_replica_lsn("c", 3);
        // The freshest member is partitioned: the election must pick the
        // reachable laggard, never the unreachable leader.
        s.note_partitioned("b", true);
        s.crash_component("a");
        let d = s.tick(SimTime::from_millis(10)).unwrap();
        assert!(
            d.iter().any(|x| matches!(
                x,
                SupervisorDecision::Failover { standby, .. } if standby == "c"
            )),
            "{d:?}"
        );
        // Whole set unreachable: the primary falls back to plain restart.
        let mut s = Supervisor::new(&["a", "b", "c"], policy());
        s.designate_replica_set("a", &["b", "c"]);
        s.note_partitioned("b", true);
        s.note_partitioned("c", true);
        s.crash_component("a");
        let d = s.tick(SimTime::from_millis(10)).unwrap();
        assert!(
            d.iter().any(|x| matches!(
                x,
                SupervisorDecision::Restart { component, .. } if component == "a"
            )),
            "{d:?}"
        );
        assert_eq!(s.epoch(), 1, "no promotion happened");
    }

    #[test]
    fn journal_damage_elects_a_repair_source_from_the_replica_set() {
        let mut s = Supervisor::new(&["a", "b", "c"], policy());
        s.designate_replica_set("a", &["b", "c"]);
        for n in ["a", "b", "c"] {
            s.heartbeat(n, SimTime::from_millis(9));
        }
        s.note_replica_lsn("b", 4);
        s.note_replica_lsn("c", 8);
        s.note_journal_damage("a", "crc mismatch");
        let d = s.tick(SimTime::from_millis(10)).unwrap();
        assert_eq!(
            d,
            vec![SupervisorDecision::RepairJournal {
                component: "a".into(),
                standby: "c".into(),
                reason: "crc mismatch".into(),
            }],
            "the freshest set member serves as the anti-entropy source"
        );
    }

    #[test]
    fn forced_failover_promotes_a_healthy_primary() {
        let mut s = Supervisor::new(&["a", "b"], policy());
        s.heartbeat("a", SimTime::from_millis(9));
        s.heartbeat("b", SimTime::from_millis(9));
        s.failover_to("a", "b");
        let d = s.tick(SimTime::from_millis(10)).unwrap();
        assert_eq!(
            d,
            vec![SupervisorDecision::Failover {
                component: "a".into(),
                standby: "b".into(),
                reason: "forced".into(),
                epoch: 2,
            }]
        );
        // The queue drains: no repeat on the next tick.
        s.heartbeat("b", SimTime::from_millis(11));
        assert!(s.tick(SimTime::from_millis(12)).unwrap().is_empty());
    }
}
