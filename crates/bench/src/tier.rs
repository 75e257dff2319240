//! The tier flip-flop workload E9 and E15 share, and the call loop that
//! drives a [`ReplicaGroup`] with it.
//!
//! Routing depends on journaled state (`tier` alternates between the
//! `alpha` and `beta` actions), so lost history visibly diverges the
//! command trace. The loop delivers the campaign's due faults, feeds the
//! supervisor every call and lets the group supervise every
//! [`SUPERVISE_EVERY`] calls, gates each call on the replicas, and
//! commits what a quorum acknowledged; the group carries out every
//! recovery itself.

use mddsm_broker::{BrokerModelBuilder, GenericBroker, ReplicaGroup, RestartPolicy, StateManager};
use mddsm_meta::Model;
use mddsm_sim::fault::FaultDriver;
use mddsm_sim::net::Network;
use mddsm_sim::resource::{args, Args, Outcome};
use mddsm_sim::{LatencyModel, ResourceHub, SimDuration};

/// Calls between supervisor monitoring cycles — the control plane is
/// slower than the data plane, so a fault goes undetected for up to this
/// many calls (that window is where async shipping loses writes).
pub const SUPERVISE_EVERY: u64 = 5;
/// Drain rounds the primary attempts per call before declaring the
/// quorum unreachable.
pub const DRAIN_ROUNDS: u64 = 3;

/// Invariants every promotion, reconciliation, and repair must
/// re-establish.
pub const INVARIANTS: &[&str] = &[
    "self.tier = null or self.tier = \"alpha\" or self.tier = \"beta\"",
    "self.served_alpha = null or self.served_alpha >= 0",
    "self.served_beta = null or self.served_beta >= 0",
];

/// The two resources the tier actions call.
pub fn hub(seed: u64) -> ResourceHub {
    let mut h = ResourceHub::new(seed);
    for (name, ms) in [("sim.alpha", 3), ("sim.beta", 5)] {
        h.register(
            name,
            LatencyModel::fixed_ms(ms),
            SimDuration::from_millis(250),
            Box::new(|_: &str, _: &Args| Outcome::ok()),
        );
    }
    h
}

/// The tier flip-flop broker model, ready for a replica set or monitors.
pub fn model(name: &str) -> BrokerModelBuilder {
    BrokerModelBuilder::new(name)
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
        )
}

/// Sum of the serve counters — how many committed updates a runtime
/// model actually holds.
pub fn applied_updates(state: &StateManager) -> u64 {
    (state.int("served_alpha").unwrap_or(0) + state.int("served_beta").unwrap_or(0)) as u64
}

/// A group over `model` with its first primary on node `a`, journaling
/// every `snapshot_every` entries. Liveness comes from the crash and
/// partition flags the campaign raises, not heartbeat staleness, so the
/// stall deadline is parked beyond `horizon`; the 1 ms restart window
/// keeps a partitioned replica's repeated restart decisions from ever
/// escalating.
pub fn group(model: &Model, snapshot_every: u64, seed: u64, horizon: SimDuration) -> ReplicaGroup {
    let mut primary = GenericBroker::from_model(model, hub(seed)).expect("tier model valid");
    primary.enable_journal(snapshot_every);
    let policy = RestartPolicy {
        max_restarts: 10_000,
        window: SimDuration::from_millis(1),
        stall_after: SimDuration::from_micros(4 * horizon.as_micros()),
    };
    ReplicaGroup::new(
        model,
        "a",
        primary,
        INVARIANTS,
        policy,
        move |salt| hub(seed ^ salt),
        applied_updates,
    )
    .expect("the model's replica set is valid")
}

/// Client-side tallies of [`serve`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Served {
    /// Calls the primary executed successfully.
    pub served: u64,
    /// Calls refused by the commit gate (quorum unreachable).
    pub rejected: u64,
    /// Calls that found the primary dead (crash not yet detected).
    pub failed_dead: u64,
    /// Calls executed but never quorum-acknowledged: the client is told
    /// "uncertain", never "committed".
    pub uncertain: u64,
}

/// Issues `calls` calls `period_ms` virtual ms apart against `group`
/// while `driver`'s campaign runs. With `gate`, the primary refuses a
/// call it could not quorum-commit; without it, calls run first and ship
/// after.
pub fn serve(
    group: &mut ReplicaGroup,
    driver: &mut FaultDriver,
    net: &Network,
    calls: u64,
    period_ms: u64,
    gate: bool,
) -> Served {
    let mut s = Served::default();
    for i in 0..calls {
        let t = group.now();
        group
            .deliver(driver, t, net)
            .expect("campaign faults apply");
        group.observe(t, net);
        if i % SUPERVISE_EVERY == 0 {
            group
                .supervise(t, net)
                .expect("the group carries out its decisions");
        }
        if group.primary_down() {
            s.failed_dead += 1;
        } else if gate
            && !group
                .drain(t, DRAIN_ROUNDS, net)
                .expect("shipping is healthy")
        {
            s.rejected += 1;
        } else {
            match group
                .primary_mut()
                .call("op", &args(&[("n", &i.to_string())]))
            {
                Ok(r) => {
                    let ok = r.outcome.is_ok();
                    let acked = group
                        .drain(group.now(), DRAIN_ROUNDS, net)
                        .expect("shipping is healthy");
                    s.served += u64::from(ok);
                    if ok && acked {
                        group.commit(&r.action);
                    } else if ok {
                        s.uncertain += 1;
                    }
                }
                // A latched monitor refuses the call: quarantine.
                Err(_) => group.quarantine().expect("a trip-free snapshot exists"),
            }
        }
        group.advance_clock(SimDuration::from_millis(period_ms));
    }
    s
}
