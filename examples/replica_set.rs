//! Quorum-replicated models@runtime end-to-end: a broker model declares
//! a 3-node replica set, a `ReplicaGroup` built *from the model* ships
//! the journal to both peers and advances the majority commit point, the
//! primary is killed, and one supervision cycle has the group elect the
//! replica with the longest quorum-committed prefix, promote it under a
//! bumped fencing epoch, and keep serving — without losing a single
//! committed update.
//!
//! The replica-set topology walked here is the same one the
//! `analyze_models` CI gate checks (`bench-e15-3`), so a malformed set
//! is refused at load time, never discovered at the first failover.
//!
//! ```text
//! cargo run --example replica_set
//! ```

use bench::e15::{e15_broker_model, INVARIANTS, NODES3};
use mddsm::broker::{GenericBroker, ReplicaGroup, RestartPolicy, StateManager};
use mddsm::sim::net::{Link, Network};
use mddsm::sim::resource::{args, Args, Outcome};
use mddsm::sim::{LatencyModel, ResourceHub, SimDuration};

fn hub(seed: u64) -> ResourceHub {
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

/// How many client updates a runtime model holds.
fn served(state: &StateManager) -> u64 {
    (state.int("served_alpha").unwrap_or(0) + state.int("served_beta").unwrap_or(0)) as u64
}

fn main() {
    // The replica set is part of the broker model: node `a` serves,
    // `b` and `c` mirror its journal, and 2 of 3 make a quorum.
    let model = e15_broker_model(NODES3, 2);
    let mut primary = GenericBroker::from_model(&model, hub(7)).expect("model valid");
    primary.enable_journal(8);
    let mut group = ReplicaGroup::new(
        &model,
        "a",
        primary,
        INVARIANTS,
        RestartPolicy::default(),
        hub,
        served,
    )
    .expect("the model declares a valid replica set");
    let net = Network::new(Link::default(), 7);
    println!(
        "replica set from the model: primary a, peers {:?}, quorum {}",
        group.replicator().peer_nodes(),
        group.replicator().quorum()
    );

    // Serve traffic; after each call, ship the journal and commit the
    // call once a majority acknowledged it.
    for i in 0..6 {
        let n = i.to_string();
        let r = group
            .primary_mut()
            .call("op", &args(&[("n", &n)]))
            .expect("serves");
        if group.drain(group.now(), 3, &net).expect("shipping healthy") {
            group.commit(&r.action);
        }
        group.advance_clock(SimDuration::from_millis(20));
    }
    let rep = group.replicator();
    println!(
        "served 6 calls: commit lsn {}, acked b={} c={}, quorum synced: {}",
        rep.commit_lsn(),
        rep.acked_lsn("b"),
        rep.acked_lsn("c"),
        rep.quorum_synced()
    );

    // Kill the primary. One supervision cycle: the supervisor bumps the
    // fencing epoch and elects the replica with the longest
    // quorum-committed prefix; the group promotes it and re-parents the
    // survivor.
    group.faults().crash_component("a");
    let t = group.now();
    group.apply_faults(t, &net).expect("the crash applies");
    group
        .supervise(t, &net)
        .expect("the group carries out its decisions");
    println!(
        "\nprimary a crashed; the group promoted {} under epoch {} (state version {})",
        group.primary_node(),
        group.primary().epoch(),
        group.primary().state().version()
    );

    group
        .primary_mut()
        .call("op", &args(&[("n", "6")]))
        .expect("serves on");
    let report = group.report().expect("the journal audits");
    let state = group.primary().state();
    println!(
        "new primary serves on: served_alpha={} served_beta={}, committed {} lost {}",
        state.int("served_alpha").unwrap_or(0),
        state.int("served_beta").unwrap_or(0),
        report.committed,
        report.committed_lost
    );
}
