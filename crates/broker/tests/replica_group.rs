//! A `ReplicaGroup` carries out each of its supervisor's decisions:
//! one test per decision, on small counter groups over a lossless
//! network, through the group's public API only.

use mddsm_broker::group::RESTART_PENALTY_US;
use mddsm_broker::journal;
use mddsm_broker::{BrokerModelBuilder, GenericBroker, ReplicaGroup, RestartPolicy, StateManager};
use mddsm_sim::fault::flip_bit;
use mddsm_sim::net::{Link, Network};
use mddsm_sim::resource::{args, Args, Outcome};
use mddsm_sim::{LatencyModel, ResourceHub, SimDuration, SimTime};

const INVARIANTS: &[&str] = &["self.count = null or self.count >= 0"];

fn hub(seed: u64) -> ResourceHub {
    let mut h = ResourceHub::new(seed);
    h.register(
        "svc",
        LatencyModel::fixed_ms(2),
        SimDuration::from_millis(250),
        Box::new(|_: &str, _: &Args| Outcome::ok()),
    );
    h
}

fn count(state: &StateManager) -> u64 {
    state.int("count").unwrap_or(0) as u64
}

/// A counter group over `n` nodes `n0..`, quorum 2 when replicated.
fn group(n: usize) -> ReplicaGroup {
    let peers: Vec<String> = (1..n).map(|i| format!("n{i}")).collect();
    let lanes: Vec<(&str, &str, u64, u64)> = peers
        .iter()
        .map(|p| (p.as_str(), "AckWindowed", 16, 5_000))
        .collect();
    let mut b = BrokerModelBuilder::new("g")
        .call_handler("h", "bump")
        .action("h", "doBump", "svc", "bump", &["n=$n"], None, &["count=+1"]);
    if n > 1 {
        b = b.replica_set(2, &lanes);
    }
    let model = b.build();
    let mut primary = GenericBroker::from_model(&model, hub(1)).unwrap();
    primary.enable_journal(8);
    let policy = RestartPolicy {
        max_restarts: 100,
        window: SimDuration::from_millis(1),
        stall_after: SimDuration::from_millis(1_000_000),
    };
    ReplicaGroup::new(&model, "n0", primary, INVARIANTS, policy, hub, count).unwrap()
}

/// `calls` calls on the primary, each shipped and committed when a
/// quorum acknowledged it.
fn serve(g: &mut ReplicaGroup, net: &Network, calls: u64) {
    for i in 0..calls {
        let r = g
            .primary_mut()
            .call("bump", &args(&[("n", &i.to_string())]))
            .unwrap();
        if g.drain(g.now(), 3, net).unwrap() {
            g.commit(&r.action);
        }
        g.advance_clock(SimDuration::from_millis(20));
    }
}

fn crash(g: &mut ReplicaGroup, node: &str, net: &Network) {
    g.faults().crash_component(node);
    g.apply_faults(g.now(), net).unwrap();
}

#[test]
fn a_crashed_primary_promotes_the_longest_prefix_under_a_bumped_epoch() {
    let mut g = group(3);
    let net = Network::new(Link::default(), 1);
    serve(&mut g, &net, 4);
    // n2 misses the next calls, then heals before anyone ships again.
    net.partition_node("n2");
    serve(&mut g, &net, 4);
    net.heal_node("n2");
    assert!(g.standby("n1").unwrap().applied_lsn() > g.standby("n2").unwrap().applied_lsn());
    let committed = g.report().unwrap().committed;
    crash(&mut g, "n0", &net);
    assert!(g.primary_down());
    assert!(g.supervise(g.now(), &net).unwrap().is_empty());
    assert_eq!(g.primary_node(), "n1");
    assert_eq!(g.primary().epoch(), 2);
    assert_eq!(g.supervisor().epoch(), 2);
    assert_eq!(count(g.primary().state()), committed);
    assert_eq!(
        g.standby("n2").unwrap().epoch(),
        2,
        "the survivor is fenced"
    );
    assert_eq!(g.parked_node(), None, "a crashed primary is retired");
    let r = g.report().unwrap();
    assert_eq!((r.failovers, r.committed_lost), (1, 0));
    assert!(r.mean_failover_ms >= RESTART_PENALTY_US as f64 / 1000.0);
    assert!(r.one_primary_per_epoch && r.replay_consistent);
}

#[test]
fn a_partitioned_primary_is_parked_then_fenced_and_reconciled() {
    let mut g = group(3);
    let net = Network::new(Link::default(), 2);
    serve(&mut g, &net, 5);
    net.partition_node("n0");
    // The cut primary still runs and journals writes nobody sees.
    serve(&mut g, &net, 2);
    g.supervise(g.now(), &net).unwrap();
    assert_eq!(g.primary_node(), "n1");
    assert_eq!(g.parked_node(), Some("n0"));
    serve(&mut g, &net, 3);
    net.heal_node("n0");
    g.supervise(g.now(), &net).unwrap();
    assert_eq!(g.parked_node(), None);
    let r = g.report().unwrap();
    assert!(r.fenced_events > 0, "a survivor refused the stale journal");
    assert_eq!((r.reconciles, r.rejoins), (1, 1));
    assert!(r.discarded_stale_lines > 0);
    assert_eq!(
        g.standby("n0").unwrap().journal_bytes(),
        g.primary().journal_bytes().unwrap(),
        "the rejoined node mirrors the authoritative journal"
    );
    assert!(!g.supervisor().awaiting_rejoin("n0"));
}

#[test]
fn a_crashed_replica_is_revived_from_its_durable_mirror() {
    let mut g = group(3);
    let net = Network::new(Link::default(), 3);
    serve(&mut g, &net, 5);
    let mirror = g.standby("n2").unwrap().journal_bytes().to_vec();
    crash(&mut g, "n2", &net);
    assert!(g.standby("n2").is_none());
    serve(&mut g, &net, 5);
    g.supervise(g.now(), &net).unwrap();
    assert_eq!(g.standby("n2").unwrap().journal_bytes(), &mirror[..]);
    assert_eq!(g.replicator().acked_lsn("n2"), 0, "its lane is rewound");
    let r = g.report().unwrap();
    assert_eq!((r.replica_revivals, r.standby_resyncs), (1, 0));
    for k in 0..10 {
        g.tick(SimTime::from_micros(g.now().as_micros() + k * 5_000), &net)
            .unwrap();
    }
    assert!(
        g.replicator().synced(),
        "the rewound lane re-ships the rest"
    );
    assert_eq!(
        g.standby("n2").unwrap().journal_bytes(),
        g.primary().journal_bytes().unwrap()
    );
}

#[test]
fn a_zero_peer_group_restarts_fresh() {
    let mut g = group(1);
    let net = Network::new(Link::default(), 4);
    serve(&mut g, &net, 6);
    assert_eq!(
        g.report().unwrap().committed,
        6,
        "the primary alone commits"
    );
    crash(&mut g, "n0", &net);
    g.supervise(g.now(), &net).unwrap();
    assert!(!g.primary_down());
    assert_eq!(count(g.primary().state()), 0);
    let r = g.report().unwrap();
    assert_eq!((r.restarts, r.failovers, r.committed_lost), (1, 0, 6));
    assert!(r.mean_failover_ms >= RESTART_PENALTY_US as f64 / 1000.0);
}

#[test]
fn a_noted_monitor_trip_is_quarantined() {
    let mut g = group(3);
    let net = Network::new(Link::default(), 5);
    serve(&mut g, &net, 5);
    let before = g.primary().state().version();
    g.supervisor_mut().note_monitor_trip("n0", "nonneg");
    g.supervise(g.now(), &net).unwrap();
    assert_eq!(g.report().unwrap().snapshot_rollbacks, 1);
    assert!(g.primary().state().version() < before, "rolled back");
    assert_eq!(g.primary_node(), "n0", "quarantine is not a failover");
}

#[test]
fn noted_journal_damage_is_repaired_from_a_replica() {
    let mut g = group(3);
    let net = Network::new(Link::default(), 6);
    serve(&mut g, &net, 10);
    let pristine = g.primary().journal_bytes().unwrap().to_vec();
    let damaged = flip_bit(&pristine, pristine.len() as u64 / 3);
    assert!(journal::replay(&damaged).is_err(), "interior damage");
    g.note_journal_damage(damaged, "crc mismatch");
    g.supervise(g.now(), &net).unwrap();
    let r = g.report().unwrap();
    assert_eq!(r.anti_entropy_repairs, 1);
    assert_eq!(count(g.primary().state()), 10);
    assert!(g.primary().journal_bytes().unwrap().starts_with(&pristine));
    assert!(r.replay_consistent);
}
