//! Quorum-replicated models@runtime end-to-end: a broker model declares
//! a 3-node replica set, the quorum replicator (built *from the model*)
//! ships the journal to both peers and advances the majority commit
//! point, the primary is killed, the supervisor elects the replica with
//! the longest quorum-committed prefix under a bumped fencing epoch, and
//! the promoted node keeps serving — without losing a single committed
//! update.
//!
//! The replica-set topology walked here is the same one the
//! `analyze_models` CI gate checks (`bench-e15-3`), so a malformed set
//! is refused at load time, never discovered at the first failover.
//!
//! ```text
//! cargo run --example replica_set
//! ```

use bench::e15::{e15_broker_model, INVARIANTS, NODES3};
use mddsm::broker::replication::Standby;
use mddsm::broker::supervisor::Supervisor;
use mddsm::broker::{GenericBroker, QuorumReplicator, RestartPolicy};
use mddsm::sim::fault::ComponentTarget;
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

fn main() {
    // The replica set is part of the broker model: node `a` serves,
    // `b` and `c` mirror its journal, and 2 of 3 make a quorum.
    let model = e15_broker_model(NODES3, 2);
    let mut broker = GenericBroker::from_model(&model, hub(7)).expect("model valid");
    broker.enable_journal(8);
    let mut rep = QuorumReplicator::from_model(&model, "a")
        .expect("replica set parses")
        .expect("the model declares a replica set");
    let mut standbys = vec![Standby::new("b"), Standby::new("c")];
    let net = Network::new(Link::default(), 7);
    println!(
        "replica set from the model: primary a, peers {:?}, quorum {}",
        rep.peer_nodes(),
        rep.quorum()
    );

    // Serve traffic; after each call, ship the journal and watch the
    // quorum commit LSN follow the majority of acknowledgements.
    for i in 0..6 {
        let n = i.to_string();
        broker.call("op", &args(&[("n", &n)])).expect("serves");
        let mut peers: Vec<&mut Standby> = standbys.iter_mut().collect();
        rep.tick(
            broker.now(),
            broker.epoch(),
            &net,
            broker.journal_bytes().expect("journaling on"),
            &mut peers,
        )
        .expect("shipping healthy");
        broker.advance_clock(SimDuration::from_millis(20));
    }
    println!(
        "served 6 calls: commit lsn {}, acked b={} c={}, quorum synced: {}",
        rep.commit_lsn(),
        rep.acked_lsn("b"),
        rep.acked_lsn("c"),
        rep.quorum_synced()
    );

    // Kill the primary. The supervisor notices the silence, bumps the
    // fencing epoch, and elects the replica with the longest
    // quorum-committed prefix.
    let mut supervisor = Supervisor::new(NODES3, RestartPolicy::default());
    supervisor.designate_replica_set("a", &["b", "c"]);
    ComponentTarget::crash_component(&mut supervisor, "a");
    for sb in &standbys {
        supervisor.note_replica_lsn(sb.node(), sb.applied_lsn());
    }
    let t = broker.now();
    let decisions = supervisor.tick(t).expect("symptoms evaluate");
    println!("\nprimary a crashed; supervisor decides: {decisions:?}");

    // Promote the elected replica and keep serving under the new epoch.
    let mut elected = standbys.remove(0);
    let epoch = supervisor.epoch();
    let (mut promoted, report) = elected
        .promote(epoch, &model, broker.into_hub(), INVARIANTS)
        .expect("promotion recovers from the mirror");
    println!(
        "promoted b under epoch {epoch}: replayed {} ops + {} commands, state version {}",
        report.ops_replayed,
        report.commands_replayed,
        promoted.state().version()
    );
    promoted
        .call("op", &args(&[("n", "6")]))
        .expect("serves on");
    println!(
        "new primary serves on: served_alpha={} served_beta={} (no committed update lost)",
        promoted.state().int("served_alpha").unwrap_or(0),
        promoted.state().int("served_beta").unwrap_or(0)
    );
}
