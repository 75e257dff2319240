//! Quorum-commit safety, property-style: across seeded random
//! minority-failure schedules over 3- and 5-node replica sets, every
//! journal record at or below the quorum commit point survives — byte
//! for byte — on whichever replica a post-crash election would promote.
//!
//! The schedule generator is the simulator's [`SimRng`] over fixed
//! seeds, keeping the suite deterministic without an external
//! property-testing dependency. Each round the schedule may crash or
//! partition replicas (never more than a strict minority at once),
//! heal them again, and interleave client calls with shipping ticks; at
//! every step the committed prefix pinned by
//! [`journal::prefix_through_lsn`] at the replicator's commit LSN must
//! be a byte-prefix of the election winner's mirror.
//!
//! The same kind of schedule also drives a [`ReplicaGroup`], which
//! crashes and partitions any member, the primary included, and carries
//! out its supervisor's failovers, revivals and rejoins itself: after
//! every supervision cycle the slice committed before it is still a
//! byte-prefix of the (possibly new) primary's journal, and no fencing
//! epoch has two primaries.

use std::collections::BTreeMap;

use mddsm_broker::journal;
use mddsm_broker::{
    BrokerModelBuilder, GenericBroker, QuorumReplicator, ReplicaGroup, ReplicaPeer,
    ReplicaSetConfig, RestartPolicy, ShipMode, Standby,
};
use mddsm_sim::net::{Link, Network};
use mddsm_sim::resource::{args, Args, Outcome};
use mddsm_sim::{LatencyModel, ResourceHub, SimDuration, SimRng, SimTime};

const ACK_TIMEOUT_US: u64 = 5_000;

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

/// A counter model whose journal grows by an op + command per call.
fn counter_model(members: &[String], quorum: u64) -> mddsm_meta::Model {
    let peers: Vec<(&str, &str, u64, u64)> = members[1..]
        .iter()
        .map(|n| (n.as_str(), "AckWindowed", 16, ACK_TIMEOUT_US))
        .collect();
    BrokerModelBuilder::new("qsafe")
        .call_handler("h", "bump")
        .action("h", "doBump", "svc", "bump", &["n=$n"], None, &["count=+1"])
        .replica_set(quorum, &peers)
        .build()
}

/// The replica a quorum election would promote: reachable (not crashed,
/// not partitioned from the set) with the longest applied prefix,
/// first-wins on ties — the supervisor's rule.
fn elect<'a>(standbys: &'a BTreeMap<String, Standby>, down: &[String]) -> Option<&'a Standby> {
    standbys
        .values()
        .filter(|s| !down.contains(&s.node().to_string()))
        .max_by(|a, b| {
            a.applied_lsn()
                .cmp(&b.applied_lsn())
                // BTreeMap iterates name-ascending; reverse the name
                // order so `max_by` keeps the *first* of equals.
                .then_with(|| b.node().cmp(a.node()))
        })
}

/// One seeded schedule over one replica set: returns the worst case the
/// run observed so the caller can assert across seeds.
fn run_schedule(seed: u64, n: usize, quorum: u64, rounds: u64) {
    let members: Vec<String> = (0..n).map(|i| format!("n{i}")).collect();
    let minority = (n - 1) / 2;
    let model = counter_model(&members, quorum);
    let mut broker = GenericBroker::from_model(&model, hub(seed)).expect("model valid");
    broker.enable_journal(8);
    let mut rep = QuorumReplicator::new(
        ReplicaSetConfig {
            quorum,
            peers: members[1..]
                .iter()
                .map(|m| ReplicaPeer {
                    node: m.clone(),
                    mode: ShipMode::AckWindowed,
                    window_records: 16,
                    ack_timeout: SimDuration::from_micros(ACK_TIMEOUT_US),
                })
                .collect(),
        },
        &members[0],
    );
    let mut standbys: BTreeMap<String, Standby> = members[1..]
        .iter()
        .map(|m| (m.clone(), Standby::new(m)))
        .collect();
    let net = Network::new(Link::default(), seed ^ 0x9a);
    let mut rng = SimRng::seed_from_u64(seed);
    // Replicas currently incapacitated (crashed or cut off). Their
    // Standby stays in the map — a crashed node keeps its durable
    // mirror — but shipping skips them.
    let mut down: Vec<String> = Vec::new();
    let mut elections = 0u64;

    for round in 0..rounds {
        let t = SimTime::from_micros(round * 20_000);

        // Mutate the failure schedule, never exceeding a strict
        // minority of the *whole* set (the primary stays up: this test
        // pins commit safety, not failover; the elected replica must
        // hold the prefix even while the primary still runs).
        if rng.chance(0.35) && down.len() < minority {
            let victim = members[1 + rng.range(0, (n - 1) as u64) as usize].clone();
            if !down.contains(&victim) {
                down.push(victim);
            }
        }
        if rng.chance(0.30) && !down.is_empty() {
            let i = rng.range(0, down.len() as u64) as usize;
            down.remove(i);
        }

        // A client call, then shipping ticks to the reachable replicas.
        let nn = round.to_string();
        broker.call("bump", &args(&[("n", &nn)])).expect("serves");
        for k in 0..3 {
            let now = SimTime::from_micros(t.as_micros() + k * ACK_TIMEOUT_US);
            let mut peers: Vec<&mut Standby> = standbys
                .iter_mut()
                .filter(|(m, _)| !down.contains(m))
                .map(|(_, s)| s)
                .collect();
            rep.tick(
                now,
                broker.epoch(),
                &net,
                broker.journal_bytes().expect("journaling on"),
                &mut peers,
            )
            .expect("shipping healthy");
            if rep.quorum_synced() {
                break;
            }
        }

        // THE PROPERTY. The committed prefix — the journal sliced at
        // the quorum commit LSN — must survive byte-identically on the
        // replica an election over the reachable set would pick.
        let commit = rep.commit_lsn();
        let committed =
            journal::prefix_through_lsn(broker.journal_bytes().expect("journaling on"), commit)
                .expect("commit lsn is inside the primary's journal");
        let winner = elect(&standbys, &down).expect("a majority is reachable");
        elections += 1;
        assert!(
            winner.journal_bytes().starts_with(committed),
            "seed {seed} n {n} round {round}: commit lsn {commit} ({} bytes) \
             not a byte-prefix of elected replica {} ({} applied, {} bytes)",
            committed.len(),
            winner.node(),
            winner.applied_lsn(),
            winner.journal_bytes().len()
        );
        assert!(
            winner.applied_lsn() >= commit,
            "seed {seed} round {round}: elected replica {} applied {} < commit {commit}",
            winner.node(),
            winner.applied_lsn()
        );
    }
    assert!(elections > 0);
}

/// 3-node sets, quorum 2, across seeded minority-failure schedules.
#[test]
fn committed_prefix_survives_election_on_3_node_sets() {
    for seed in 0..12u64 {
        run_schedule(0x3_0000 + seed, 3, 2, 60);
    }
}

/// 5-node sets, quorum 3: two replicas may be down at once and the
/// committed prefix must still be electable.
#[test]
fn committed_prefix_survives_election_on_5_node_sets() {
    for seed in 0..12u64 {
        run_schedule(0x5_0000 + seed, 5, 3, 60);
    }
}

/// One seeded minority-failure schedule over a [`ReplicaGroup`] of `n`
/// nodes: each round may crash any member or partition it (never more
/// than a strict minority down at once, counting members awaiting
/// rejoin), heal a partition, and issue a gated call; every third round
/// the group supervises. Returns the failovers it performed.
fn run_group_schedule(seed: u64, n: usize, quorum: u64, rounds: u64) -> u64 {
    let members: Vec<String> = (0..n).map(|i| format!("n{i}")).collect();
    let minority = (n - 1) / 2;
    let model = counter_model(&members, quorum);
    let mut primary = GenericBroker::from_model(&model, hub(seed)).expect("model valid");
    primary.enable_journal(8);
    let policy = RestartPolicy {
        max_restarts: 10_000,
        window: SimDuration::from_millis(1),
        stall_after: SimDuration::from_millis(1_000_000),
    };
    let count = |s: &mddsm_broker::StateManager| s.int("count").unwrap_or(0) as u64;
    let mut g = ReplicaGroup::new(
        &model,
        "n0",
        primary,
        &[],
        policy,
        move |salt| hub(seed ^ salt),
        count,
    )
    .expect("group builds");
    let net = Network::new(Link::default(), seed ^ 0x9a);
    let mut rng = SimRng::seed_from_u64(seed);
    let mut cut: Vec<String> = Vec::new();

    for round in 0..rounds {
        let t = g.now();
        let down: Vec<&String> = members
            .iter()
            .filter(|m| {
                cut.contains(m)
                    || g.supervisor().awaiting_rejoin(m)
                    || g.supervisor().state().int(&format!("crashed_{m}")) == Some(1)
            })
            .collect();
        let up: Vec<String> = members
            .iter()
            .filter(|m| !down.contains(m))
            .cloned()
            .collect();
        let room = down.len() < minority;
        let victim = up[rng.range(0, up.len() as u64) as usize].clone();
        if room && rng.chance(0.12) {
            g.faults().crash_component(&victim);
        } else if room && rng.chance(0.12) {
            net.partition_node(&victim);
            cut.push(victim);
        } else if !cut.is_empty() && rng.chance(0.25) {
            let healed = cut.remove(rng.range(0, cut.len() as u64) as usize);
            net.heal_node(&healed);
        }
        g.apply_faults(t, &net).expect("faults apply");
        g.observe(t, &net);

        if round % 3 == 0 {
            let commit = g.replicator().commit_lsn();
            let committed = journal::prefix_through_lsn(
                g.primary().journal_bytes().expect("journaling on"),
                commit,
            )
            .expect("commit lsn is inside the primary's journal")
            .to_vec();
            g.supervise(t, &net)
                .expect("the group carries out its decisions");
            let now_primary = g.primary().journal_bytes().expect("journaling on");
            assert!(
                now_primary.starts_with(&committed),
                "seed {seed} n {n} round {round}: the slice committed at lsn {commit} \
                 ({} bytes) is not a byte-prefix of primary {}'s journal ({} bytes)",
                committed.len(),
                g.primary_node(),
                now_primary.len()
            );
            let epochs: Vec<u64> = g
                .supervisor()
                .promotions()
                .iter()
                .map(|(e, _)| *e)
                .collect();
            assert!(
                epochs.windows(2).all(|w| w[0] < w[1]),
                "seed {seed} round {round}: two promotions share an epoch: {epochs:?}"
            );
        }

        if !g.primary_down() && g.drain(t, 3, &net).expect("shipping healthy") {
            let nn = round.to_string();
            let r = g
                .primary_mut()
                .call("bump", &args(&[("n", &nn)]))
                .expect("serves");
            if g.drain(g.now(), 3, &net).expect("shipping healthy") {
                g.commit(&r.action);
            }
        }
        g.advance_clock(SimDuration::from_millis(20));
    }
    let r = g.report().expect("the journal audits");
    assert!(
        r.one_primary_per_epoch,
        "seed {seed}: the online property tripped"
    );
    assert_eq!(
        r.committed_lost, 0,
        "seed {seed}: a committed update was lost"
    );
    assert_eq!(
        r.divergent_commits, 0,
        "seed {seed}: the committed trace diverged"
    );
    assert!(r.replay_consistent, "seed {seed}");
    assert!(r.committed > 0, "seed {seed}: nothing was ever committed");
    r.failovers
}

/// Seeded crash/partition schedules over 3- and 5-node groups: the
/// committed slice survives every failover the group carries out.
#[test]
fn a_replica_group_keeps_the_committed_prefix_across_its_own_failovers() {
    let mut failovers = 0;
    for seed in 0..8u64 {
        failovers += run_group_schedule(0x6_3000 + seed, 3, 2, 150);
        failovers += run_group_schedule(0x6_5000 + seed, 5, 3, 150);
    }
    assert!(failovers > 0, "the schedules never failed a primary over");
}

/// The pinned slice itself is stable: slicing the growing journal at a
/// fixed commit LSN always yields the same bytes (no in-place rewrite
/// of committed history).
#[test]
fn committed_slices_never_change_under_later_growth() {
    for seed in 0..6u64 {
        let members: Vec<String> = (0..3).map(|i| format!("n{i}")).collect();
        let model = counter_model(&members, 2);
        let mut broker = GenericBroker::from_model(&model, hub(seed)).expect("model valid");
        broker.enable_journal(8);
        let mut pinned: Vec<(u64, Vec<u8>)> = Vec::new();
        for round in 0..40u64 {
            let nn = round.to_string();
            broker.call("bump", &args(&[("n", &nn)])).expect("serves");
            let bytes = broker.journal_bytes().expect("journaling on");
            let head = broker.state().version();
            for (lsn, slice) in &pinned {
                assert_eq!(
                    journal::prefix_through_lsn(bytes, *lsn).expect("still inside"),
                    &slice[..],
                    "seed {seed}: committed slice at lsn {lsn} changed"
                );
            }
            if round % 7 == 0 {
                pinned.push((
                    head,
                    journal::prefix_through_lsn(bytes, head)
                        .expect("head is inside")
                        .to_vec(),
                ));
            }
        }
        assert!(pinned.len() >= 5);
    }
}

// ----- the shipping path: cost and byte fidelity -----

/// A primary on `n0` with journaling on, a replicator over `peers` and an
/// empty standby per peer.
fn replica_set(
    seed: u64,
    peers: Vec<ReplicaPeer>,
) -> (GenericBroker, QuorumReplicator, BTreeMap<String, Standby>) {
    let members: Vec<String> = std::iter::once("n0".to_owned())
        .chain(peers.iter().map(|p| p.node.clone()))
        .collect();
    let mut broker =
        GenericBroker::from_model(&counter_model(&members, 2), hub(seed)).expect("model valid");
    broker.enable_journal(8);
    let standbys = peers
        .iter()
        .map(|p| (p.node.clone(), Standby::new(&p.node)))
        .collect();
    let rep = QuorumReplicator::new(ReplicaSetConfig { quorum: 2, peers }, "n0");
    (broker, rep, standbys)
}

fn peer(node: &str, mode: ShipMode, window_records: u64) -> ReplicaPeer {
    ReplicaPeer {
        node: node.to_owned(),
        mode,
        window_records,
        ack_timeout: SimDuration::from_micros(ACK_TIMEOUT_US),
    }
}

fn bump(broker: &mut GenericBroker, n: u64) {
    broker
        .call("bump", &args(&[("n", &n.to_string())]))
        .expect("serves");
}

fn tick(
    rep: &mut QuorumReplicator,
    now: SimTime,
    net: &Network,
    broker: &GenericBroker,
    standbys: &mut BTreeMap<String, Standby>,
) -> mddsm_broker::QuorumShipReport {
    let mut peers: Vec<&mut Standby> = standbys.values_mut().collect();
    rep.tick(
        now,
        broker.epoch(),
        net,
        broker.journal_bytes().expect("journaling on"),
        &mut peers,
    )
    .expect("shipping healthy")
}

/// Journal lines appended past byte `*seen`; advances `*seen` to the end.
fn new_lines(broker: &GenericBroker, seen: &mut usize) -> u64 {
    let journal = broker.journal_bytes().expect("journaling on");
    let n = journal[*seen..].iter().filter(|&&b| b == b'\n').count();
    *seen = journal.len();
    n as u64
}

/// A tick's work is the lines it ships, not the history behind them:
/// with 10 000 records already synced, a tick over `k` new lines ships
/// exactly `k` per lane, and an idle tick ships nothing.
#[test]
fn a_tick_ships_only_the_new_lines_however_long_the_history() {
    let (mut broker, mut rep, mut standbys) = replica_set(
        7,
        vec![
            peer("n1", ShipMode::AckWindowed, 32),
            peer("n2", ShipMode::Async, 32),
        ],
    );
    let net = Network::new(Link::default(), 7);
    let mut calls = 0u64;
    let (mut lines, mut seen) = (0u64, 0usize);
    while lines < 10_000 {
        bump(&mut broker, calls);
        calls += 1;
        lines += new_lines(&broker, &mut seen);
        if calls.is_multiple_of(4) {
            tick(&mut rep, SimTime::ZERO, &net, &broker, &mut standbys);
            assert!(rep.synced(), "a lossless tick under the window syncs");
        }
    }
    tick(&mut rep, SimTime::ZERO, &net, &broker, &mut standbys);
    assert!(rep.synced());

    for round in 0..20u64 {
        for i in 0..=round % 3 {
            bump(&mut broker, calls + i);
        }
        calls += round % 3 + 1;
        let k = new_lines(&broker, &mut seen);
        let report = tick(&mut rep, SimTime::ZERO, &net, &broker, &mut standbys);
        assert_eq!(report.shipped, 2 * k, "round {round}: k = {k} per lane");
        assert_eq!(report.newly_acked, 2 * k);
        assert_eq!(report.retransmitted, 0);
        assert!(rep.synced());
        let idle = tick(&mut rep, SimTime::ZERO, &net, &broker, &mut standbys);
        assert_eq!(idle.shipped, 0, "nothing new, nothing shipped");
    }
    for sb in standbys.values() {
        assert_eq!(sb.journal_bytes(), broker.journal_bytes().unwrap());
    }
}

/// A lane never re-ships what its peer already acknowledged. A peer
/// rejoining with a full mirror re-acks the whole journal on the first
/// line it is shipped, which moves the lane's acked cursor past the
/// lines it has shipped so far; the next tick must start from that
/// cursor, not from the shipped one.
#[test]
fn a_rejoined_full_mirror_is_not_reshipped_what_it_acked() {
    let (mut broker, mut rep, mut standbys) =
        replica_set(11, vec![peer("n1", ShipMode::AckWindowed, 8)]);
    let net = Network::new(Link::default(), 11);
    for n in 0..20 {
        bump(&mut broker, n);
    }
    for _ in 0..20 {
        tick(&mut rep, SimTime::ZERO, &net, &broker, &mut standbys);
    }
    assert!(rep.synced());

    let journal = broker.journal_bytes().unwrap();
    let mirror = Standby::from_mirror("n2", journal, broker.epoch()).expect("mirror replays");
    standbys.insert("n2".into(), mirror);
    rep.add_peer(peer("n2", ShipMode::AckWindowed, 4));
    let first = tick(&mut rep, SimTime::ZERO, &net, &broker, &mut standbys);
    assert!(first.shipped <= 4, "the window bounds the first batch");
    assert!(rep.synced(), "the first re-ack covers the whole journal");
    let second = tick(&mut rep, SimTime::ZERO, &net, &broker, &mut standbys);
    assert_eq!(second.shipped, 0, "every line is acked: nothing to ship");
    assert_eq!(second.retransmitted, 0);
    assert_eq!(
        standbys["n2"].journal_bytes(),
        broker.journal_bytes().unwrap()
    );
}

/// The bytes the replicator has ingested: the primary's journal as
/// appended, with nothing removed by truncation.
struct History {
    bytes: Vec<u8>,
    /// Length of the primary's journal already copied into `bytes`.
    seen: usize,
}

impl History {
    fn catch_up(&mut self, broker: &GenericBroker) {
        let journal = broker.journal_bytes().expect("journaling on");
        self.bytes.extend_from_slice(&journal[self.seen..]);
        self.seen = journal.len();
        assert!(
            self.bytes.ends_with(journal),
            "the primary's journal is a suffix of its history"
        );
    }
}

/// Seeded schedules over lossy links, mixed lane modes, small windows and
/// ack timeouts, with peers reset, added and the primary truncated: after
/// every tick each mirror is a byte-prefix of the shipped history, and
/// after a lossless drain every mirror is that history, byte for byte.
#[test]
fn mirrors_stay_byte_prefixes_of_the_shipped_history() {
    for seed in 0..16u64 {
        let mut rng = SimRng::seed_from_u64(0x0541_0000 + seed);
        let mode = |rng: &mut SimRng| {
            if rng.chance(0.5) {
                ShipMode::Async
            } else {
                ShipMode::AckWindowed
            }
        };
        let peers = (1..=2)
            .map(|i| {
                let m = mode(&mut rng);
                peer(&format!("n{i}"), m, rng.range(1, 5))
            })
            .collect();
        let (mut broker, mut rep, mut standbys) = replica_set(seed, peers);
        let loss = Link {
            loss: 0.05 + 0.25 * rng.unit(),
            ..Link::default()
        };
        let net = Network::new(loss, seed ^ 0x1055);
        let mut history = History {
            bytes: Vec::new(),
            seen: 0,
        };
        let mut now = 0u64;
        let mut truncated = false;

        for round in 0..120u64 {
            for _ in 0..rng.range(0, 3) {
                bump(&mut broker, round);
            }
            history.catch_up(&broker);
            // Some ticks come before the ack timeout, some after it.
            now += rng.range(0, 2 * ACK_TIMEOUT_US);
            tick(
                &mut rep,
                SimTime::from_micros(now),
                &net,
                &broker,
                &mut standbys,
            );
            for sb in standbys.values() {
                assert!(
                    history.bytes.starts_with(sb.journal_bytes()),
                    "seed {seed} round {round}: {} mirror ({} bytes) is not a prefix \
                     of the shipped history ({} bytes)",
                    sb.node(),
                    sb.journal_bytes().len(),
                    history.bytes.len()
                );
            }

            if rng.chance(0.04) {
                // A replica loses its disk: revive it empty, rewind its lane.
                let node = format!("n{}", rng.range(1, standbys.len() as u64 + 1));
                standbys.insert(node.clone(), Standby::new(&node));
                assert!(rep.reset_peer(&node));
            }
            if rng.chance(0.03) && standbys.len() < 4 {
                // A new replica joins from a copy of an existing mirror.
                let node = format!("n{}", standbys.len() + 1);
                let source = standbys.values().next().expect("a peer").journal_bytes();
                let joined =
                    Standby::from_mirror(&node, source, broker.epoch()).expect("mirror replays");
                standbys.insert(node.clone(), joined);
                let m = mode(&mut rng);
                rep.add_peer(peer(&node, m, rng.range(1, 5)));
            }
            // Odd seeds also truncate, so even seeds can compare the
            // drained mirrors with the primary's journal itself.
            if seed % 2 == 1 && rng.chance(0.08) {
                let reclaimed = rep.truncate_primary(&mut broker);
                history.seen -= reclaimed;
                truncated |= reclaimed > 0;
                history.catch_up(&broker);
            }
        }

        // Drain over healed links: every mirror converges on the history.
        for (from, to) in net.link_stats_all().into_iter().map(|(pair, _)| pair) {
            net.set_link_loss(&from, &to, 0.0);
        }
        for _ in 0..400 {
            if rep.synced() {
                break;
            }
            now += ACK_TIMEOUT_US;
            tick(
                &mut rep,
                SimTime::from_micros(now),
                &net,
                &broker,
                &mut standbys,
            );
        }
        assert!(rep.synced(), "seed {seed}: lossless links drain every lane");
        assert_eq!(truncated, seed % 2 == 1, "seed {seed}: odd seeds truncate");
        for sb in standbys.values() {
            assert_eq!(
                sb.journal_bytes(),
                &history.bytes[..],
                "seed {seed}: {} mirror differs from the shipped history",
                sb.node()
            );
            if seed.is_multiple_of(2) {
                assert_eq!(sb.journal_bytes(), broker.journal_bytes().unwrap());
            }
        }
    }
}

/// Truncating the primary leaves the shipped history intact: a replica
/// rebuilt afterwards is re-shipped the pre-truncation records too, byte
/// for byte, and recovers the primary's state from them.
#[test]
fn reset_peer_after_truncation_reships_the_pre_truncation_history() {
    let (mut broker, mut rep, mut standbys) = replica_set(
        3,
        vec![
            peer("n1", ShipMode::AckWindowed, 8),
            peer("n2", ShipMode::AckWindowed, 8),
        ],
    );
    let net = Network::new(Link::default(), 3);
    let drain = |rep: &mut QuorumReplicator,
                 broker: &GenericBroker,
                 standbys: &mut BTreeMap<String, Standby>| {
        for _ in 0..100 {
            tick(rep, SimTime::ZERO, &net, broker, standbys);
            if rep.synced() {
                return;
            }
        }
        panic!("lossless lanes drain");
    };
    for n in 0..30 {
        bump(&mut broker, n);
    }
    drain(&mut rep, &broker, &mut standbys);
    let before = broker.journal_bytes().unwrap().to_vec();
    let reclaimed = rep.truncate_primary(&mut broker);
    assert!(reclaimed > 0, "committed history behind a snapshot is cut");
    for n in 30..40 {
        bump(&mut broker, n);
    }
    drain(&mut rep, &broker, &mut standbys);
    let mut history = before.clone();
    history.extend_from_slice(&broker.journal_bytes().unwrap()[before.len() - reclaimed..]);

    standbys.insert("n2".into(), Standby::new("n2"));
    assert!(rep.reset_peer("n2"));
    drain(&mut rep, &broker, &mut standbys);
    let rebuilt = &standbys["n2"];
    assert!(rebuilt.journal_bytes().starts_with(&before));
    assert_eq!(rebuilt.journal_bytes(), &history[..]);
    assert_eq!(rebuilt.journal_bytes(), standbys["n1"].journal_bytes());
    assert_eq!(broker.state().first_divergence(rebuilt.state()), None);
}
