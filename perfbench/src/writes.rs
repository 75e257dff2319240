//! `replicated_writes`: the durable write path on the E15 replica set.
//!
//! The primary of the 3-node, quorum-2 E15 model (`e15_broker_model`)
//! serves `call_admitted` with a CRC-framed journal at E15's snapshot
//! cadence and the model's `tierValid` monitor armed. Every
//! [`TICK_EVERY`] writes, `QuorumReplicator::tick` ships the journal to two
//! in-process `Standby`s over a lossless `Network`; a write that triggers
//! a tick pays for it. Every [`CRASH_EVERY`] writes the primary crashes
//! and restarts through `GenericBroker::recover` from its own journal.
//!
//! Each round is a fresh replica set fed the same [`WRITES`] writes, so
//! history (journal, outbox, mirrors) grows over the round and every
//! round repeats it. The journal is never truncated: `tick` filters its
//! whole retained outbox per lane, so tick cost grows with history, and
//! exposing that is what this workload is for.

use crate::ncb::replay_invocations;
use crate::stats;
use crate::trace::{self, Totals};
use crate::{Measured, Opts, Outcome, Traced};
use bench::e15::{e15_broker_model, ACK_TIMEOUT_US, INVARIANTS, NODES3, SNAPSHOT_EVERY};
use mddsm_broker::{AdmittedOutcome, CallMeta, GenericBroker, QuorumReplicator, Standby};
use mddsm_meta::model::Model;
use mddsm_sim::net::{Link, Network};
use mddsm_sim::resource::{Args, Outcome as Reply};
use mddsm_sim::{LatencyModel, ResourceHub, SimDuration, SimRng, SimTime};
use std::collections::BTreeMap;
use std::time::Instant;

/// Writes per round.
pub const WRITES: usize = 20_000;
/// Writes between replication ticks. Each write appends about three
/// journal records, so one tick's backlog stays under a lane's 32-record
/// window and lag after every tick stays bounded.
pub const TICK_EVERY: usize = 8;
/// Writes between primary crash-restarts.
pub const CRASH_EVERY: usize = 5_000;
/// Quorum of the 3-node set, counting the primary.
pub const QUORUM: u64 = 2;

/// The seeded write arguments.
pub fn generate(seed: u64) -> Vec<Args> {
    let mut rng = SimRng::seed_from_u64(seed ^ 0x0000_3217);
    (0..WRITES)
        .map(|_| vec![("n".to_owned(), rng.range(0, 1_000_000).to_string())])
        .collect()
}

/// The E15 resources: two stateless services with fixed virtual latency.
/// `traced` wraps each invocation in a `resource` span.
fn hub(seed: u64, traced: bool) -> ResourceHub {
    let mut h = ResourceHub::new(seed);
    for (name, ms) in [("sim.alpha", 3), ("sim.beta", 5)] {
        let serve: Box<dyn mddsm_sim::resource::SimResource> = if traced {
            Box::new(|_: &str, _: &Args| trace::span("resource", Reply::ok))
        } else {
            Box::new(|_: &str, _: &Args| Reply::ok())
        };
        h.register(
            name,
            LatencyModel::fixed_ms(ms),
            SimDuration::from_millis(250),
            serve,
        );
    }
    h
}

/// The system under test: primary, replicator, standbys and network.
struct ReplicaSet {
    model: Model,
    broker: GenericBroker,
    rep: QuorumReplicator,
    standbys: Vec<Standby>,
    net: Network,
}

fn build(seed: u64, traced: bool) -> Result<ReplicaSet, String> {
    let model = e15_broker_model(NODES3, QUORUM);
    let mut broker =
        GenericBroker::from_model(&model, hub(seed, traced)).map_err(|e| e.to_string())?;
    broker.enable_journal(SNAPSHOT_EVERY);
    let rep = QuorumReplicator::from_model(&model, NODES3[0])
        .map_err(|e| e.to_string())?
        .ok_or("the E15 model declares a replica set")?;
    Ok(ReplicaSet {
        model,
        broker,
        rep,
        standbys: NODES3[1..].iter().map(|n| Standby::new(n)).collect(),
        net: Network::new(Link::default(), seed ^ 0x5eed),
    })
}

/// What a round measured besides op times.
#[derive(Default)]
struct Round {
    op_us: Vec<f64>,
    loop_s: f64,
    failed: u64,
    recover_ms: Vec<f64>,
    from_model_us: Vec<f64>,
    recovery_bytes: Vec<f64>,
    ticks: u64,
    shipped: u64,
    newly_acked: u64,
    max_lag: u64,
    journal_bytes: usize,
    journal_records: usize,
    net_messages: u64,
}

impl ReplicaSet {
    fn tick(&mut self, at: SimTime, r: &mut Round) -> Result<(), String> {
        let mut peers: Vec<&mut Standby> = self.standbys.iter_mut().collect();
        let bytes = self.broker.journal_bytes().ok_or("journal is on")?;
        let report = self
            .rep
            .tick(at, self.broker.epoch(), &self.net, bytes, &mut peers)
            .map_err(|e| format!("replication tick failed: {e}"))?;
        if report.fenced > 0 {
            return Err("a standby fenced the primary".into());
        }
        r.ticks += 1;
        r.shipped += report.shipped;
        r.newly_acked += report.newly_acked;
        r.max_lag = r.max_lag.max(self.rep.lag());
        Ok(())
    }

    /// Crashes the primary and recovers it from its own journal; the
    /// recovered runtime model must equal the one before the crash.
    fn crash_restart(&mut self, seed: u64, r: &mut Round) -> Result<(), String> {
        let before = self.broker.state().snapshot();
        let bytes = self.broker.journal_bytes().ok_or("journal is on")?.to_vec();
        let placeholder =
            GenericBroker::from_model(&self.model, hub(seed, false)).map_err(|e| e.to_string())?;
        let crashed = std::mem::replace(&mut self.broker, placeholder);
        let resources = crashed.into_hub();
        let t = Instant::now();
        let (mut recovered, _) = GenericBroker::recover(&self.model, resources, &bytes, INVARIANTS)
            .map_err(|e| format!("recovery failed: {e}"))?;
        r.recover_ms.push(t.elapsed().as_secs_f64() * 1e3);
        recovered.set_snapshot_every(SNAPSHOT_EVERY);
        if recovered.state().snapshot() != before {
            return Err("recovered state differs from the state before the crash".into());
        }
        self.broker = recovered;
        let fresh = hub(seed, false);
        let (built, us) = crate::time_us(|| GenericBroker::from_model(&self.model, fresh));
        std::hint::black_box(built.map_err(|e| e.to_string())?);
        r.from_model_us.push(us);
        r.recovery_bytes.push(bytes.len() as f64);
        Ok(())
    }

    /// Ticks until every standby acknowledged everything, then checks
    /// that each one's runtime model equals the primary's.
    fn drain_and_check(&mut self, r: &mut Round) -> Result<(), String> {
        let now = self.broker.now().as_micros();
        for k in 1..=64 {
            if self.rep.synced() {
                break;
            }
            self.tick(SimTime::from_micros(now + k * ACK_TIMEOUT_US), r)?;
        }
        if !self.rep.synced() {
            return Err("standbys did not catch up after draining".into());
        }
        let journal = self.broker.journal_bytes().ok_or("journal is on")?;
        for sb in &self.standbys {
            if let Some(d) = sb.state().first_divergence(self.broker.state()) {
                return Err(format!(
                    "standby {} diverges from the primary: {d}",
                    sb.node()
                ));
            }
            if sb.journal_bytes() != journal {
                return Err(format!(
                    "standby {} mirror differs from the primary journal",
                    sb.node()
                ));
            }
        }
        if !self.broker.monitor_trips().is_empty() {
            return Err(format!(
                "{} monitor trip(s) on a clean write stream",
                self.broker.monitor_trips().len()
            ));
        }
        Ok(())
    }
}

/// Runs one round of writes on `set`.
fn round(set: &mut ReplicaSet, inputs: &[Args], seed: u64) -> Result<Round, String> {
    let mut r = Round::default();
    let mut segment = Instant::now();
    for (i, args) in inputs.iter().enumerate() {
        if i > 0 && i % CRASH_EVERY == 0 {
            r.loop_s += segment.elapsed().as_secs_f64();
            set.crash_restart(seed, &mut r)?;
            segment = Instant::now();
        }
        trace::set_op(i as u64);
        let t = Instant::now();
        let ok = trace::span("op", || -> Result<bool, String> {
            let meta = CallMeta::new("writes", set.broker.now().as_micros());
            let broker = &mut set.broker;
            let done = trace::span("broker.admitted", || {
                broker.call_admitted("op", args, &meta)
            });
            if (i + 1) % TICK_EVERY == 0 {
                let now = set.broker.now();
                trace::span("replication.tick", || set.tick(now, &mut r))?;
            }
            Ok(
                matches!(done, Ok(AdmittedOutcome::Executed { result, .. }) if result.outcome.is_ok()),
            )
        })?;
        r.op_us.push(t.elapsed().as_secs_f64() * 1e6);
        r.failed += u64::from(!ok);
    }
    r.loop_s += segment.elapsed().as_secs_f64();
    set.drain_and_check(&mut r)?;
    let bytes = set.broker.journal_bytes().ok_or("journal is on")?;
    r.journal_bytes = bytes.len();
    r.journal_records = bytes.iter().filter(|b| **b == b'\n').count();
    r.net_messages = set.net.stats().delivered;
    Ok(r)
}

/// Mean op time of tick-paying writes in the first and last quarter of
/// a round: the growth of tick cost with history.
fn tick_growth(op_us: &[f64]) -> (f64, f64) {
    let quarter = op_us.len() / 4;
    let ticks = |range: std::ops::Range<usize>| -> Vec<f64> {
        range
            .filter(|i| (i + 1) % TICK_EVERY == 0)
            .map(|i| op_us[i])
            .collect()
    };
    (
        stats::mean(&ticks(0..quarter)),
        stats::mean(&ticks(op_us.len() - quarter..op_us.len())),
    )
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let inputs = generate(opts.seed);
    let seed = opts.seed;
    println!(
        "replicated_writes: {WRITES} writes per round on {} nodes (quorum {QUORUM}), tick every \
         {TICK_EVERY} writes, crash-restart every {CRASH_EVERY}, snapshot every {SNAPSHOT_EVERY} \
         journal entries",
        NODES3.len()
    );
    let mut m = Measured::default();
    let mut layers: BTreeMap<&'static str, Totals> = BTreeMap::new();
    let mut traced_op_us = Vec::new();
    let mut last_spans = Vec::new();
    let mut all = Round::default();
    let mut invoke = (0.0f64, 0usize);
    m.peak_rss_mb = crate::rounds(opts.seconds, if opts.trace { 2 } else { 1 }, |i| {
        let traced = opts.trace && i % 2 == 1;
        let mut set = build(seed, traced)?;
        trace::enable(traced);
        let r = round(&mut set, &inputs, seed);
        trace::enable(false);
        let spans = trace::take();
        let r = r?;
        m.attempted += r.op_us.len() as u64;
        m.failed += r.failed;
        if traced {
            trace::accumulate(&spans, &mut layers);
            last_spans = spans;
            traced_op_us.extend(&r.op_us);
            all.ticks += r.ticks;
            all.shipped += r.shipped;
            all.newly_acked += r.newly_acked;
            all.max_lag = all.max_lag.max(r.max_lag);
            all.journal_bytes += r.journal_bytes;
            all.journal_records += r.journal_records;
            all.net_messages += r.net_messages;
            all.from_model_us.extend(&r.from_model_us);
            all.recover_ms.extend(&r.recover_ms);
            all.recovery_bytes.extend(&r.recovery_bytes);
            return Ok(());
        }
        if i == 0 {
            let (first, last) = tick_growth(&r.op_us);
            println!(
                "tick growth: tick-paying writes take {first:.1} us in the first quarter of a \
                 round and {last:.1} us in the last; max lag after a tick {} records",
                r.max_lag
            );
        }
        let log = set.broker.hub().log();
        let reference = replay_invocations(log, 0, || hub(seed, false));
        m.add_round(r.op_us.len(), r.loop_s, reference);
        m.time_setup(|| build(seed, false));
        invoke.0 += reference;
        invoke.1 += log.len();
        m.recover_ms.extend(&r.recover_ms);
        m.op_us.extend(r.op_us);
        Ok(())
    })?;
    if !opts.trace {
        return Ok(Outcome::Timed(m));
    }

    let get = |n: &str| layers.get(n).copied().unwrap_or_default();
    let op = get("op");
    let writes = op.count.max(1) as f64;
    let admitted = get("broker.admitted");
    let tick = get("replication.tick");
    let layer_names = ["broker.admitted", "replication.tick", "resource"];
    let layer_ns: u64 = layer_names.iter().map(|n| get(n).self_ns).sum();
    let mut out = BTreeMap::new();
    out.insert(
        "broker.admitted_us",
        admitted.self_ns as f64 / 1e3 / admitted.count.max(1) as f64,
    );
    out.insert(
        "broker.attempts_per_call",
        get("resource").count as f64 / admitted.count.max(1) as f64,
    );
    out.insert("journal.bytes_per_write", all.journal_bytes as f64 / writes);
    out.insert(
        "journal.records_per_write",
        all.journal_records as f64 / writes,
    );
    out.insert(
        "replication.tick_us",
        tick.self_ns as f64 / 1e3 / tick.count.max(1) as f64,
    );
    out.insert(
        "replication.ship_us_per_record",
        tick.total_ns as f64 / 1e3 / all.shipped.max(1) as f64,
    );
    out.insert(
        "replication.useful_ship_ratio",
        all.newly_acked as f64 / all.shipped.max(1) as f64,
    );
    out.insert("replication.lag_records", all.max_lag as f64);
    out.insert("sim.net_messages", all.net_messages as f64 / writes);
    out.insert("broker.from_model_us", stats::mean(&all.from_model_us));
    out.insert(
        "recovery.replay_us",
        1e3 * stats::mean(&all.recover_ms) - stats::mean(&all.from_model_us),
    );
    out.insert("recovery.bytes", stats::mean(&all.recovery_bytes));
    out.insert("sim.invoke_us", invoke.0 * 1e6 / invoke.1.max(1) as f64);
    out.insert(
        "unattributed_share",
        op.self_ns as f64 / op.total_ns.max(1) as f64,
    );
    Ok(Outcome::Traced(Traced {
        layers: out,
        untraced_op_us: m.op_us,
        traced_op_us,
        layer_sum_us: layer_ns as f64 / 1e3 / writes,
        attempted: m.attempted,
        failed: m.failed,
        spans: last_spans,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_generates_the_same_writes() {
        assert_eq!(generate(2), generate(2));
        assert_ne!(generate(2), generate(3));
    }

    #[test]
    fn a_short_round_recovers_and_replicates_exactly() {
        let inputs: Vec<Args> = generate(4).into_iter().take(CRASH_EVERY + 40).collect();
        let mut set = build(4, false).unwrap();
        let r = round(&mut set, &inputs, 4).unwrap();
        assert_eq!(r.failed, 0);
        assert_eq!(r.recover_ms.len(), 1);
        assert!(r.max_lag < 64, "lag {}", r.max_lag);
    }
}
