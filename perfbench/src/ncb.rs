//! `ncb_calls`: the paper's E2 comparison at steady-state length.
//!
//! A seeded sequence of the eight §VII-A scenarios runs back to back on
//! one long-lived `ModelBasedNcb` per round, and the identical step stream
//! runs on a `HandcraftedNcb`, interleaved in blocks (which side goes
//! first alternates per block). Only broker interpretation separates the
//! two: both drive the same simulated services at E2's full work level.
//!
//! Also home of the pieces `model_edits` shares, since its Broker layer
//! interprets the same NCB model: a service hub whose resources record
//! spans, and recovery from a checkpoint of the broker's runtime model.

use crate::stats;
use crate::trace::{self, Totals};
use crate::{Measured, Opts, Outcome, Traced};
use cvm::baseline::HandcraftedNcb;
use cvm::ncb::{ncb_broker_model, ModelBasedNcb, Ncb};
use cvm::scenarios::{all_scenarios, Scenario, Step};
use cvm::services::{register_services, service_hub};
use mddsm_broker::{GenericBroker, StateManager};
use mddsm_sim::resource::{Args, Outcome as Reply};
use mddsm_sim::{LatencyModel, ResourceHub, SimDuration, SimRng};
use std::collections::BTreeMap;
use std::time::Instant;

/// Service busy-work rounds per invocation: E2's full work level.
pub const WORK: u32 = 10_000;
/// Scenarios per round, all on one pair of long-lived NCBs.
pub const SCENARIOS_PER_ROUND: usize = 800;
/// Scenarios per interleaving block.
pub const BLOCK: usize = 40;
/// Timed recoveries per round.
pub const RECOVER_REPS: usize = 5;

/// The seeded scenario sequence (indices into `all_scenarios()`): each
/// scenario equally often, in a seeded order, so the seed changes the
/// order and not the mix.
pub fn generate(seed: u64) -> Vec<usize> {
    let mut rng = SimRng::seed_from_u64(seed ^ 0x00e2_ca11);
    let mut stream: Vec<usize> = (0..SCENARIOS_PER_ROUND).map(|i| i % 8).collect();
    crate::shuffle(&mut rng, &mut stream);
    stream
}

/// A CVM service hub whose three services record a `resource` span per
/// invocation. Latency models and the hub seed match
/// [`service_hub`], so virtual costs and outcomes are unchanged; each
/// service runs inside its own inner hub, whose bookkeeping is charged to
/// the resource span.
pub fn traced_service_hub(seed: u64, work: u32) -> ResourceHub {
    let mut hub = ResourceHub::new(seed);
    let services = [
        ("sim.signaling", LatencyModel::uniform_ms(8, 20)),
        ("sim.media", LatencyModel::uniform_ms(2, 6)),
        ("sim.relay", LatencyModel::uniform_ms(4, 10)),
    ];
    for (name, latency) in services {
        let mut inner = ResourceHub::new(seed);
        register_services(&mut inner, work);
        hub.register(
            name,
            latency,
            SimDuration::from_millis(1_000),
            Box::new(move |op: &str, args: &Args| {
                trace::span("resource", || inner.invoke(name, op, args).0)
            }),
        );
    }
    hub
}

/// Recovery of the NCB broker from a checkpoint of a live runtime model.
#[derive(Default)]
pub struct Checkpoint {
    /// `GenericBroker::recover` wall times (ms).
    pub recover_ms: Vec<f64>,
    /// `GenericBroker::from_model` wall times on the same model (µs).
    pub from_model_us: Vec<f64>,
    /// Journal bytes recovered from.
    pub bytes: usize,
}

/// Journals `state` as one snapshot and times rebuilding the NCB broker
/// from it, `reps` times, next to plain `from_model` builds.
pub fn checkpoint_recover(
    state: &StateManager,
    seed: u64,
    work: u32,
    reps: usize,
    into: &mut Checkpoint,
) -> Result<(), String> {
    let model = ncb_broker_model();
    let mut twin =
        GenericBroker::from_model(&model, service_hub(seed, work)).map_err(|e| e.to_string())?;
    twin.state_mut().restore(&state.snapshot());
    twin.enable_journal(0);
    let bytes = twin.journal_bytes().ok_or("journal is on")?.to_vec();
    for _ in 0..reps {
        let hub = service_hub(seed, work);
        let t = Instant::now();
        let (recovered, _) =
            GenericBroker::recover(&model, hub, &bytes, &[]).map_err(|e| e.to_string())?;
        into.recover_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if recovered.state().snapshot() != state.snapshot() {
            return Err("recovered NCB state differs from its checkpoint".into());
        }
        let hub = service_hub(seed, work);
        let t = Instant::now();
        let built = GenericBroker::from_model(&model, hub).map_err(|e| e.to_string())?;
        into.from_model_us.push(t.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(built);
    }
    into.bytes = bytes.len();
    Ok(())
}

/// Replays of an invocation log per measurement.
pub const REPLAY_REPS: usize = 5;

/// Replays an invocation log through fresh hubs from `hub`, returning the
/// median over [`REPLAY_REPS`] replays of the seconds spent in
/// `ResourceHub::invoke` on `log[from..]` (the prefix is replayed untimed,
/// so the services hold the same state as in the run).
pub fn replay_invocations(
    log: &[mddsm_sim::Invocation],
    from: usize,
    hub: impl Fn() -> ResourceHub,
) -> f64 {
    let times: Vec<f64> = (0..REPLAY_REPS)
        .map(|_| {
            let mut hub = hub();
            for inv in &log[..from] {
                hub.invoke(&inv.resource, &inv.op, &inv.args);
            }
            let t = Instant::now();
            for inv in &log[from..] {
                std::hint::black_box(hub.invoke(&inv.resource, &inv.op, &inv.args));
            }
            t.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&times)
}

/// The model-based NCB over any hub: the same broker model and calls as
/// `ModelBasedNcb`, which builds its own hub.
struct HubNcb(GenericBroker);

impl Ncb for HubNcb {
    fn call(&mut self, op: &str, args: &Args) -> Result<Reply, String> {
        self.0
            .call(op, args)
            .map(|r| r.outcome)
            .map_err(|e| e.to_string())
    }
    fn event(&mut self, topic: &str, args: &Args) -> Result<Reply, String> {
        self.0
            .event(topic, args)
            .map(|r| r.outcome)
            .map_err(|e| e.to_string())
    }
    fn recover(&mut self) {
        let _ = self.0.autonomic_tick();
    }
    fn set_media_healthy(&mut self, healthy: bool) {
        self.0.hub_mut().set_healthy("sim.media", healthy);
    }
    fn trace(&self) -> Vec<String> {
        self.0.hub().command_trace()
    }
}

/// Times every call into an NCB as a span.
struct TracedNcb<N> {
    inner: N,
    call: &'static str,
    event: &'static str,
    tick: &'static str,
}

impl<N: Ncb> Ncb for TracedNcb<N> {
    fn call(&mut self, op: &str, args: &Args) -> Result<Reply, String> {
        let inner = &mut self.inner;
        trace::span(self.call, || inner.call(op, args))
    }
    fn event(&mut self, topic: &str, args: &Args) -> Result<Reply, String> {
        let inner = &mut self.inner;
        trace::span(self.event, || inner.event(topic, args))
    }
    fn recover(&mut self) {
        let inner = &mut self.inner;
        trace::span(self.tick, || inner.recover())
    }
    fn set_media_healthy(&mut self, healthy: bool) {
        self.inner.set_media_healthy(healthy)
    }
    fn trace(&self) -> Vec<String> {
        self.inner.trace()
    }
}

/// Runs one scenario like `cvm::scenarios::run_scenario`, timing each
/// call, event and recovery as one operation (wrapped in an `op` span
/// when `as_ops` and tracing is on). Returns the failed operation count.
fn run_scenario(
    ncb: &mut dyn Ncb,
    scenario: &Scenario,
    as_ops: bool,
    op_us: &mut Vec<f64>,
    replies: &mut Vec<Reply>,
) -> u64 {
    let mut vars: BTreeMap<&str, String> = BTreeMap::new();
    let mut failed = 0;
    let resolve = |args: &[(&str, &str)], vars: &BTreeMap<&str, String>| -> Args {
        args.iter()
            .map(|(k, v)| {
                let v = match v.strip_prefix('$') {
                    Some(name) => vars.get(name).cloned().unwrap_or_default(),
                    None => (*v).to_owned(),
                };
                ((*k).to_owned(), v)
            })
            .collect()
    };
    let mut timed = |f: &mut dyn FnMut() -> Result<Reply, String>| {
        let t = Instant::now();
        let r = if as_ops {
            trace::set_op(op_us.len() as u64);
            trace::span("op", f)
        } else {
            f()
        };
        op_us.push(t.elapsed().as_secs_f64() * 1e6);
        r
    };
    for step in &scenario.steps {
        match step {
            Step::Call {
                op,
                args,
                bind,
                expect_ok,
            } => {
                let args = resolve(args, &vars);
                match timed(&mut || ncb.call(op, &args)) {
                    Ok(reply) => {
                        if reply.is_ok() != *expect_ok {
                            failed += 1;
                        }
                        if let Some((key, var)) = bind {
                            if let Some(v) = reply.get(key) {
                                vars.insert(var, v.to_owned());
                            }
                        }
                        replies.push(reply);
                    }
                    Err(e) => {
                        failed += 1;
                        replies.push(Reply::Failed(e));
                    }
                }
            }
            Step::Event { topic, args } => {
                let args = resolve(args, &vars);
                match timed(&mut || ncb.event(topic, &args)) {
                    Ok(reply) => replies.push(reply),
                    Err(e) => {
                        failed += 1;
                        replies.push(Reply::Failed(e));
                    }
                }
            }
            Step::InjectMediaFailure => ncb.set_media_healthy(false),
            Step::Recover => {
                let _ = timed(&mut || {
                    ncb.recover();
                    Ok(Reply::ok())
                });
            }
        }
    }
    failed
}

/// One round's results.
struct Round {
    mb_op_us: Vec<f64>,
    mb_s: f64,
    hc_s: f64,
    failed: u64,
    mb_trace: Vec<String>,
}

/// Runs the stream on both NCBs in interleaved blocks and checks that
/// every reply and the whole command trace agree.
fn round(
    stream: &[usize],
    scenarios: &[Scenario],
    mb: &mut dyn Ncb,
    hc: &mut dyn Ncb,
    first: usize,
    traced: bool,
) -> Result<Round, String> {
    let mut r = Round {
        mb_op_us: Vec::new(),
        mb_s: 0.0,
        hc_s: 0.0,
        failed: 0,
        mb_trace: Vec::new(),
    };
    let (mut mb_replies, mut hc_replies) = (Vec::new(), Vec::new());
    let mut hc_op_us = Vec::new();
    for (b, block) in stream.chunks(BLOCK).enumerate() {
        for side in 0..2 {
            let model_based = (b + first + side).is_multiple_of(2);
            let t = Instant::now();
            for &i in block {
                if model_based {
                    r.failed +=
                        run_scenario(mb, &scenarios[i], traced, &mut r.mb_op_us, &mut mb_replies);
                } else {
                    run_scenario(hc, &scenarios[i], false, &mut hc_op_us, &mut hc_replies);
                }
            }
            let s = t.elapsed().as_secs_f64();
            if model_based {
                r.mb_s += s;
            } else {
                r.hc_s += s;
            }
        }
    }
    if let Some(i) = mb_replies.iter().zip(&hc_replies).position(|(a, b)| a != b) {
        return Err(format!(
            "ncb_calls: reply {i} differs: model-based {:?} vs handcrafted {:?}",
            mb_replies[i], hc_replies[i]
        ));
    }
    r.mb_trace = mb.trace();
    crate::same_trace(
        "ncb_calls model-based vs handcrafted",
        &hc.trace(),
        &r.mb_trace,
    )?;
    Ok(r)
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let stream = generate(opts.seed);
    let scenarios = all_scenarios();
    let seed = opts.seed;
    let steps: usize = stream.iter().map(|&i| scenarios[i].steps.len()).sum();
    println!(
        "ncb_calls: {} scenarios ({steps} steps) per round, blocks of {BLOCK}, work {WORK}",
        stream.len()
    );
    let mut m = Measured::default();
    let mut ckpt = Checkpoint::default();
    let mut layers: BTreeMap<&'static str, Totals> = BTreeMap::new();
    let mut traced_op_us = Vec::new();
    let mut last_spans = Vec::new();
    let mut invoke = (0.0f64, 0usize);
    m.peak_rss_mb = crate::rounds(opts.seconds, if opts.trace { 2 } else { 1 }, |i| {
        let traced = opts.trace && i % 2 == 1;
        if traced {
            let broker =
                GenericBroker::from_model(&ncb_broker_model(), traced_service_hub(seed, WORK))
                    .map_err(|e| e.to_string())?;
            let mut mb = TracedNcb {
                inner: HubNcb(broker),
                call: "broker.call",
                event: "broker.event",
                tick: "broker.autonomic_tick",
            };
            let mut hc = TracedNcb {
                inner: HandcraftedNcb::new(seed, WORK),
                call: "handcrafted.call",
                event: "handcrafted.call",
                tick: "handcrafted.call",
            };
            trace::enable(true);
            let r = round(&stream, &scenarios, &mut mb, &mut hc, i / 2, true);
            trace::enable(false);
            let spans = trace::take();
            let r = r?;
            m.attempted += r.mb_op_us.len() as u64;
            m.failed += r.failed;
            traced_op_us.extend(r.mb_op_us);
            trace::accumulate(&spans, &mut layers);
            last_spans = spans;
        } else {
            let mut mb = ModelBasedNcb::new(seed, WORK);
            let mut hc = HandcraftedNcb::new(seed, WORK);
            let r = round(&stream, &scenarios, &mut mb, &mut hc, i / 2, false)?;
            m.attempted += r.mb_op_us.len() as u64;
            m.failed += r.failed;
            m.add_round(r.mb_op_us.len(), r.mb_s, r.hc_s);
            m.op_us.extend(r.mb_op_us);
            checkpoint_recover(mb.broker().state(), seed, WORK, RECOVER_REPS, &mut ckpt)?;
            m.time_setup(|| ModelBasedNcb::new(seed, WORK));
            if opts.trace {
                let log = mb.broker().hub().log();
                invoke.0 += replay_invocations(log, 0, || service_hub(seed, WORK));
                invoke.1 += log.len();
            }
        }
        Ok(())
    })?;
    m.recover_ms = ckpt.recover_ms.clone();
    if !opts.trace {
        return Ok(Outcome::Timed(m));
    }

    let get = |n: &str| layers.get(n).copied().unwrap_or_default();
    let per = |t: Totals| t.self_ns as f64 / 1e3 / t.count.max(1) as f64;
    let op = get("op");
    let calls = get("broker.call").count + get("broker.event").count;
    let layer_names = [
        "broker.call",
        "broker.event",
        "broker.autonomic_tick",
        "resource",
    ];
    let layer_ns: u64 = layer_names.iter().map(|n| get(n).self_ns).sum();
    let mut out = BTreeMap::new();
    out.insert("broker.call_us", per(get("broker.call")));
    out.insert("broker.event_us", per(get("broker.event")));
    out.insert(
        "broker.autonomic_tick_us",
        per(get("broker.autonomic_tick")),
    );
    out.insert(
        "broker.attempts_per_call",
        get("resource").count as f64 / calls.max(1) as f64,
    );
    let hc = get("handcrafted.call");
    out.insert(
        "handcrafted.call_us",
        hc.total_ns as f64 / 1e3 / hc.count.max(1) as f64,
    );
    out.insert("broker.from_model_us", stats::mean(&ckpt.from_model_us));
    out.insert(
        "recovery.replay_us",
        1e3 * stats::mean(&ckpt.recover_ms) - stats::mean(&ckpt.from_model_us),
    );
    out.insert("recovery.bytes", ckpt.bytes as f64);
    out.insert("sim.invoke_us", invoke.0 * 1e6 / invoke.1.max(1) as f64);
    out.insert(
        "unattributed_share",
        op.self_ns as f64 / op.total_ns.max(1) as f64,
    );
    Ok(Outcome::Traced(Traced {
        layers: out,
        untraced_op_us: m.op_us,
        traced_op_us,
        layer_sum_us: layer_ns as f64 / 1e3 / op.count.max(1) as f64,
        attempted: m.attempted,
        failed: m.failed,
        spans: last_spans,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_generates_the_same_stream() {
        assert_eq!(generate(3), generate(3));
        assert_ne!(generate(3), generate(4));
        let s = generate(3);
        for k in 0..8 {
            assert_eq!(
                s.iter().filter(|x| **x == k).count(),
                SCENARIOS_PER_ROUND / 8
            );
        }
    }

    #[test]
    fn both_ncbs_agree_on_a_short_stream() {
        let scenarios = all_scenarios();
        let stream: Vec<usize> = generate(5).into_iter().take(60).collect();
        let mut mb = ModelBasedNcb::new(5, 10);
        let mut hc = HandcraftedNcb::new(5, 10);
        let r = round(&stream, &scenarios, &mut mb, &mut hc, 0, false).unwrap();
        assert_eq!(r.failed, 0);
        assert!(!r.mb_trace.is_empty());
    }

    #[test]
    fn traced_hub_keeps_the_trace() {
        let scenarios = all_scenarios();
        let stream: Vec<usize> = generate(6).into_iter().take(40).collect();
        let broker =
            GenericBroker::from_model(&ncb_broker_model(), traced_service_hub(6, 10)).unwrap();
        let mut traced = HubNcb(broker);
        let mut plain = ModelBasedNcb::new(6, 10);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for &i in &stream {
            run_scenario(&mut traced, &scenarios[i], false, &mut Vec::new(), &mut a);
            run_scenario(&mut plain, &scenarios[i], false, &mut Vec::new(), &mut b);
        }
        assert_eq!(a, b);
        assert_eq!(traced.trace(), plain.trace());
    }
}
