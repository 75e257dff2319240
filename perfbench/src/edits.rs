//! `model_edits`: a seeded stream of CML edits submitted as HUTN text to
//! the four-layer CVM, the only workload where the upper layers work.
//!
//! Each edit is the whole model text after one change: 40% create a
//! connection, 20% reconfigure a codec (the Case-1 fast action), 20% add
//! a party, 20% delete a connection. A delete is always followed by a
//! create, so the Synthesis LTS never idles between edits. A round loads
//! the initial model (16 persons, 20 connections, each connection with
//! its own medium) into a freshly built platform and submits the stream;
//! creates outnumber deletes, so the model holds about 32 connections
//! (about 80 objects) on average over the round.
//!
//! The timed run submits through `MdDsmPlatform::submit_text`. The traced
//! run composes the same layers the way `PlatformBuilder::build` and
//! `submit_model` do, with a span around each layer call. Both must
//! produce byte-identical resource command traces.

use crate::ncb::{checkpoint_recover, replay_invocations, traced_service_hub, Checkpoint};
use crate::stats;
use crate::trace::{self, Totals};
use crate::{Measured, Opts, Outcome, Traced};
use cvm::cml::CML;
use cvm::ncb::ncb_broker_model;
use cvm::platform::{build_cvm, cvm_domain_knowledge, cvm_platform_model};
use cvm::services::{service_hub, DEFAULT_WORK};
use mddsm_broker::GenericBroker;
use mddsm_controller::{
    BrokerPort, Case, ClassificationPolicy, CommandClassifier, ControllerEngine, ExecutionReport,
    PortResponse,
};
use mddsm_core::port::BrokerAdapter;
use mddsm_core::PlatformSpec;
use mddsm_sim::{ResourceHub, SimRng};
use mddsm_synthesis::{ChangeInterpreter, ControlScript, InterpreterConfig, SynthesisEngine};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Service busy-work per invocation (the CVM default).
pub const WORK: u32 = DEFAULT_WORK;
/// Persons in the model.
pub const PERSONS: usize = 16;
/// Connections in the initial model.
pub const INITIAL_CONNECTIONS: usize = 20;
/// Edits per round.
pub const EDITS: usize = 120;
/// Timed recoveries per round.
pub const RECOVER_REPS: usize = 3;

const CODECS: [&str; 4] = ["opus", "opus-hd", "g722", "aac"];

/// One edit's kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Create a connection (with its own medium).
    Create,
    /// Change a medium's codec.
    Reconfigure,
    /// Add a person to a connection.
    AddParty,
    /// Delete a connection and its medium.
    Delete,
}

/// The generated inputs: the initial model and the edit stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inputs {
    /// HUTN text of the initial model.
    pub initial: String,
    /// HUTN text of the model after each edit.
    pub edits: Vec<String>,
    /// Each edit's kind.
    pub kinds: Vec<Kind>,
}

struct Conn {
    parties: Vec<usize>,
    codec: usize,
}

struct Gen {
    rng: SimRng,
    conns: BTreeMap<usize, Conn>,
    next: usize,
}

impl Gen {
    fn create(&mut self) {
        let n = 2 + self.rng.index(2);
        let mut parties: Vec<usize> = Vec::new();
        while parties.len() < n {
            let p = self.rng.index(PERSONS);
            if !parties.contains(&p) {
                parties.push(p);
            }
        }
        self.conns.insert(self.next, Conn { parties, codec: 0 });
        self.next += 1;
    }

    fn pick(&mut self, ok: impl Fn(&Conn) -> bool) -> Option<usize> {
        let ids: Vec<usize> = self
            .conns
            .iter()
            .filter(|(_, c)| ok(c))
            .map(|(id, _)| *id)
            .collect();
        (!ids.is_empty()).then(|| ids[self.rng.index(ids.len())])
    }

    fn text(&self) -> String {
        let list = |prefix: &str, ids: &mut dyn Iterator<Item = usize>| {
            ids.map(|i| format!("{prefix}{i}"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let mut s = String::new();
        let _ = writeln!(
            s,
            "model m conformsTo {CML} {{\n  CommSchema s {{ name = \"call\" persons -> [{}] media -> [{}] connections -> [{}] }}",
            list("p", &mut (0..PERSONS)),
            list("v", &mut self.conns.keys().copied()),
            list("c", &mut self.conns.keys().copied()),
        );
        for p in 0..PERSONS {
            let _ = writeln!(
                s,
                "  Person p{p} {{ name = \"p{p}\" userId = \"p{p}@cvm\" }}"
            );
        }
        for (id, c) in &self.conns {
            let _ = writeln!(
                s,
                "  Medium v{id} {{ name = \"v{id}\" kind = MediaKind::Audio codec = \"{}\" }}",
                CODECS[c.codec]
            );
            let _ = writeln!(
                s,
                "  Connection c{id} {{ name = \"c{id}\" parties -> [{}] media -> [v{id}] }}",
                list("p", &mut c.parties.iter().copied())
            );
        }
        s.push('}');
        s
    }
}

/// Generates the initial model and the edit stream from `seed`.
pub fn generate(seed: u64) -> Inputs {
    let mut g = Gen {
        rng: SimRng::seed_from_u64(seed ^ 0xed17_5eed),
        conns: BTreeMap::new(),
        next: 0,
    };
    for _ in 0..INITIAL_CONNECTIONS {
        g.create();
    }
    let initial = g.text();
    // Blocks of five edits: one unit of each kind in a seeded order, the
    // delete unit being a delete then a create. The mix is 40/20/20/20
    // and the model grows by one connection per block whatever the seed.
    let mut units: Vec<&[Kind]> = Vec::new();
    for _ in 0..EDITS / 5 {
        let mut block: [&[Kind]; 4] = [
            &[Kind::Create],
            &[Kind::Reconfigure],
            &[Kind::AddParty],
            &[Kind::Delete, Kind::Create],
        ];
        crate::shuffle(&mut g.rng, &mut block);
        units.extend(block);
    }
    let (mut edits, mut kinds) = (Vec::new(), Vec::new());
    for unit in units {
        for &kind in unit {
            match kind {
                Kind::Create => g.create(),
                Kind::Reconfigure => {
                    let id = g.pick(|_| true).expect("connections exist");
                    let step = 1 + g.rng.index(CODECS.len() - 1);
                    let c = g.conns.get_mut(&id).expect("picked");
                    c.codec = (c.codec + step) % CODECS.len();
                }
                Kind::AddParty => {
                    let id = g
                        .pick(|c| c.parties.len() < PERSONS)
                        .expect("a connection has room");
                    let free: Vec<usize> = (0..PERSONS)
                        .filter(|p| !g.conns[&id].parties.contains(p))
                        .collect();
                    let p = free[g.rng.index(free.len())];
                    g.conns.get_mut(&id).expect("picked").parties.push(p);
                }
                Kind::Delete => {
                    let id = g.pick(|_| true).expect("connections exist");
                    g.conns.remove(&id);
                }
            }
            edits.push(g.text());
            kinds.push(kind);
        }
    }
    Inputs {
        initial,
        edits,
        kinds,
    }
}

/// The CVM's layers composed the way `PlatformBuilder::build` and
/// `MdDsmPlatform::submit_model` compose them, with a span per layer call.
struct Composed {
    synthesis: SynthesisEngine,
    controller: ControllerEngine,
    broker: GenericBroker,
}

/// Records a `broker.call` span around each port call.
struct TimedPort<'a>(BrokerAdapter<'a>);

impl BrokerPort for TimedPort<'_> {
    fn invoke(&mut self, api: &str, op: &str, args: &[(String, String)]) -> PortResponse {
        let inner = &mut self.0;
        trace::span("broker.call", || inner.invoke(api, op, args))
    }
}

/// What one composed submission did.
#[derive(Default)]
struct Submitted {
    commands: u64,
    report: ExecutionReport,
}

impl Composed {
    fn build(hub: ResourceHub) -> Result<Self, String> {
        let spec = PlatformSpec::from_model(&cvm_platform_model()).map_err(|e| e.to_string())?;
        let dsk = cvm_domain_knowledge();
        let unmatched = spec
            .synthesis_unmatched
            .ok_or("CVM has a Synthesis layer")?;
        let synthesis = SynthesisEngine::new(
            Arc::new(dsk.dsml.clone()),
            ChangeInterpreter::new(dsk.lts.clone(), InterpreterConfig { unmatched }),
        );
        let mut classifier = CommandClassifier::new(ClassificationPolicy {
            prefer: spec.controller_prefer.unwrap_or(Case::Predefined),
            low_memory_prefers_dynamic: spec.controller_low_memory_dynamic,
            overrides: Default::default(),
        });
        for (cmd, dsc) in &dsk.command_map {
            classifier.map_command(cmd, dsc);
        }
        let config = spec
            .controller
            .clone()
            .ok_or("CVM has a Controller layer")?;
        let mut controller = ControllerEngine::new(
            dsk.dscs.clone(),
            dsk.procedures.clone(),
            dsk.actions.clone(),
            classifier,
            config,
        )
        .map_err(|e| e.to_string())?;
        for (topic, cmd) in &dsk.event_commands {
            controller.map_event(topic, cmd.clone());
        }
        let broker =
            GenericBroker::from_model(&ncb_broker_model(), hub).map_err(|e| e.to_string())?;
        Ok(Composed {
            synthesis,
            controller,
            broker,
        })
    }

    fn execute(&mut self, script: &ControlScript) -> Result<ExecutionReport, String> {
        if script.is_empty() {
            return Ok(ExecutionReport::default());
        }
        let mut port = TimedPort(BrokerAdapter::new(&mut self.broker));
        let controller = &mut self.controller;
        trace::span("controller.execute", || {
            controller.execute_script(script, &mut port)
        })
        .map_err(|e| e.to_string())
    }

    fn submit_text(&mut self, src: &str) -> Result<Submitted, String> {
        let model = trace::span("meta.parse", || mddsm_meta::text::parse(src))
            .map_err(|e| e.to_string())?;
        let synthesis = &mut self.synthesis;
        let out = trace::span("synthesis.submit", || synthesis.submit(model))
            .map_err(|e| e.to_string())?;
        let mut done = Submitted {
            commands: out.immediate.len() as u64,
            report: self.execute(&out.immediate)?,
        };
        // Installed scripts only run on later environment events, which
        // this workload does not deliver.
        for topic in done.report.events.clone() {
            let synthesis = &mut self.synthesis;
            let script = trace::span("synthesis.submit", || synthesis.notify_event(&topic))
                .map_err(|e| e.to_string())?;
            done.commands += script.len() as u64;
            let r = self.execute(&script)?;
            done.report.merge(&r);
        }
        Ok(done)
    }
}

/// Failed resource invocations in a hub's log.
fn failed_invocations(hub: &ResourceHub) -> u64 {
    hub.log().iter().filter(|i| !i.ok).count() as u64
}

/// Runs the inputs through `submit_text` on a freshly built CVM.
/// Returns the platform, the seconds the replayed invocations took and
/// their count.
fn platform_round(
    inputs: &Inputs,
    seed: u64,
    m: &mut Measured,
) -> Result<(mddsm_core::MdDsmPlatform, f64, u64), String> {
    let mut platform = build_cvm(seed, WORK);
    platform
        .submit_text(&inputs.initial)
        .map_err(|e| format!("initial model refused: {e}"))?;
    let loaded = platform.command_trace().len();
    let start = Instant::now();
    for edit in &inputs.edits {
        let t = Instant::now();
        let r = platform.submit_text(edit);
        m.op_us.push(t.elapsed().as_secs_f64() * 1e6);
        m.failed += u64::from(r.is_err());
    }
    let loop_s = start.elapsed().as_secs_f64();
    m.attempted += inputs.edits.len() as u64;
    let broker = platform.broker().ok_or("CVM has a Broker layer")?;
    m.failed += failed_invocations(broker.hub());
    let log = broker.hub().log();
    let reference_s = replay_invocations(log, loaded, || service_hub(seed, WORK));
    m.add_round(inputs.edits.len(), loop_s, reference_s);
    let invoked = (log.len() - loaded) as u64;
    Ok((platform, reference_s, invoked))
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let inputs = generate(opts.seed);
    let seed = opts.seed;
    let bytes: usize = inputs.edits.iter().map(String::len).sum();
    let count = |k: Kind| inputs.kinds.iter().filter(|x| **x == k).count();
    println!(
        "model_edits: {} edits per round (create {}, reconfigure {}, add party {}, delete {}), \
         {:.0} bytes of HUTN per edit",
        inputs.edits.len(),
        count(Kind::Create),
        count(Kind::Reconfigure),
        count(Kind::AddParty),
        count(Kind::Delete),
        bytes as f64 / inputs.edits.len() as f64
    );

    // Correctness reference: the platform's own path, then the composed
    // path on a hub with span-recording services.
    let mut probe = Measured::default();
    let expected = platform_round(&inputs, seed, &mut probe)?.0.command_trace();
    let mut composed = Composed::build(traced_service_hub(seed, WORK))?;
    composed.submit_text(&inputs.initial)?;
    for edit in &inputs.edits {
        composed.submit_text(edit)?;
    }
    crate::same_trace(
        "model_edits submit_text vs composed layers",
        &expected,
        &composed.broker.hub().command_trace(),
    )?;

    let mut m = Measured::default();
    let mut ckpt = Checkpoint::default();
    let mut layers: BTreeMap<&'static str, Totals> = BTreeMap::new();
    let mut traced_op_us = Vec::new();
    let mut last_spans = Vec::new();
    let (mut commands, mut case2, mut cache) = (0u64, 0u64, (0u64, 0u64));
    let mut invoke = (0.0f64, 0u64);
    m.peak_rss_mb = crate::rounds(opts.seconds, if opts.trace { 2 } else { 1 }, |i| {
        if opts.trace && i % 2 == 1 {
            let mut c = Composed::build(traced_service_hub(seed, WORK))?;
            c.submit_text(&inputs.initial)?;
            let warm = c.controller.cache_stats();
            trace::enable(true);
            let mut result = Ok(());
            for (k, edit) in inputs.edits.iter().enumerate() {
                trace::set_op(k as u64);
                let t = Instant::now();
                let r = trace::span("op", || c.submit_text(edit));
                traced_op_us.push(t.elapsed().as_secs_f64() * 1e6);
                match r {
                    Ok(s) => {
                        commands += s.commands;
                        case2 += s.report.case2;
                    }
                    Err(e) => {
                        result = Err(e);
                        break;
                    }
                }
            }
            trace::enable(false);
            let spans = trace::take();
            result?;
            let (hits, misses, _) = c.controller.cache_stats();
            cache.0 += hits - warm.0;
            cache.1 += misses - warm.1;
            m.attempted += inputs.edits.len() as u64;
            m.failed += failed_invocations(c.broker.hub());
            crate::same_trace(
                "model_edits traced round",
                &expected,
                &c.broker.hub().command_trace(),
            )?;
            trace::accumulate(&spans, &mut layers);
            last_spans = spans;
        } else {
            let (platform, reference_s, invoked) = platform_round(&inputs, seed, &mut m)?;
            invoke.0 += reference_s;
            invoke.1 += invoked;
            crate::same_trace(
                "model_edits timed round",
                &expected,
                &platform.command_trace(),
            )?;
            let broker = platform.broker().ok_or("CVM has a Broker layer")?;
            checkpoint_recover(broker.state(), seed, WORK, RECOVER_REPS, &mut ckpt)?;
            m.time_setup(|| build_cvm(seed, WORK));
        }
        Ok(())
    })?;
    m.recover_ms = ckpt.recover_ms.clone();
    if !opts.trace {
        return Ok(Outcome::Timed(m));
    }

    let get = |n: &str| layers.get(n).copied().unwrap_or_default();
    let op = get("op");
    let edits = op.count.max(1) as f64;
    let per_edit = |n: &str| get(n).self_ns as f64 / 1e3 / edits;
    let calls = get("broker.call");
    let layer_names = [
        "meta.parse",
        "synthesis.submit",
        "controller.execute",
        "broker.call",
        "resource",
    ];
    let layer_ns: u64 = layer_names.iter().map(|n| get(n).self_ns).sum();
    let mut out = BTreeMap::new();
    out.insert("meta.parse_us", per_edit("meta.parse"));
    out.insert("meta.parse_bytes", bytes as f64 / inputs.edits.len() as f64);
    out.insert("synthesis.submit_us", per_edit("synthesis.submit"));
    out.insert("synthesis.commands", commands as f64 / edits);
    out.insert(
        "controller.execute_us",
        get("controller.execute").self_ns as f64 / 1e3 / commands.max(1) as f64,
    );
    out.insert(
        "controller.case2_share",
        case2 as f64 / commands.max(1) as f64,
    );
    out.insert(
        "controller.im_cache_hit_ratio",
        cache.0 as f64 / (cache.0 + cache.1).max(1) as f64,
    );
    out.insert(
        "broker.call_us",
        calls.self_ns as f64 / 1e3 / calls.count.max(1) as f64,
    );
    out.insert(
        "broker.attempts_per_call",
        get("resource").count as f64 / calls.count.max(1) as f64,
    );
    out.insert("broker.from_model_us", stats::mean(&ckpt.from_model_us));
    out.insert(
        "recovery.replay_us",
        1e3 * stats::mean(&ckpt.recover_ms) - stats::mean(&ckpt.from_model_us),
    );
    out.insert("recovery.bytes", ckpt.bytes as f64);
    out.insert("sim.invoke_us", 1e6 * invoke.0 / invoke.1.max(1) as f64);
    out.insert(
        "unattributed_share",
        op.self_ns as f64 / op.total_ns.max(1) as f64,
    );
    Ok(Outcome::Traced(Traced {
        layers: out,
        untraced_op_us: m.op_us,
        traced_op_us,
        layer_sum_us: layer_ns as f64 / 1e3 / edits,
        attempted: m.attempted,
        failed: m.failed,
        spans: last_spans,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_generates_the_same_inputs() {
        assert_eq!(generate(9), generate(9));
        assert_ne!(generate(9).edits, generate(10).edits);
    }

    #[test]
    fn the_mix_and_model_size_match_the_description() {
        let inputs = generate(1);
        let n = inputs.edits.len();
        let share = |k: Kind| inputs.kinds.iter().filter(|x| **x == k).count() as f64 / n as f64;
        assert_eq!(n, EDITS);
        assert_eq!(share(Kind::Create), 0.4);
        assert_eq!(share(Kind::Reconfigure), 0.2);
        assert_eq!(share(Kind::AddParty), 0.2);
        assert_eq!(share(Kind::Delete), 0.2);
        // Every delete is followed by a create.
        for w in inputs.kinds.windows(2) {
            if w[0] == Kind::Delete {
                assert_eq!(w[1], Kind::Create);
            }
        }
        for text in &inputs.edits {
            mddsm_meta::text::parse(text).expect("edits parse");
        }
    }
}
