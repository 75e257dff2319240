//! The generic broker engine: interprets a broker model.
//!
//! "Calls and events are handled by selecting and dispatching appropriate
//! actions" (§V-A): the main manager's handlers match the incoming call
//! operation or event topic; each handler's actions are tried in order and
//! the first whose policy guard holds is dispatched against the underlying
//! (simulated) resource.

use crate::admission::adm_key;
use crate::admission::{AdmissionController, AdmissionDecision, CallMeta, ShedReason};
use crate::autonomic::{
    parse_step, AutonomicManager, AutonomicRule, BrownoutController, BrownoutTransition,
};
use crate::journal::{self, CommandKind, Journal, JournalRecord, MemorySink};
use crate::model::{broker_metamodel, Resilience, BROKER_METAMODEL};
use crate::monitor::{MonitorSet, MonitorTrip, TRIP_COUNTER_KEY};
use crate::state::StateManager;
use crate::{BrokerError, Result};
use mddsm_meta::constraint::{self, Expr};
use mddsm_meta::model::Model;
use mddsm_sim::resource::{Args, Outcome};
use mddsm_sim::{ResourceHub, SimDuration, SimTime};
use std::collections::BTreeMap;

/// Maximum fallback chain length (fallback of fallback of …).
const MAX_FALLBACK_DEPTH: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HandlerKind {
    Call,
    Event,
}

/// State-manager key for a breaker variable of a logical resource:
/// `breaker_<res>` (state), `breaker_<res>_failures`,
/// `breaker_<res>_opened_at_us`. Using the logical name keeps the keys
/// OCL-addressable (`self.breaker_media = "open"`).
pub(crate) fn breaker_key(resource: &str, suffix: &str) -> String {
    if suffix.is_empty() {
        format!("breaker_{resource}")
    } else {
        format!("breaker_{resource}_{suffix}")
    }
}

#[derive(Debug, Clone)]
struct ActionSpec {
    name: String,
    resource: String,
    operation: String,
    arg_mapping: Vec<(String, String)>,
    guard: Option<String>,
    state_effects: Vec<String>,
    resilience: Resilience,
    /// Model-declared work cost in virtual µs (`costUs`), consumed from the
    /// action's admission class's token bucket; 0 = uncontrolled.
    cost_us: u64,
    /// Admission class this action bills against (`admissionClass`); when
    /// absent, the caller's [`CallMeta`] class is used.
    admission_class: Option<String>,
}

#[derive(Debug, Clone)]
struct HandlerSpec {
    name: String,
    kind: HandlerKind,
    selector: String,
    actions: Vec<ActionSpec>,
}

/// Result of a brokered call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BrokerCallResult {
    /// Resource outcome.
    pub outcome: Outcome,
    /// Virtual-time cost of the whole call, including retries, backoff,
    /// and any fallback dispatch.
    pub cost: SimDuration,
    /// Name of the action that produced the outcome (the fallback's name
    /// when escalation happened).
    pub action: String,
    /// Resource invocations performed (0 when a breaker short-circuited).
    pub attempts: u32,
}

/// Typed outcome of an admission-gated call
/// ([`GenericBroker::call_admitted`]).
///
/// Shedding and deferral are *expected* overload responses, not faults, so
/// they are first-class variants rather than `BrokerError`s — the circuit
/// breaker and failure counters never see them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmittedOutcome {
    /// The call was admitted and dispatched.
    Executed {
        /// The underlying brokered-call result.
        result: BrokerCallResult,
        /// Time the call spent queued before admission (virtual µs).
        queue_delay_us: u64,
        /// Absolute deadline that governed admission (virtual µs; 0 when
        /// the call's class declares none).
        deadline_us: u64,
    },
    /// The call's class token bucket is empty; retry after `wait`.
    Deferred {
        /// Virtual time until the bucket refills enough to cover the cost.
        wait: SimDuration,
    },
    /// The call was rejected outright.
    Shed {
        /// Why admission rejected it.
        reason: ShedReason,
        /// The admission class that shed it.
        class: String,
    },
}

impl AdmittedOutcome {
    /// `true` when the call actually executed.
    pub fn is_executed(&self) -> bool {
        matches!(self, AdmittedOutcome::Executed { .. })
    }
}

/// What [`GenericBroker::recover`] did to rebuild the engine: how far the
/// journal reached and how much work replay had to redo.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// State ops replayed after the newest snapshot.
    pub ops_replayed: u64,
    /// Command records replayed after the newest snapshot.
    pub commands_replayed: u64,
    /// Version the newest snapshot carried.
    pub snapshot_version: u64,
    /// State version after recovery.
    pub recovered_version: u64,
    /// Virtual clock (µs) after recovery.
    pub clock_us: u64,
    /// Invariants checked on the recovered model.
    pub invariants_checked: u64,
    /// Unreadable trailing records the torn-tail policy dropped (0 for a
    /// clean journal). When nonzero, the truncation was journaled as a
    /// `Note` so the repair is itself durable.
    pub torn_records_dropped: u64,
}

/// A broker engine configured entirely by a broker model.
pub struct GenericBroker {
    name: String,
    handlers: Vec<HandlerSpec>,
    policies: BTreeMap<String, Expr>,
    bindings: BTreeMap<String, String>,
    state: StateManager,
    autonomic: AutonomicManager,
    /// Token-bucket admission control; `None` when the model declares no
    /// `AdmissionClass` objects (every call is then admitted untouched).
    admission: Option<AdmissionController>,
    /// Model-defined brownout (degraded-mode) controller; empty when the
    /// model declares no `BrownoutMode` objects.
    brownout: BrownoutController,
    hub: ResourceHub,
    calls: u64,
    events: u64,
    /// Virtual clock, advanced by invocation costs and retry backoff.
    clock_us: u64,
    /// Write-ahead journal; `None` until [`GenericBroker::enable_journal`].
    journal: Option<Journal>,
    /// Fencing epoch this engine serves under (1 until a promotion).
    epoch: u64,
    /// Runtime-model version this engine interprets (1 until a live
    /// upgrade cuts over; each cutover journals the new version).
    model_version: u64,
    /// Compiled in-stream runtime monitors; `None` when the model declares
    /// no `Monitor` objects.
    monitors: Option<MonitorSet>,
    /// Trips this instance observed, in order. The latches themselves live
    /// in the (journaled) runtime model; this is only the lifetime log.
    monitor_trips: Vec<MonitorTrip>,
    /// The load-time static-analysis report for the model this engine
    /// interprets. Always accepted (error-level findings refuse the model
    /// in [`GenericBroker::from_model`]); warnings and the
    /// footprint/conflict tables stay queryable here.
    analysis: mddsm_meta::analysis::AnalysisReport,
}

impl GenericBroker {
    /// Builds a broker from a broker model and the resource hub it will
    /// orchestrate. The model is conformance-checked against the Fig. 6
    /// metamodel, and all embedded expressions are parsed eagerly.
    pub fn from_model(model: &Model, hub: ResourceHub) -> Result<Self> {
        if model.metamodel_name() != BROKER_METAMODEL {
            return Err(BrokerError::InvalidModel(format!(
                "expected metamodel `{BROKER_METAMODEL}`, got `{}`",
                model.metamodel_name()
            )));
        }
        let mm = broker_metamodel();
        mddsm_meta::conformance::check(model, &mm)
            .map_err(|e| BrokerError::InvalidModel(e.to_string()))?;

        let name = model
            .all_of_class("BrokerLayer")
            .first()
            .and_then(|l| model.attr_str(*l, "name"))
            .unwrap_or("broker")
            .to_owned();

        // Handlers + actions.
        let mut handlers = Vec::new();
        for h in model.all_of_class("Handler") {
            let kind = match model.attr(h, "kind").and_then(|v| v.as_enum_literal()) {
                Some("Call") => HandlerKind::Call,
                Some("Event") => HandlerKind::Event,
                other => {
                    return Err(BrokerError::InvalidModel(format!(
                        "handler has bad kind {other:?}"
                    )))
                }
            };
            let mut actions = Vec::new();
            for a in model.refs(h, "actions") {
                let int_attr = |name: &str| model.attr_int(*a, name).unwrap_or(0).max(0) as u64;
                actions.push(ActionSpec {
                    name: model.attr_str(*a, "name").unwrap_or_default().to_owned(),
                    resource: model
                        .attr_str(*a, "resource")
                        .unwrap_or_default()
                        .to_owned(),
                    operation: model
                        .attr_str(*a, "operation")
                        .unwrap_or_default()
                        .to_owned(),
                    arg_mapping: model
                        .attr_all(*a, "argMapping")
                        .iter()
                        .filter_map(|v| v.as_str())
                        .filter_map(|s| {
                            s.split_once('=').map(|(k, v)| (k.to_owned(), v.to_owned()))
                        })
                        .collect(),
                    guard: model.attr_str(*a, "guard").map(str::to_owned),
                    cost_us: int_attr("costUs"),
                    admission_class: model.attr_str(*a, "admissionClass").map(str::to_owned),
                    state_effects: model
                        .attr_all(*a, "stateEffects")
                        .iter()
                        .filter_map(|v| v.as_str())
                        .map(str::to_owned)
                        .collect(),
                    resilience: Resilience {
                        max_retries: int_attr("maxRetries") as u32,
                        backoff_ms: int_attr("backoffMs"),
                        timeout_ms: int_attr("timeoutMs"),
                        breaker_threshold: int_attr("breakerThreshold") as u32,
                        breaker_cooldown_ms: int_attr("breakerCooldownMs"),
                        fallback: model.attr_str(*a, "fallback").map(str::to_owned),
                    },
                });
            }
            // Fallbacks must name a *different* sibling action.
            for action in &actions {
                if let Some(f) = &action.resilience.fallback {
                    if f == &action.name {
                        return Err(BrokerError::InvalidModel(format!(
                            "action `{}` falls back to itself",
                            action.name
                        )));
                    }
                    if !actions.iter().any(|s| &s.name == f) {
                        return Err(BrokerError::InvalidModel(format!(
                            "action `{}` falls back to unknown action `{f}`",
                            action.name
                        )));
                    }
                }
            }
            handlers.push(HandlerSpec {
                name: model.attr_str(h, "name").unwrap_or_default().to_owned(),
                kind,
                selector: model.attr_str(h, "selector").unwrap_or_default().to_owned(),
                actions,
            });
        }

        // Policies.
        let mut policies = BTreeMap::new();
        for p in model.all_of_class("Policy") {
            let pname = model.attr_str(p, "name").unwrap_or_default().to_owned();
            let src = model.attr_str(p, "expression").unwrap_or_default();
            let expr = constraint::parse(src).map_err(|e| {
                BrokerError::InvalidModel(format!("policy `{pname}` failed to parse: {e}"))
            })?;
            policies.insert(pname, expr);
        }

        // Resource bindings.
        let bindings = model
            .all_of_class("ResourceBinding")
            .into_iter()
            .filter_map(|b| {
                Some((
                    model.attr_str(b, "name")?.to_owned(),
                    model.attr_str(b, "resource")?.to_owned(),
                ))
            })
            .collect();

        // Autonomic rules: join symptom -> request -> plan by name.
        let mut rules = Vec::new();
        for s in model.all_of_class("Symptom") {
            let sname = model.attr_str(s, "name").unwrap_or_default().to_owned();
            let cond_src = model.attr_str(s, "condition").unwrap_or_default();
            let condition = constraint::parse(cond_src).map_err(|e| {
                BrokerError::InvalidModel(format!("symptom `{sname}` condition: {e}"))
            })?;
            // Find the request referencing the symptom, then its plan.
            let request = model
                .all_of_class("ChangeRequest")
                .into_iter()
                .find(|r| model.attr_str(*r, "symptom") == Some(&sname));
            let mut steps = Vec::new();
            if let Some(r) = request {
                let rname = model.attr_str(r, "name").unwrap_or_default().to_owned();
                if let Some(plan) = model
                    .all_of_class("ChangePlan")
                    .into_iter()
                    .find(|p| model.attr_str(*p, "request") == Some(&rname))
                {
                    for step in model.attr_all(plan, "steps") {
                        if let Some(s) = step.as_str() {
                            steps.push(parse_step(s)?);
                        }
                    }
                }
            }
            rules.push(AutonomicRule {
                symptom: sname,
                condition,
                steps,
            });
        }

        // Overload control: admission classes and brownout modes are part
        // of the model too. Class limits are seeded into the state manager
        // so change plans can retune them through the same OCL-addressable
        // keys recovery replays.
        let mut state = StateManager::new();
        let admission = AdmissionController::from_model(model);
        if let Some(ctrl) = &admission {
            ctrl.seed_state(&mut state);
        }
        let brownout = BrownoutController::from_model(model)?;

        // Runtime monitors: every model-declared `Monitor` is compiled
        // once, up front — a broken property surfaces as a deployment-time
        // `MonitorParse`, not a latent recovery surprise.
        let monitor_specs: Vec<(String, String)> = model
            .all_of_class("Monitor")
            .into_iter()
            .map(|mo| {
                (
                    model.attr_str(mo, "name").unwrap_or_default().to_owned(),
                    model
                        .attr_str(mo, "property")
                        .unwrap_or_default()
                        .to_owned(),
                )
            })
            .collect();
        let monitors = if monitor_specs.is_empty() {
            None
        } else {
            Some(MonitorSet::compile(&monitor_specs)?)
        };

        // Load-time static analysis (after the legacy checks above, so
        // their more specific typed errors keep precedence): error-level
        // findings refuse the model with the typed `AnalysisRejected`;
        // warnings ride along on the engine and are journaled once
        // journaling is enabled.
        let analysis = crate::analysis::analyze(model);
        if !analysis.is_accepted() {
            return Err(BrokerError::AnalysisRejected(
                analysis.errors().cloned().collect(),
            ));
        }

        let mut broker = GenericBroker {
            name,
            handlers,
            policies,
            bindings,
            state,
            autonomic: AutonomicManager::new(rules),
            admission,
            brownout,
            hub,
            calls: 0,
            events: 0,
            clock_us: 0,
            journal: None,
            epoch: 1,
            model_version: 1,
            monitors,
            monitor_trips: Vec::new(),
            analysis,
        };
        // In-stream monitoring derives its dirty-key set from the same
        // recorded ops the journal frames, so recording must be on even
        // before (or without) `enable_journal`.
        if broker.monitors.is_some() {
            broker.state.record_ops(true);
        }
        Ok(broker)
    }

    /// The layer name from the model.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Handles a call from the upper layer: selects a handler by operation
    /// name, the first guard-passing action, and dispatches it.
    pub fn call(&mut self, op: &str, args: &Args) -> Result<BrokerCallResult> {
        self.calls += 1;
        if let Err(e) = self.monitor_gate() {
            let result: Result<BrokerCallResult> = Err(e);
            self.journal_command(CommandKind::Call, op, &result);
            return result;
        }
        let result = self.dispatch(HandlerKind::Call, op, args);
        let result = self.monitor_commit(result);
        self.journal_command(CommandKind::Call, op, &result);
        result
    }

    /// Handles a call through model-defined admission control: the chosen
    /// action's declared `costUs` is billed against its admission class's
    /// token bucket *before* anything touches a resource, so shed and
    /// deferred calls never perturb breaker or failure accounting. Every
    /// decision is journaled as a command record (`<shed:…>` /
    /// `<deferred>`), making overload behavior crash-replayable.
    pub fn call_admitted(
        &mut self,
        op: &str,
        args: &Args,
        meta: &CallMeta,
    ) -> Result<AdmittedOutcome> {
        self.calls += 1;
        if let Err(e) = self.monitor_gate() {
            let result: Result<BrokerCallResult> = Err(e.clone());
            self.journal_command(CommandKind::Call, op, &result);
            return Err(e);
        }
        let (handler, action) = match self.select_action(HandlerKind::Call, op) {
            Ok(sel) => sel,
            Err(e) => {
                let result: Result<BrokerCallResult> = Err(e.clone());
                self.journal_command(CommandKind::Call, op, &result);
                return Err(e);
            }
        };
        // The action's model-declared class wins over the caller's claim.
        let class = action
            .admission_class
            .clone()
            .unwrap_or_else(|| meta.class.clone());
        let controlled = self.admission.as_ref().is_some_and(|c| c.has_class(&class));
        let eff = CallMeta {
            class: class.clone(),
            ..meta.clone()
        };
        let decision = match &self.admission {
            Some(ctrl) => ctrl.decide(&mut self.state, self.clock_us, &eff, action.cost_us),
            None => AdmissionDecision::Admit {
                queue_delay_us: self.clock_us.saturating_sub(meta.arrival_us),
                deadline_us: meta.deadline_us,
            },
        };
        match decision {
            AdmissionDecision::Admit {
                queue_delay_us,
                deadline_us,
            } => {
                if controlled {
                    self.state.bump(&adm_key(&class, "admitted"), 1);
                }
                let result = self.execute_action(&handler, &action, args, 0);
                let result = self.monitor_commit(result);
                self.journal_command(CommandKind::Call, op, &result);
                result.map(|r| AdmittedOutcome::Executed {
                    result: r,
                    queue_delay_us,
                    deadline_us,
                })
            }
            AdmissionDecision::Defer { wait } => {
                self.state.bump(&adm_key(&class, "deferred"), 1);
                self.journal_admission(op, "<deferred>");
                Ok(AdmittedOutcome::Deferred { wait })
            }
            AdmissionDecision::Shed { reason } => {
                self.state.bump(&adm_key(&class, "shed"), 1);
                self.state.bump("adm_shed_recent", 1);
                self.journal_admission(op, &format!("<shed:{reason}>"));
                Ok(AdmittedOutcome::Shed { reason, class })
            }
        }
    }

    /// Journals a shed/deferred admission decision as a synthetic command
    /// record: not ok, zero attempts, zero cost — replay counts it exactly
    /// like the live run did.
    fn journal_admission(&mut self, selector: &str, action: &str) {
        let synthetic: Result<BrokerCallResult> = Ok(BrokerCallResult {
            outcome: Outcome::Failed(action.to_owned()),
            cost: SimDuration::ZERO,
            action: action.to_owned(),
            attempts: 0,
        });
        self.journal_command(CommandKind::Call, selector, &synthetic);
    }

    /// Handles an event from the underlying resources.
    pub fn event(&mut self, topic: &str, payload: &Args) -> Result<BrokerCallResult> {
        self.events += 1;
        if let Err(e) = self.monitor_gate() {
            let result: Result<BrokerCallResult> = Err(e);
            self.journal_command(CommandKind::Event, topic, &result);
            return result;
        }
        let result = self.dispatch(HandlerKind::Event, topic, payload);
        let result = self.monitor_commit(result);
        self.journal_command(CommandKind::Event, topic, &result);
        result
    }

    fn dispatch(
        &mut self,
        kind: HandlerKind,
        selector: &str,
        args: &Args,
    ) -> Result<BrokerCallResult> {
        let (handler, action) = self.select_action(kind, selector)?;
        self.execute_action(&handler, &action, args, 0)
    }

    /// Finds the handler for `selector` and the first action whose policy
    /// guard holds against the current state — the selection half of
    /// dispatch, shared by [`GenericBroker::call`] and
    /// [`GenericBroker::call_admitted`] (which must know the chosen
    /// action's declared cost *before* deciding to execute it).
    fn select_action(
        &self,
        kind: HandlerKind,
        selector: &str,
    ) -> Result<(HandlerSpec, ActionSpec)> {
        let handler = self
            .handlers
            .iter()
            .find(|h| h.kind == kind && h.selector == selector)
            .cloned()
            .ok_or_else(|| BrokerError::NoHandler(selector.to_owned()))?;

        // Select the first action whose guard holds.
        let mut chosen = None;
        for action in &handler.actions {
            let passes = match &action.guard {
                None => true,
                Some(g) => {
                    let expr = self.policies.get(g).ok_or_else(|| {
                        BrokerError::PolicyFailed(format!(
                            "action `{}` guards on unknown policy `{g}`",
                            action.name
                        ))
                    })?;
                    self.state.eval(expr)?
                }
            };
            if passes {
                chosen = Some(action.clone());
                break;
            }
        }
        let action = chosen.ok_or_else(|| {
            BrokerError::NoAction(format!("{selector} (handler `{}`)", handler.name))
        })?;
        Ok((handler, action))
    }

    /// Executes one action under its model-defined resilience spec:
    /// circuit-breaker gate, attempt loop with per-attempt timeout budget
    /// and deterministic virtual-time exponential backoff, then fallback
    /// escalation. All waiting is charged to the virtual clock — nothing
    /// sleeps — so runs replay bit-for-bit.
    fn execute_action(
        &mut self,
        handler: &HandlerSpec,
        action: &ActionSpec,
        args: &Args,
        depth: usize,
    ) -> Result<BrokerCallResult> {
        let spec = action.resilience.clone();

        // -- Circuit-breaker gate ------------------------------------------
        if spec.breaker_threshold > 0 && self.breaker_state(&action.resource) == "open" {
            let opened = self
                .state
                .int(&breaker_key(&action.resource, "opened_at_us"))
                .unwrap_or(0);
            if self.clock_us >= opened.max(0) as u64 + spec.breaker_cooldown_ms * 1_000 {
                // Cooldown elapsed: allow one half-open trial.
                self.state
                    .set_str(&breaker_key(&action.resource, ""), "half-open");
            } else {
                // Fast-fail without touching the resource.
                let failed = BrokerCallResult {
                    outcome: Outcome::Failed(format!("circuit open for `{}`", action.resource)),
                    cost: SimDuration::ZERO,
                    action: action.name.clone(),
                    attempts: 0,
                };
                return self.escalate(handler, action, args, depth, failed);
            }
        }

        // -- Attempt loop ---------------------------------------------------
        // Map arguments: `$x` reads call argument x; literals pass through.
        let mapped: Args = action
            .arg_mapping
            .iter()
            .map(|(k, v)| {
                let value = match v.strip_prefix('$') {
                    Some(arg) => args
                        .iter()
                        .find(|(ak, _)| ak == arg)
                        .map(|(_, av)| av.clone())
                        .unwrap_or_default(),
                    None => v.clone(),
                };
                (k.clone(), value)
            })
            .collect();
        let resource = self
            .bindings
            .get(&action.resource)
            .cloned()
            .unwrap_or_else(|| action.resource.clone());

        let mut attempts = 0u32;
        let mut total = SimDuration::ZERO;
        let last_outcome = loop {
            attempts += 1;
            let (mut outcome, mut cost) = self.hub.invoke(&resource, &action.operation, &mapped);
            if spec.timeout_ms > 0 && cost > SimDuration::from_millis(spec.timeout_ms) {
                // The caller stops waiting at the budget: a slow success is
                // a failure, and only the budget is charged.
                outcome = Outcome::Failed(format!(
                    "`{}` exceeded its {}ms budget",
                    action.resource, spec.timeout_ms
                ));
                cost = SimDuration::from_millis(spec.timeout_ms);
            }
            total = total.saturating_add(cost);
            self.clock_us += cost.as_micros();

            if outcome.is_ok() {
                if spec.breaker_threshold > 0 {
                    self.state
                        .set_str(&breaker_key(&action.resource, ""), "closed");
                    self.state
                        .set_int(&breaker_key(&action.resource, "failures"), 0);
                }
                for effect in &action.state_effects {
                    self.state.apply_effect(effect)?;
                }
                return Ok(BrokerCallResult {
                    outcome,
                    cost: total,
                    action: action.name.clone(),
                    attempts,
                });
            }

            // Monitoring for the autonomic loop: every failed attempt is a
            // real failed invocation (it is in the hub log too).
            self.state.bump(&format!("failures_{}", action.resource), 1);

            let mut opened = false;
            if spec.breaker_threshold > 0 {
                let was_half_open = self.breaker_state(&action.resource) == "half-open";
                let fails = self
                    .state
                    .int(&breaker_key(&action.resource, "failures"))
                    .unwrap_or(0)
                    + 1;
                self.state
                    .set_int(&breaker_key(&action.resource, "failures"), fails);
                if was_half_open || fails >= i64::from(spec.breaker_threshold) {
                    self.state
                        .set_str(&breaker_key(&action.resource, ""), "open");
                    self.state.set_int(
                        &breaker_key(&action.resource, "opened_at_us"),
                        self.clock_us as i64,
                    );
                    opened = true;
                }
            }
            if opened || attempts > spec.max_retries {
                break outcome;
            }
            if spec.backoff_ms > 0 {
                // Deterministic exponential backoff, charged as virtual time.
                let backoff = SimDuration::from_millis(spec.backoff_ms << (attempts - 1).min(16));
                total = total.saturating_add(backoff);
                self.clock_us += backoff.as_micros();
            }
        };

        let failed = BrokerCallResult {
            outcome: last_outcome,
            cost: total,
            action: action.name.clone(),
            attempts,
        };
        self.escalate(handler, action, args, depth, failed)
    }

    /// Dispatches the action's fallback (if any) after `failed`; the failed
    /// attempts' cost and count carry over into the fallback's result.
    fn escalate(
        &mut self,
        handler: &HandlerSpec,
        action: &ActionSpec,
        args: &Args,
        depth: usize,
        failed: BrokerCallResult,
    ) -> Result<BrokerCallResult> {
        let Some(fb) = &action.resilience.fallback else {
            return Ok(failed);
        };
        if depth >= MAX_FALLBACK_DEPTH {
            return Ok(failed);
        }
        let fb_action = handler
            .actions
            .iter()
            .find(|a| &a.name == fb)
            .cloned()
            .ok_or_else(|| {
                BrokerError::NoAction(format!(
                    "fallback `{fb}` of action `{}` not found",
                    action.name
                ))
            })?;
        let mut result = self.execute_action(handler, &fb_action, args, depth + 1)?;
        result.cost = failed.cost.saturating_add(result.cost);
        result.attempts += failed.attempts;
        Ok(result)
    }

    /// Current circuit-breaker state for a logical resource ("closed"
    /// until the breaker has ever tripped).
    fn breaker_state(&self, resource: &str) -> String {
        self.state
            .str(&breaker_key(resource, ""))
            .unwrap_or("closed")
            .to_owned()
    }

    /// Runs one autonomic MAPE cycle; returns emitted event topics.
    pub fn autonomic_tick(&mut self) -> Result<Vec<String>> {
        let r = self
            .autonomic
            .tick(&mut self.state, &mut self.hub, &self.bindings);
        self.journal_state_ops();
        self.maybe_snapshot();
        r
    }

    /// Runs one brownout-control cycle: reads the admission metrics from
    /// state, enters/exits model-declared degraded modes with hysteresis,
    /// and journals the resulting state writes so recovery resumes in the
    /// same mode. Returns the transition taken (if any) and the event
    /// topics its change-plan steps emitted.
    pub fn brownout_tick(&mut self) -> Result<(Option<BrownoutTransition>, Vec<String>)> {
        let r = self
            .brownout
            .tick(&mut self.state, &mut self.hub, &self.bindings);
        self.journal_state_ops();
        self.maybe_snapshot();
        r
    }

    /// Mode-change transitions taken by the brownout controller so far
    /// (in this instance's lifetime — a recovered broker starts at 0 but
    /// resumes in the journaled mode).
    pub fn brownout_transitions(&self) -> u64 {
        self.brownout.transitions()
    }

    /// The current brownout mode name (`"full"` when not degraded).
    pub fn brownout_mode(&self) -> String {
        self.state.str("brownout_mode").unwrap_or("full").to_owned()
    }

    // -- Online runtime verification ---------------------------------------

    /// Pre-dispatch gate: once any monitor's trip is latched in the
    /// runtime model, every further command is refused (typed) until the
    /// violation is repaired or rolled back — a tripped deployment must
    /// not keep executing commands against a divergent model.
    fn monitor_gate(&self) -> Result<()> {
        if self.monitors.is_none() || self.state.int(TRIP_COUNTER_KEY).unwrap_or(0) == 0 {
            return Ok(());
        }
        let (monitor, detail) = self
            .monitors
            .iter()
            .flat_map(MonitorSet::monitors)
            .find(|m| self.state.str(m.trip_key()).is_some())
            .map(|m| {
                (
                    m.name().to_owned(),
                    format!("latched violation of `{}`", m.source()),
                )
            })
            .unwrap_or_else(|| ("mon".to_owned(), "latched violation".to_owned()));
        Err(BrokerError::MonitorTripped { monitor, detail })
    }

    /// Post-dispatch, pre-journal check: evaluates every monitor watching
    /// a key the command just wrote (the pending journal ops *are* the
    /// dirty set — no extra tracking), records verdicts into the runtime
    /// model, and turns a trip into a typed refusal of the violating call
    /// — before its command record is framed, so nothing externally
    /// visible ever rests on an unverified state.
    fn monitor_commit(&mut self, result: Result<BrokerCallResult>) -> Result<BrokerCallResult> {
        let Some(monitors) = &self.monitors else {
            return result;
        };
        let trips = monitors.check_live_pending(&mut self.state);
        if self.journal.is_none() {
            // Without a journal nothing drains the recorded ops; drop them
            // so monitoring alone cannot grow memory without bound.
            let _ = self.state.take_ops();
        }
        match trips.first() {
            Some(t) => {
                let err = BrokerError::MonitorTripped {
                    monitor: t.monitor.clone(),
                    detail: t.detail.clone(),
                };
                self.monitor_trips.extend(trips);
                Err(err)
            }
            None => result,
        }
    }

    /// Applies one raw (faulty) write straight into the runtime model —
    /// the injection point of the E10 invariant-violating-mutation
    /// campaign, standing in for a buggy change plan or a corrupted
    /// mutation. The write goes through the state manager like any other
    /// mutation (journaled, shipped to replicas) and the monitors see it
    /// in-stream, immediately: the returned trips are what the online
    /// verifier caught before any later command could act on the
    /// divergent model.
    pub fn corrupt_state(&mut self, key: &str, value: &str) -> Vec<MonitorTrip> {
        match value.parse::<i64>() {
            Ok(i) => self.state.set_int(key, i),
            Err(_) => self.state.set_str(key, value),
        }
        let trips = match &self.monitors {
            Some(m) => m.check_live(&mut self.state, &[key]),
            None => Vec::new(),
        };
        self.monitor_trips.extend(trips.iter().cloned());
        self.journal_state_ops();
        self.maybe_snapshot();
        if self.journal.is_none() {
            let _ = self.state.take_ops();
        }
        trips
    }

    /// Rolls the runtime model back to the newest **verified** journaled
    /// snapshot — the autonomic repair for a tripped monitor. A snapshot
    /// whose captured state carries a tripped latch (the periodic cadence
    /// can fire right after a violating write, trip latches included) is
    /// skipped: rolling back to it would restore the violation. The
    /// violating mutation and everything after it (including the trip
    /// latches, which were written after the chosen snapshot) are
    /// discarded, and a fresh snapshot of the restored state is appended
    /// under the *current* call/event counters, so replaying the journal
    /// reproduces the rolled-back state byte-identically. Returns the
    /// state version rolled back to.
    pub fn rollback_to_snapshot(&mut self) -> Result<u64> {
        let Some(j) = self.journal.as_ref() else {
            return Err(BrokerError::RecoveryDiverged(
                "rollback requires journaling".to_owned(),
            ));
        };
        let text = std::str::from_utf8(j.bytes())
            .map_err(|e| BrokerError::RecoveryDiverged(format!("journal is not UTF-8: {e}")))?;
        let mut clean = None;
        for line in text
            .lines()
            .rev()
            .filter(|l| journal::line_payload(l).starts_with("snap "))
        {
            let JournalRecord::Snapshot { state, .. } = journal::parse_line(line)? else {
                return Err(BrokerError::RecoveryDiverged(
                    "snapshot record is corrupt".to_owned(),
                ));
            };
            let mut probe = StateManager::new();
            probe.restore(&state);
            if probe.int(TRIP_COUNTER_KEY).unwrap_or(0) == 0 {
                clean = Some(state);
                break;
            }
        }
        let state = clean.ok_or_else(|| {
            BrokerError::RecoveryDiverged("no verified snapshot to roll back to".to_owned())
        })?;
        let _ = self.state.take_ops();
        self.state.restore(&state);
        let version = self.state.version();
        let rec = JournalRecord::Snapshot {
            state: self.state.snapshot(),
            clock_us: self.clock_us,
            calls: self.calls,
            events: self.events,
        };
        if let Some(j) = self.journal.as_mut() {
            j.record(&rec);
        }
        Ok(version)
    }

    /// The compiled monitor set, when the model declares monitors.
    pub fn monitors(&self) -> Option<&MonitorSet> {
        self.monitors.as_ref()
    }

    /// Trips this instance observed, in order.
    pub fn monitor_trips(&self) -> &[MonitorTrip] {
        &self.monitor_trips
    }

    /// `true` while a latched monitor trip is refusing commands.
    pub fn monitor_latched(&self) -> bool {
        self.state.int(TRIP_COUNTER_KEY).unwrap_or(0) != 0
    }

    /// The broker's virtual clock: total virtual time charged to calls
    /// handled so far (invocation costs, retry backoff, timeout budgets).
    pub fn now(&self) -> SimTime {
        SimTime::from_micros(self.clock_us)
    }

    /// Advances the virtual clock by `d` (idle time between calls — lets a
    /// fault driver or experiment align external events with breaker
    /// cooldowns).
    pub fn advance_clock(&mut self, d: SimDuration) {
        self.clock_us += d.as_micros();
        let clock_us = self.clock_us;
        if let Some(j) = self.journal.as_mut() {
            j.record(&JournalRecord::Clock { clock_us });
        }
    }

    // -- Write-ahead journaling + crash recovery ---------------------------

    /// Turns on write-ahead journaling over a fresh in-memory sink, taking
    /// an initial full snapshot (so replay always has a base even when the
    /// state was already mutated) and then a new snapshot every
    /// `snapshot_every` journal entries. Records are CRC-framed.
    pub fn enable_journal(&mut self, snapshot_every: u64) {
        self.enable_journal_with(snapshot_every, true);
    }

    /// Like [`GenericBroker::enable_journal`] but choosing the journal
    /// dialect: `framed` wraps every record in the versioned CRC32 frame
    /// (the default elsewhere), `false` writes the legacy unframed format
    /// — the naive baseline E13 measures against.
    pub fn enable_journal_with(&mut self, snapshot_every: u64, framed: bool) {
        let mut j = Journal::over(Box::new(MemorySink::new()), snapshot_every);
        j.set_framed(framed);
        // Deployment-time analysis warnings go into the durable stream
        // first, so a post-mortem always sees what the analyzer flagged.
        for w in self.analysis.warnings() {
            j.record(&JournalRecord::Note {
                text: format!("analysis {w}"),
            });
        }
        j.record(&JournalRecord::Snapshot {
            state: self.state.snapshot(),
            clock_us: self.clock_us,
            calls: self.calls,
            events: self.events,
        });
        self.state.record_ops(true);
        self.journal = Some(j);
    }

    /// The journal's full byte contents — what survives a crash. `None`
    /// when journaling was never enabled.
    pub fn journal_bytes(&self) -> Option<&[u8]> {
        self.journal.as_ref().map(Journal::bytes)
    }

    /// Appends a free-form `Note` to the journal (operator breadcrumbs,
    /// repair provenance). A no-op when journaling is off; replay ignores
    /// notes, so this never perturbs recovery.
    pub fn journal_note(&mut self, text: &str) {
        if let Some(j) = self.journal.as_mut() {
            j.record(&JournalRecord::Note {
                text: text.to_owned(),
            });
        }
    }

    /// `(entries, snapshots)` appended so far, when journaling is on.
    pub fn journal_stats(&self) -> Option<(u64, u64)> {
        self.journal.as_ref().map(|j| (j.entries(), j.snapshots()))
    }

    /// The fencing epoch this engine serves under (1 until a failover
    /// promotes it).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Adopts a new fencing epoch (a promotion), journaling the fence so
    /// recovery — and any replication peer — refuses records from older
    /// epochs from here on.
    pub fn adopt_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
        if let Some(j) = self.journal.as_mut() {
            j.record(&JournalRecord::Epoch { epoch });
        }
    }

    /// The runtime-model version this engine currently interprets (1
    /// until a live upgrade cuts over).
    pub fn model_version(&self) -> u64 {
        self.model_version
    }

    /// Swaps the compiled interpretation of this engine for `model`'s —
    /// handlers, policies, bindings, autonomic rules, admission classes,
    /// brownout modes, monitors, and the analysis report — while keeping
    /// the live runtime state, journal, virtual clock, epoch, counters,
    /// and resource hub untouched. The candidate passes the full
    /// `from_model` validation pipeline (conformance, eager expression
    /// parsing, monitor compilation, static analysis) before anything is
    /// grafted, so a bad candidate leaves the engine exactly as it was.
    ///
    /// This changes only the in-memory interpretation; it journals
    /// nothing. Callers drive the durable protocol through
    /// [`GenericBroker::commit_upgrade`] (see [`crate::evolution`]).
    pub fn adopt_model(&mut self, model: &Model) -> Result<()> {
        // Compile into a throwaway engine first: all-or-nothing.
        let compiled = Self::from_model(model, ResourceHub::new(0))?;
        self.name = compiled.name;
        self.handlers = compiled.handlers;
        self.policies = compiled.policies;
        self.bindings = compiled.bindings;
        self.autonomic = compiled.autonomic;
        // The throwaway's freshly seeded state is discarded: the live
        // state already holds the old model's admission cells, and the
        // evolution protocol journals seeds for *new* classes as
        // migration ops inside the cutover record.
        self.admission = compiled.admission;
        self.brownout = compiled.brownout;
        self.monitors = compiled.monitors;
        self.analysis = compiled.analysis;
        if self.monitors.is_some() {
            self.state.record_ops(true);
        }
        Ok(())
    }

    /// Durably commits a model cutover: flushes pending state ops,
    /// checkpoints the pre-upgrade state, applies the migration writes
    /// `mutate` performs, and journals them *inside* a single versioned
    /// [`JournalRecord::Upgrade`] line — the torn-tail policy keeps or
    /// drops that line wholesale, so a crash anywhere in the protocol
    /// recovers to pure pre-upgrade or pure post-upgrade state, never a
    /// hybrid. A fresh post-upgrade snapshot follows. Returns the state
    /// version at the commit point.
    ///
    /// `model_version` is the version the engine serves from here on (a
    /// rollback passes the pre-upgrade version again); `tag` is
    /// human-readable provenance journaled with the record.
    pub fn commit_upgrade(
        &mut self,
        model_version: u64,
        tag: &str,
        mutate: &mut dyn FnMut(&mut StateManager),
    ) -> Result<u64> {
        if self.journal.is_none() {
            return Err(BrokerError::UpgradeRefused {
                stage: "cutover".into(),
                reasons: vec!["journaling is off: a cutover must be durable".into()],
            });
        }
        // WAL order: everything the old model wrote lands before the
        // pre-upgrade checkpoint.
        self.journal_state_ops();
        let pre = JournalRecord::Snapshot {
            state: self.state.snapshot(),
            clock_us: self.clock_us,
            calls: self.calls,
            events: self.events,
        };
        if let Some(j) = self.journal.as_mut() {
            j.record(&pre);
        }
        self.state.record_ops(true);
        mutate(&mut self.state);
        let ops = self.state.take_ops();
        let up = JournalRecord::Upgrade {
            version: model_version,
            tag: tag.to_owned(),
            ops,
        };
        if let Some(j) = self.journal.as_mut() {
            j.record(&up);
        }
        self.model_version = model_version;
        let post = JournalRecord::Snapshot {
            state: self.state.snapshot(),
            clock_us: self.clock_us,
            calls: self.calls,
            events: self.events,
        };
        if let Some(j) = self.journal.as_mut() {
            j.record(&post);
        }
        Ok(self.state.version())
    }

    /// Compacts the journal down to the newest snapshot at or below `lsn`
    /// (typically the replica-acknowledged LSN). Returns bytes reclaimed;
    /// 0 when journaling is off or no snapshot qualifies.
    pub fn truncate_journal_to(&mut self, lsn: u64) -> usize {
        self.journal.as_mut().map_or(0, |j| j.truncate_to(lsn))
    }

    /// Drains pending state ops into the journal (WAL order: state ops
    /// precede the command record that caused them). Runs of consecutive
    /// writes to the same key within the frame are coalesced into one
    /// [`JournalRecord::OpCoalesced`] carrying only the final value —
    /// exact, because nothing can observe the state between the ops of
    /// one frame — which keeps hot keys (token buckets, shed counters)
    /// from ballooning the journal under load.
    fn journal_state_ops(&mut self) {
        if self.journal.is_none() {
            return;
        }
        let ops = self.state.take_ops();
        if let Some(j) = self.journal.as_mut() {
            let mut i = 0;
            while i < ops.len() {
                let mut end = i;
                while end + 1 < ops.len() && ops[end + 1].key() == ops[i].key() {
                    end += 1;
                }
                if end == i {
                    j.record(&JournalRecord::Op(ops[i].clone()));
                } else {
                    j.record(&JournalRecord::OpCoalesced {
                        first_lsn: ops[i].lsn(),
                        op: ops[end].clone(),
                    });
                }
                i = end + 1;
            }
        }
    }

    /// Journals one executed command (even a failed dispatch — the
    /// call/event counters bumped, and recovery must agree with them).
    fn journal_command(
        &mut self,
        kind: CommandKind,
        selector: &str,
        result: &Result<BrokerCallResult>,
    ) {
        if self.journal.is_none() {
            return;
        }
        self.journal_state_ops();
        let clock_us = self.clock_us;
        let rec = match result {
            Ok(r) => JournalRecord::Command {
                clock_us,
                kind,
                selector: selector.to_owned(),
                action: r.action.clone(),
                ok: r.outcome.is_ok(),
                attempts: r.attempts,
                cost_us: r.cost.as_micros(),
            },
            Err(e) => JournalRecord::Command {
                clock_us,
                kind,
                selector: selector.to_owned(),
                action: format!("<{e}>"),
                ok: false,
                attempts: 0,
                cost_us: 0,
            },
        };
        if let Some(j) = self.journal.as_mut() {
            j.record(&rec);
        }
        self.maybe_snapshot();
    }

    /// Takes a periodic snapshot when the journal's policy says one is due,
    /// bounding how much tail the next recovery has to replay.
    fn maybe_snapshot(&mut self) {
        let due = self.journal.as_ref().is_some_and(Journal::snapshot_due);
        if !due {
            return;
        }
        let snap = JournalRecord::Snapshot {
            state: self.state.snapshot(),
            clock_us: self.clock_us,
            calls: self.calls,
            events: self.events,
        };
        if let Some(j) = self.journal.as_mut() {
            j.record(&snap);
        }
    }

    /// Rebuilds a broker deterministically from its model, the surviving
    /// resource hub, and the journal bytes of the crashed instance:
    /// restores the newest snapshot, replays the tail (LSN-checked), then
    /// verifies each OCL-lite `invariant` against the recovered runtime
    /// model through compiled monitors — refusing with the typed
    /// [`BrokerError::MonitorParse`] when one fails to parse and
    /// [`BrokerError::MonitorTripped`] when one fails to evaluate or
    /// evaluates to `false` (journal-level divergence — LSN gaps, corrupt
    /// records — is still [`BrokerError::RecoveryDiverged`]).
    ///
    /// The recovered broker journals into a sink pre-loaded with the old
    /// bytes and appends a fresh snapshot, so a later crash replays only a
    /// short tail.
    ///
    /// A torn tail (crash mid-append left the final record(s) unreadable)
    /// is self-healing: the journal is truncated to the last complete
    /// record, the truncation is journaled as a `Note`, and recovery
    /// continues — the report carries `torn_records_dropped`. Interior
    /// damage is the typed [`BrokerError::JournalDamaged`]; see
    /// [`crate::replication::recover_with_anti_entropy`] for the standby
    /// repair path.
    pub fn recover(
        model: &Model,
        hub: ResourceHub,
        journal_bytes: &[u8],
        invariants: &[&str],
    ) -> Result<(Self, RecoveryReport)> {
        let recovered = journal::replay(journal_bytes)?;
        Self::resume(model, hub, journal_bytes, recovered, invariants)
    }

    /// The second half of [`GenericBroker::recover`]: resumes a broker
    /// over `journal_bytes`, whose replay `recovered` the caller already
    /// holds — so every recovery entry point replays the journal once.
    pub(crate) fn resume(
        model: &Model,
        hub: ResourceHub,
        journal_bytes: &[u8],
        recovered: journal::Recovered,
        invariants: &[&str],
    ) -> Result<(Self, RecoveryReport)> {
        let mut broker = Self::from_model(model, hub)?;

        // Recovery-time invariant checking goes through the same compiled
        // monitors as the online path (one compile, pre-resolved state
        // paths) instead of re-parsing every string on every recover. A
        // broken invariant is the typed [`BrokerError::MonitorParse`], a
        // violated one the typed [`BrokerError::MonitorTripped`] — callers
        // can finally tell them apart. Already-latched trips pass: the
        // recovered instance resumes exactly where the live run was,
        // refusing commands until repaired.
        MonitorSet::from_invariants(invariants)?.check_full(&recovered.state)?;

        broker.state = recovered.state;
        broker.clock_us = recovered.clock_us;
        broker.calls = recovered.calls;
        broker.events = recovered.events;
        broker.epoch = recovered.epoch;
        broker.model_version = recovered.model_version;

        // Resume journaling over the inherited history — cut at the torn
        // tail first, so the unreadable garbage never survives into the
        // resumed journal — and checkpoint the recovered state
        // immediately. The resumed journal keeps its history's dialect
        // (framed vs legacy) so the byte stream stays self-consistent.
        let mut inherited = journal_bytes.to_vec();
        if let Some(t) = &recovered.torn {
            inherited.truncate(t.offset as usize);
        }
        let framed = inherited.is_empty() || journal::is_framed(&inherited);
        let mut j = Journal::over(Box::new(MemorySink::with_bytes(inherited)), 0);
        j.set_framed(framed);
        if let Some(t) = &recovered.torn {
            j.record(&JournalRecord::Note {
                text: format!(
                    "torn tail: dropped {} unreadable record(s) at offset {} after lsn {}: {}",
                    t.dropped_lines, t.offset, t.last_lsn, t.why
                ),
            });
        }
        j.record(&JournalRecord::Snapshot {
            state: broker.state.snapshot(),
            clock_us: broker.clock_us,
            calls: broker.calls,
            events: broker.events,
        });
        broker.state.record_ops(true);
        broker.journal = Some(j);

        let report = RecoveryReport {
            ops_replayed: recovered.ops_replayed,
            commands_replayed: recovered.commands_replayed,
            snapshot_version: recovered.snapshot_version,
            recovered_version: broker.state.version(),
            clock_us: broker.clock_us,
            invariants_checked: invariants.len() as u64,
            torn_records_dropped: recovered.torn.as_ref().map_or(0, |t| t.dropped_lines),
        };
        Ok((broker, report))
    }

    /// Recovers journaling cadence after [`GenericBroker::recover`] (which
    /// resumes with periodic snapshots off): a snapshot every
    /// `snapshot_every` entries.
    pub fn set_snapshot_every(&mut self, snapshot_every: u64) {
        if let Some(j) = self.journal.as_mut() {
            j.set_snapshot_every(snapshot_every);
        }
    }

    /// The journal's periodic-snapshot cadence: entries between snapshots,
    /// 0 when journaling or periodic snapshots are off.
    pub fn snapshot_every(&self) -> u64 {
        self.journal.as_ref().map_or(0, Journal::snapshot_every)
    }

    /// Consumes the broker and returns its resource hub — the resources
    /// outlive a middleware crash, so a supervisor extracts the hub from
    /// the dead instance and hands it to the recovered one.
    pub fn into_hub(self) -> ResourceHub {
        self.hub
    }

    /// The state manager (monitoring data and mode variables).
    pub fn state(&self) -> &StateManager {
        &self.state
    }

    /// Mutable state access (reflective tuning, tests).
    pub fn state_mut(&mut self) -> &mut StateManager {
        &mut self.state
    }

    /// The resource hub (health toggles, command trace).
    pub fn hub(&self) -> &ResourceHub {
        &self.hub
    }

    /// Mutable hub access (failure injection).
    pub fn hub_mut(&mut self) -> &mut ResourceHub {
        &mut self.hub
    }

    /// `(calls, events)` handled so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.calls, self.events)
    }

    /// How many times an autonomic symptom fired.
    pub fn symptom_fired(&self, symptom: &str) -> u64 {
        self.autonomic.fired(symptom)
    }

    /// The load-time static-analysis report for this engine's model:
    /// warnings (errors would have refused the model), the per-unit
    /// read/write footprint table, and the conflict graph.
    pub fn analysis_report(&self) -> &mddsm_meta::analysis::AnalysisReport {
        &self.analysis
    }
}

impl std::fmt::Debug for GenericBroker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GenericBroker")
            .field("name", &self.name)
            .field("handlers", &self.handlers.len())
            .field("policies", &self.policies.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::BrokerModelBuilder;
    use mddsm_sim::resource::args;
    use mddsm_sim::LatencyModel;

    fn hub() -> ResourceHub {
        let mut h = ResourceHub::new(7);
        h.register(
            "sim.media",
            LatencyModel::fixed_ms(2),
            SimDuration::from_millis(100),
            Box::new(|op: &str, a: &Args| Outcome::ok_with("echo", format!("{op}:{}", a.len()))),
        );
        h.register_fn("sim.relay", |_, _| Outcome::ok());
        h
    }

    fn model() -> Model {
        BrokerModelBuilder::new("ncb")
            .call_handler("open", "openSession")
            .policy("direct", "self.mode = null or self.mode = \"direct\"")
            .action(
                "open",
                "openDirect",
                "media",
                "open",
                &["peer=$peer", "codec=h264"],
                Some("direct"),
                &["opens=+1"],
            )
            .action(
                "open",
                "openRelay",
                "relay",
                "open",
                &["peer=$peer"],
                None,
                &[],
            )
            .event_handler("onLoss", "packetLoss")
            .action("onLoss", "report", "media", "report", &[], None, &[])
            .autonomic_rule(
                "mediaFlaky",
                "self.failures_media <> null and self.failures_media > 1",
                &[
                    "heal media",
                    "set failures_media 0",
                    "set mode relay",
                    "emit recovered",
                ],
            )
            .bind_resource("media", "sim.media")
            .bind_resource("relay", "sim.relay")
            .build()
    }

    fn broker() -> GenericBroker {
        GenericBroker::from_model(&model(), hub()).unwrap()
    }

    /// Tight admission: burst covers one 1000µs call, trickle refill.
    fn overload_model() -> Model {
        BrokerModelBuilder::new("olb")
            .call_handler("req", "serve")
            .resilient_action(
                "req",
                "serveFull",
                "media",
                "serve",
                &[],
                None,
                &[],
                &Resilience {
                    max_retries: 0,
                    backoff_ms: 0,
                    timeout_ms: 0,
                    breaker_threshold: 2,
                    breaker_cooldown_ms: 50,
                    fallback: None,
                },
            )
            .with_admission("req", 1_000, "interactive")
            .admission_class("interactive", 100, 1_000, 20_000, 50_000)
            .bind_resource("media", "sim.media")
            .build()
    }

    #[test]
    fn shed_and_deferred_outcomes_never_touch_the_breaker() {
        let mut b = GenericBroker::from_model(&overload_model(), hub()).unwrap();
        // One admitted call drains the bucket (burst 1000 = one cost).
        let r = b
            .call_admitted("serve", &args(&[]), &CallMeta::new("interactive", 0))
            .unwrap();
        assert!(r.is_executed());
        // Bucket empty, refill is slow: the next call is deferred.
        let now = b.now().as_micros();
        let r2 = b
            .call_admitted("serve", &args(&[]), &CallMeta::new("interactive", now))
            .unwrap();
        assert!(matches!(r2, AdmittedOutcome::Deferred { .. }));
        // A call whose deadline already passed is shed.
        let r3 = b
            .call_admitted(
                "serve",
                &args(&[]),
                &CallMeta::new("interactive", 0).with_deadline(1),
            )
            .unwrap();
        assert!(matches!(
            r3,
            AdmittedOutcome::Shed {
                reason: ShedReason::DeadlineExpired,
                ..
            }
        ));
        // Satellite regression: neither defer nor shed is a *failure* —
        // the breaker stays closed with zero recorded failures (the one
        // admitted success reset it), and the resource saw exactly the
        // one admitted call.
        assert_eq!(b.state().str("breaker_media"), Some("closed"));
        assert_eq!(b.state().int("breaker_media_failures"), Some(0));
        assert_eq!(b.state().int("failures_media"), None);
        assert_eq!(b.hub().command_trace().len(), 1);
        // But the overload ledger saw all three decisions.
        assert_eq!(b.state().int("adm_interactive_admitted"), Some(1));
        assert_eq!(b.state().int("adm_interactive_deferred"), Some(1));
        assert_eq!(b.state().int("adm_interactive_shed"), Some(1));
        assert_eq!(b.state().int("adm_shed_recent"), Some(1));
        assert_eq!(b.stats(), (3, 0));
    }

    #[test]
    fn breaker_still_trips_on_real_failures_under_admission() {
        // Rate 0 = unlimited: admission passes everything through, so the
        // only failure signal left is the resource genuinely failing.
        let model = BrokerModelBuilder::new("olb")
            .call_handler("req", "serve")
            .resilient_action(
                "req",
                "serveFull",
                "media",
                "serve",
                &[],
                None,
                &[],
                &Resilience {
                    max_retries: 0,
                    backoff_ms: 0,
                    timeout_ms: 0,
                    breaker_threshold: 2,
                    breaker_cooldown_ms: 50,
                    fallback: None,
                },
            )
            .with_admission("req", 1_000, "interactive")
            .admission_class("interactive", 0, 0, 0, 0)
            .bind_resource("media", "sim.media")
            .build();
        let mut b = GenericBroker::from_model(&model, hub()).unwrap();
        b.hub_mut().set_healthy("sim.media", false);
        for _ in 0..2 {
            let now = b.now().as_micros();
            let r = b
                .call_admitted("serve", &args(&[]), &CallMeta::new("interactive", now))
                .unwrap();
            assert!(r.is_executed());
        }
        assert_eq!(b.state().str("breaker_media"), Some("open"));
        assert_eq!(b.state().int("failures_media"), Some(2));
    }

    #[test]
    fn brownout_mode_survives_crash_recovery() {
        let model = BrokerModelBuilder::new("bb")
            .call_handler("req", "serve")
            .policy("lite", "self.svc_mode = \"lite\"")
            .action("req", "serveLite", "relay", "serve", &[], Some("lite"), &[])
            .action("req", "serveFull", "media", "serve", &[], None, &[])
            .with_admission("req", 1_000, "interactive")
            .admission_class("interactive", 100, 1_000, 20_000, 50_000)
            .brownout_mode(
                "lite",
                1,
                1_000_000,
                2_000,
                2,
                0,
                &["set svc_mode lite"],
                &["set svc_mode full"],
            )
            .bind_resource("media", "sim.media")
            .bind_resource("relay", "sim.relay")
            .build();
        let mut b = GenericBroker::from_model(&model, hub()).unwrap();
        b.enable_journal(0);
        b.advance_clock(SimDuration::from_millis(1));
        // Two expired-deadline calls shed -> the shed trigger fires.
        for _ in 0..2 {
            let r = b
                .call_admitted(
                    "serve",
                    &args(&[]),
                    &CallMeta::new("interactive", 0).with_deadline(1),
                )
                .unwrap();
            assert!(matches!(r, AdmittedOutcome::Shed { .. }));
        }
        let (t, _) = b.brownout_tick().unwrap();
        assert_eq!(t.map(|t| t.to), Some("lite".to_owned()));
        assert_eq!(b.brownout_mode(), "lite");
        // Degraded mode steers dispatch to the lite action.
        let r = b
            .call_admitted("serve", &args(&[]), &CallMeta::new("interactive", 1_000))
            .unwrap();
        let AdmittedOutcome::Executed { result, .. } = r else {
            panic!("expected execution, got {r:?}");
        };
        assert_eq!(result.action, "serveLite");
        // Crash mid-brownout; recovery must resume in the same mode.
        let bytes = b.journal_bytes().expect("journaling on").to_vec();
        let hub = b.into_hub();
        let (recovered, _) = GenericBroker::recover(&model, hub, &bytes, &[]).unwrap();
        assert_eq!(recovered.brownout_mode(), "lite");
        assert_eq!(recovered.state().str("svc_mode"), Some("lite"));
    }

    #[test]
    fn journal_coalesces_hot_keys_and_replays_exactly() {
        let model = BrokerModelBuilder::new("cj")
            .call_handler("do", "doIt")
            .action(
                "do",
                "act",
                "relay",
                "go",
                &[],
                None,
                &["hot=+1", "hot=+1", "hot=+1", "cold=1"],
            )
            .bind_resource("relay", "sim.relay")
            .build();
        let mut b = GenericBroker::from_model(&model, hub()).unwrap();
        b.enable_journal(0);
        b.call("doIt", &args(&[])).unwrap();
        let text = String::from_utf8(b.journal_bytes().unwrap().to_vec()).unwrap();
        let opc = text
            .lines()
            .filter(|l| journal::line_payload(l).starts_with("opc "))
            .count();
        let op = text
            .lines()
            .filter(|l| journal::line_payload(l).starts_with("op "))
            .count();
        assert_eq!((opc, op), (1, 1), "journal:\n{text}");
        assert_eq!(b.state().int("hot"), Some(3));
        let snap = b.state().snapshot();
        let bytes = b.journal_bytes().expect("journaling on").to_vec();
        let (rec, _) = GenericBroker::recover(&model, b.into_hub(), &bytes, &[]).unwrap();
        assert_eq!(rec.state().snapshot(), snap);
    }

    #[test]
    fn call_selects_guarded_action_and_maps_args() {
        let mut b = broker();
        let r = b.call("openSession", &args(&[("peer", "bob")])).unwrap();
        assert_eq!(r.action, "openDirect");
        assert!(r.outcome.is_ok());
        assert_eq!(r.cost, SimDuration::from_millis(2));
        assert_eq!(b.state().int("opens"), Some(1));
        let trace = b.hub().command_trace();
        assert_eq!(trace, vec!["sim.media.open(peer=bob, codec=h264)"]);
        assert_eq!(b.stats(), (1, 0));
    }

    #[test]
    fn guard_failure_falls_through_to_next_action() {
        let mut b = broker();
        b.state_mut().set_str("mode", "relay");
        let r = b.call("openSession", &args(&[("peer", "bob")])).unwrap();
        assert_eq!(r.action, "openRelay");
        assert!(b.hub().command_trace()[0].starts_with("sim.relay.open"));
    }

    #[test]
    fn events_are_dispatched_too() {
        let mut b = broker();
        let r = b.event("packetLoss", &Args::new()).unwrap();
        assert_eq!(r.action, "report");
        assert_eq!(b.stats(), (0, 1));
        // Call handler does not match events and vice versa.
        assert!(matches!(
            b.call("packetLoss", &Args::new()),
            Err(BrokerError::NoHandler(_))
        ));
        assert!(matches!(
            b.event("openSession", &Args::new()),
            Err(BrokerError::NoHandler(_))
        ));
    }

    #[test]
    fn failures_feed_autonomic_loop_which_recovers() {
        let mut b = broker();
        b.hub_mut().set_healthy("sim.media", false);
        // Two failed calls trip the symptom threshold.
        for _ in 0..2 {
            let r = b.call("openSession", &args(&[("peer", "bob")])).unwrap();
            assert!(!r.outcome.is_ok());
            assert_eq!(r.cost, SimDuration::from_millis(100)); // timeout
        }
        assert_eq!(b.state().int("failures_media"), Some(2));
        let emitted = b.autonomic_tick().unwrap();
        assert_eq!(emitted, vec!["recovered".to_string()]);
        assert_eq!(b.symptom_fired("mediaFlaky"), 1);
        assert!(b.hub().is_healthy("sim.media"));
        assert_eq!(b.state().int("failures_media"), Some(0));
        // The plan also switched mode to relay: next open goes via relay.
        let r = b.call("openSession", &args(&[("peer", "bob")])).unwrap();
        assert_eq!(r.action, "openRelay");
    }

    #[test]
    fn unknown_policy_guard_is_rejected_at_load_time() {
        // Historically this only failed at dispatch time (PolicyFailed);
        // the static analyzer now refuses the model before it runs.
        let m = BrokerModelBuilder::new("x")
            .call_handler("h", "op")
            .action("h", "a", "r", "o", &[], Some("ghost"), &[])
            .build();
        let err = GenericBroker::from_model(&m, ResourceHub::new(1))
            .map(|_| ())
            .unwrap_err();
        match err {
            BrokerError::AnalysisRejected(diags) => {
                assert!(
                    diags.iter().any(|d| d.code == "unknown-policy"),
                    "{diags:?}"
                );
            }
            other => panic!("expected AnalysisRejected, got {other}"),
        }
    }

    #[test]
    fn bad_models_rejected() {
        // Wrong metamodel name.
        let m = Model::new("other");
        assert!(matches!(
            GenericBroker::from_model(&m, ResourceHub::new(1)).map(|_| ()),
            Err(BrokerError::InvalidModel(_))
        ));
        // Unparsable policy expression.
        let m = BrokerModelBuilder::new("x")
            .call_handler("h", "op")
            .action("h", "a", "r", "o", &[], None, &[])
            .policy("bad", "self.")
            .build();
        assert!(matches!(
            GenericBroker::from_model(&m, ResourceHub::new(1)).map(|_| ()),
            Err(BrokerError::InvalidModel(_))
        ));
    }

    #[test]
    fn missing_call_argument_maps_to_empty() {
        let mut b = broker();
        let r = b.call("openSession", &Args::new()).unwrap();
        assert!(r.outcome.is_ok());
        assert_eq!(
            b.hub().command_trace()[0],
            "sim.media.open(peer=, codec=h264)"
        );
    }

    /// A hub whose `sim.flaky` resource fails the first `n` invocations of
    /// any operation, then succeeds.
    fn flaky_hub(n: u32) -> ResourceHub {
        let mut h = ResourceHub::new(7);
        let mut left = n;
        h.register(
            "sim.flaky",
            LatencyModel::fixed_ms(10),
            SimDuration::from_millis(500),
            Box::new(move |_: &str, _: &Args| {
                if left > 0 {
                    left -= 1;
                    Outcome::Failed("transient".into())
                } else {
                    Outcome::ok()
                }
            }),
        );
        h.register_fn("sim.backup", |_, _| Outcome::ok());
        h
    }

    #[test]
    fn retry_with_backoff_recovers_and_charges_virtual_time() {
        use crate::model::Resilience;
        let m = BrokerModelBuilder::lean("r")
            .call_handler("h", "op")
            .resilient_action(
                "h",
                "try",
                "sim.flaky",
                "go",
                &[],
                None,
                &[],
                &Resilience::retries(3, 20),
            )
            .build();
        let mut b = GenericBroker::from_model(&m, flaky_hub(2)).unwrap();
        let r = b.call("op", &Args::new()).unwrap();
        assert!(r.outcome.is_ok());
        assert_eq!(r.attempts, 3);
        // 3 invocations à 10ms + backoffs 20ms and 40ms.
        assert_eq!(r.cost, SimDuration::from_millis(10 + 20 + 10 + 40 + 10));
        assert_eq!(b.now(), SimTime::from_millis(90));
        // Both failed attempts were monitored.
        assert_eq!(b.state().int("failures_sim.flaky"), Some(2));
    }

    #[test]
    fn retries_exhaust_into_failure() {
        use crate::model::Resilience;
        let m = BrokerModelBuilder::lean("r")
            .call_handler("h", "op")
            .resilient_action(
                "h",
                "try",
                "sim.flaky",
                "go",
                &[],
                None,
                &[],
                &Resilience::retries(1, 0),
            )
            .build();
        let mut b = GenericBroker::from_model(&m, flaky_hub(5)).unwrap();
        let r = b.call("op", &Args::new()).unwrap();
        assert!(!r.outcome.is_ok());
        assert_eq!(r.attempts, 2);
    }

    #[test]
    fn timeout_budget_converts_slow_calls_into_failures() {
        use crate::model::Resilience;
        let m = BrokerModelBuilder::lean("t")
            .call_handler("h", "op")
            .resilient_action(
                "h",
                "slow",
                "sim.media",
                "open",
                &[],
                None,
                &[],
                &Resilience::default().with_timeout(1),
            )
            .build();
        // sim.media costs a fixed 2ms > the 1ms budget.
        let mut b = GenericBroker::from_model(&m, hub()).unwrap();
        let r = b.call("op", &Args::new()).unwrap();
        assert!(!r.outcome.is_ok());
        assert_eq!(r.cost, SimDuration::from_millis(1)); // charged the budget only
        assert!(matches!(&r.outcome, Outcome::Failed(m) if m.contains("budget")));
    }

    #[test]
    fn breaker_opens_half_opens_and_closes() {
        use crate::model::Resilience;
        let m = BrokerModelBuilder::lean("cb")
            .call_handler("h", "op")
            .resilient_action(
                "h",
                "guarded",
                "sim.flaky",
                "go",
                &[],
                None,
                &[],
                &Resilience::breaker(2, 100),
            )
            .build();
        let mut b = GenericBroker::from_model(&m, flaky_hub(3)).unwrap();
        // Two failures trip the breaker (threshold 2).
        for _ in 0..2 {
            assert!(!b.call("op", &Args::new()).unwrap().outcome.is_ok());
        }
        assert_eq!(b.state().str("breaker_sim.flaky"), Some("open"));
        // While open: fast-fail, no hub invocation, zero cost.
        let log_len = b.hub().log().len();
        let r = b.call("op", &Args::new()).unwrap();
        assert_eq!(r.attempts, 0);
        assert_eq!(r.cost, SimDuration::ZERO);
        assert!(matches!(&r.outcome, Outcome::Failed(m) if m.contains("circuit open")));
        assert_eq!(b.hub().log().len(), log_len);
        // After the cooldown: half-open trial; it fails -> reopens.
        b.advance_clock(SimDuration::from_millis(100));
        let r = b.call("op", &Args::new()).unwrap();
        assert!(!r.outcome.is_ok());
        assert_eq!(r.attempts, 1);
        assert_eq!(b.state().str("breaker_sim.flaky"), Some("open"));
        // Next cooldown: the resource has healed; trial succeeds -> closed.
        b.advance_clock(SimDuration::from_millis(100));
        let r = b.call("op", &Args::new()).unwrap();
        assert!(r.outcome.is_ok());
        assert_eq!(b.state().str("breaker_sim.flaky"), Some("closed"));
        assert_eq!(b.state().int("breaker_sim.flaky_failures"), Some(0));
    }

    #[test]
    fn fallback_escalates_and_accumulates_cost() {
        use crate::model::Resilience;
        let m = BrokerModelBuilder::lean("fb")
            .call_handler("h", "op")
            .resilient_action(
                "h",
                "primary",
                "sim.flaky",
                "go",
                &[],
                None,
                &[],
                &Resilience::retries(1, 5).with_fallback("backup"),
            )
            .action("h", "backup", "sim.backup", "go", &[], None, &[])
            .build();
        let mut b = GenericBroker::from_model(&m, flaky_hub(10)).unwrap();
        let r = b.call("op", &Args::new()).unwrap();
        assert!(r.outcome.is_ok());
        assert_eq!(r.action, "backup");
        // 2 failed attempts à 10ms + 5ms backoff + 0ms backup call.
        assert_eq!(r.cost, SimDuration::from_millis(25));
        assert_eq!(r.attempts, 3);
    }

    #[test]
    fn fallback_to_unknown_or_self_rejected_at_load() {
        use crate::model::Resilience;
        let m = BrokerModelBuilder::lean("bad")
            .call_handler("h", "op")
            .resilient_action(
                "h",
                "a",
                "r",
                "o",
                &[],
                None,
                &[],
                &Resilience::default().with_fallback("ghost"),
            )
            .build();
        assert!(matches!(
            GenericBroker::from_model(&m, ResourceHub::new(1)).map(|_| ()),
            Err(BrokerError::InvalidModel(msg)) if msg.contains("ghost")
        ));
        let m = BrokerModelBuilder::lean("bad2")
            .call_handler("h", "op")
            .resilient_action(
                "h",
                "a",
                "r",
                "o",
                &[],
                None,
                &[],
                &Resilience::default().with_fallback("a"),
            )
            .build();
        assert!(matches!(
            GenericBroker::from_model(&m, ResourceHub::new(1)).map(|_| ()),
            Err(BrokerError::InvalidModel(msg)) if msg.contains("itself")
        ));
    }

    #[test]
    fn autonomic_plan_can_reset_a_breaker() {
        use crate::model::Resilience;
        let m = BrokerModelBuilder::new("ar")
            .call_handler("h", "op")
            .resilient_action(
                "h",
                "guarded",
                "flaky",
                "go",
                &[],
                None,
                &[],
                &Resilience::breaker(1, 1_000_000),
            )
            .autonomic_rule(
                "breakerStuck",
                "self.breaker_flaky = \"open\"",
                &["heal flaky", "reset_breaker flaky"],
            )
            .bind_resource("flaky", "sim.flaky")
            .build();
        let mut b = GenericBroker::from_model(&m, flaky_hub(1)).unwrap();
        assert!(!b.call("op", &Args::new()).unwrap().outcome.is_ok());
        assert_eq!(b.state().str("breaker_flaky"), Some("open"));
        b.autonomic_tick().unwrap();
        assert_eq!(b.symptom_fired("breakerStuck"), 1);
        assert_eq!(b.state().str("breaker_flaky"), Some("closed"));
        // Breaker closed again: the next call goes through to the resource.
        let r = b.call("op", &Args::new()).unwrap();
        assert!(r.outcome.is_ok());
    }

    #[test]
    fn breaker_half_open_transitions_interleaved_with_autonomic_resets() {
        use crate::model::Resilience;
        // Breaker threshold 2, 100ms cooldown, plus an autonomic rule that
        // force-closes the breaker when too many total failures pile up.
        let m = BrokerModelBuilder::new("cbx")
            .call_handler("h", "op")
            .resilient_action(
                "h",
                "guarded",
                "flaky",
                "go",
                &[],
                None,
                &[],
                &Resilience::breaker(2, 100),
            )
            .autonomic_rule(
                "stuckOpen",
                "self.breaker_flaky = \"open\" and self.failures_flaky > 2",
                &["heal flaky", "reset_breaker flaky", "set failures_flaky 0"],
            )
            .bind_resource("flaky", "sim.flaky")
            .build();
        // First 3 invocations fail: 2 to trip the breaker + 1 failed
        // half-open trial; everything after succeeds.
        let mut b = GenericBroker::from_model(&m, flaky_hub(3)).unwrap();

        // Trip the breaker (2 failures >= threshold).
        for _ in 0..2 {
            assert!(!b.call("op", &Args::new()).unwrap().outcome.is_ok());
        }
        assert_eq!(b.state().str("breaker_flaky"), Some("open"));

        // Cooldown elapses -> half-open trial; resource still down -> the
        // trial fails and the breaker reopens from half-open.
        b.advance_clock(SimDuration::from_millis(100));
        let r = b.call("op", &Args::new()).unwrap();
        assert_eq!(r.attempts, 1);
        assert_eq!(b.state().str("breaker_flaky"), Some("open"));
        assert_eq!(b.state().int("failures_flaky"), Some(3));

        // Autonomic tick: symptom fires, heals the resource and closes the
        // breaker *without* waiting for another cooldown.
        b.autonomic_tick().unwrap();
        assert_eq!(b.symptom_fired("stuckOpen"), 1);
        assert_eq!(b.state().str("breaker_flaky"), Some("closed"));

        // Closed again: next call reaches the (now healed) resource, and
        // the success path resets the failure counter.
        let r = b.call("op", &Args::new()).unwrap();
        assert!(r.outcome.is_ok());
        assert_eq!(r.attempts, 1);
        assert_eq!(b.state().str("breaker_flaky"), Some("closed"));
        assert_eq!(b.state().int("breaker_flaky_failures"), Some(0));

        // Interleave the other direction: trip it again, then let the
        // half-open trial *succeed* -> closed (no autonomic help needed).
        b.hub_mut().set_healthy("sim.flaky", false);
        for _ in 0..2 {
            assert!(!b.call("op", &Args::new()).unwrap().outcome.is_ok());
        }
        assert_eq!(b.state().str("breaker_flaky"), Some("open"));
        b.hub_mut().set_healthy("sim.flaky", true);
        b.advance_clock(SimDuration::from_millis(100));
        let r = b.call("op", &Args::new()).unwrap();
        assert!(r.outcome.is_ok());
        assert_eq!(b.state().str("breaker_flaky"), Some("closed"));
    }

    #[test]
    fn journaled_broker_recovers_with_identical_state_and_counters() {
        let mut b = broker();
        b.enable_journal(4);
        for i in 0..5 {
            let peer = format!("p{i}");
            b.call("openSession", &args(&[("peer", &peer)])).unwrap();
        }
        b.event("packetLoss", &Args::new()).unwrap();
        b.advance_clock(SimDuration::from_millis(7));
        b.autonomic_tick().unwrap();
        let (entries, snapshots) = b.journal_stats().unwrap();
        assert!(entries > 0);
        assert!(snapshots >= 2, "initial + at least one periodic");

        let pre_state = b.state().snapshot();
        let pre_now = b.now();
        let pre_stats = b.stats();
        let bytes = b.journal_bytes().unwrap().to_vec();
        let hub = b.into_hub(); // the crash: the engine is gone, resources survive

        let (r, report) = GenericBroker::recover(
            &model(),
            hub,
            &bytes,
            &["self.opens >= 0", "self.opens <= 5"],
        )
        .unwrap();
        assert_eq!(r.state().snapshot(), pre_state);
        assert_eq!(r.now(), pre_now);
        assert_eq!(r.stats(), pre_stats);
        assert_eq!(report.invariants_checked, 2);
        assert!(report.snapshot_version > 0);
        assert_eq!(report.recovered_version, pre_state.version);

        // The recovered broker keeps journaling: it can crash and recover
        // again, and the second recovery replays only the post-crash tail.
        let mut r = r;
        r.call("openSession", &args(&[("peer", "pz")])).unwrap();
        let bytes2 = r.journal_bytes().unwrap().to_vec();
        let hub2 = r.into_hub();
        let (r2, report2) = GenericBroker::recover(&model(), hub2, &bytes2, &[]).unwrap();
        assert_eq!(r2.state().int("opens"), Some(6));
        assert!(report2.commands_replayed <= 1 + report2.ops_replayed);
    }

    #[test]
    fn recovery_refuses_violated_or_broken_invariants() {
        let mut b = broker();
        b.enable_journal(0);
        b.call("openSession", &args(&[("peer", "a")])).unwrap();
        let bytes = b.journal_bytes().unwrap().to_vec();

        // A violated invariant is a typed refusal, distinct from a broken
        // one: callers can tell "the model diverged" from "the property
        // source is wrong".
        let err = GenericBroker::recover(&model(), hub(), &bytes, &["self.opens > 99"])
            .expect_err("must refuse");
        assert!(
            matches!(err, BrokerError::MonitorTripped { ref detail, .. } if detail.contains("does not hold"))
        );

        // An unparsable one is a compile error, not a violation.
        let err =
            GenericBroker::recover(&model(), hub(), &bytes, &["self."]).expect_err("must refuse");
        assert!(matches!(err, BrokerError::MonitorParse { ref monitor, .. } if monitor == "self."));

        // And corrupt journal bytes: an appended record whose LSN gaps
        // means committed history is missing — the typed damage error,
        // carrying position (the gap is discovered at the appended line).
        let mut corrupt = bytes.clone();
        corrupt.extend_from_slice(b"op 99 int x 1\n");
        let err = GenericBroker::recover(&model(), hub(), &corrupt, &[]).expect_err("must refuse");
        assert!(
            matches!(err, BrokerError::JournalDamaged { offset, .. } if offset == bytes.len() as u64)
        );
    }

    #[test]
    fn unjournaled_broker_pays_nothing_and_recovers_nothing() {
        let mut b = broker();
        b.call("openSession", &args(&[("peer", "a")])).unwrap();
        assert!(b.journal_bytes().is_none());
        assert!(b.journal_stats().is_none());
    }

    #[test]
    fn lean_model_builds_and_serves() {
        let m = BrokerModelBuilder::lean("tiny")
            .call_handler("h", "ping")
            .action("h", "a", "sim.media", "ping", &[], None, &[])
            .build();
        let mut b = GenericBroker::from_model(&m, hub()).unwrap();
        let r = b.call("ping", &Args::new()).unwrap();
        assert!(r.outcome.is_ok());
        assert_eq!(b.name(), "tiny");
    }

    // -- Online runtime verification ---------------------------------------

    /// The standard model plus one capacity monitor on `opens`.
    fn monitored_model(property: &str) -> Model {
        BrokerModelBuilder::new("ncb")
            .call_handler("open", "openSession")
            .action(
                "open",
                "openDirect",
                "media",
                "open",
                &["peer=$peer"],
                None,
                &["opens=+1"],
            )
            .monitor("cap", property)
            .bind_resource("media", "sim.media")
            .build()
    }

    #[test]
    fn violating_call_is_refused_in_stream_and_latches() {
        let mut b =
            GenericBroker::from_model(&monitored_model("always self.opens <= 2"), hub()).unwrap();
        b.enable_journal(0);
        for _ in 0..2 {
            b.call("openSession", &args(&[("peer", "a")])).unwrap();
        }
        // The third call's state effect drives opens to 3: the monitor
        // sees it before the command record is framed and refuses.
        let err = b
            .call("openSession", &args(&[("peer", "a")]))
            .expect_err("monitor must trip");
        assert!(
            matches!(err, BrokerError::MonitorTripped { ref monitor, .. } if monitor == "cap"),
            "{err}"
        );
        assert!(b.monitor_latched());
        assert_eq!(b.monitor_trips().len(), 1);
        assert_eq!(b.state().int("mon_trips"), Some(1));
        // Latched: the next call is refused before dispatch (no resource
        // invocation, no state effect).
        let trace_len = b.hub().command_trace().len();
        let err = b
            .call("openSession", &args(&[("peer", "a")]))
            .expect_err("latched");
        assert!(
            matches!(err, BrokerError::MonitorTripped { ref detail, .. } if detail.contains("latched"))
        );
        assert_eq!(b.hub().command_trace().len(), trace_len);
        assert_eq!(b.state().int("opens"), Some(3), "no further effects");

        // The trip is journaled state: recovery resumes latched, still
        // refusing commands — byte-identical monitoring.
        let bytes = b.journal_bytes().unwrap().to_vec();
        let live_snap = b.state().snapshot();
        let (mut r, _) = GenericBroker::recover(
            &monitored_model("always self.opens <= 2"),
            b.into_hub(),
            &bytes,
            &[],
        )
        .unwrap();
        assert_eq!(r.state().snapshot(), live_snap);
        assert!(r.monitor_latched());
        assert!(r.call("openSession", &args(&[("peer", "a")])).is_err());
    }

    #[test]
    fn corruption_is_caught_in_stream_and_rolled_back() {
        let mut b = GenericBroker::from_model(&monitored_model("self.opens >= 0"), hub()).unwrap();
        b.enable_journal(0);
        b.call("openSession", &args(&[("peer", "a")])).unwrap();

        // An invariant-violating mutation is caught as it is journaled —
        // before any subsequent command could act on the divergent model.
        let trips = b.corrupt_state("opens", "-5");
        assert_eq!(trips.len(), 1);
        assert!(b.monitor_latched());
        assert!(b.call("openSession", &args(&[("peer", "x")])).is_err());

        // Rollback to the last snapshot discards the corrupt write and
        // the latches (both are post-snapshot), and service resumes.
        b.rollback_to_snapshot().unwrap();
        assert!(!b.monitor_latched());
        assert_eq!(b.state().int("opens"), None, "back to the snapshot");
        b.call("openSession", &args(&[("peer", "b")])).unwrap();
        assert_eq!(b.state().int("opens"), Some(1));

        // The whole history — trip, rollback, resumption — replays
        // byte-identically from the journal.
        let replayed = journal::replay(b.journal_bytes().unwrap()).unwrap();
        assert_eq!(replayed.state.snapshot(), b.state().snapshot());
        assert_eq!(
            b.state().first_divergence(&replayed.state),
            None,
            "live and replayed models agree"
        );
    }

    #[test]
    fn clean_calls_journal_identically_with_and_without_monitors() {
        // Monitor memory is written only on transitions, so a clean run's
        // journal is byte-for-byte what an unmonitored broker writes —
        // the in-stream checks add zero journal lines and zero state ops.
        let unmonitored = BrokerModelBuilder::new("ncb")
            .call_handler("open", "openSession")
            .action(
                "open",
                "openDirect",
                "media",
                "open",
                &["peer=$peer"],
                None,
                &["opens=+1"],
            )
            .bind_resource("media", "sim.media")
            .build();
        let mut plain = GenericBroker::from_model(&unmonitored, hub()).unwrap();
        let mut monitored =
            GenericBroker::from_model(&monitored_model("always self.opens <= 99"), hub()).unwrap();
        plain.enable_journal(0);
        monitored.enable_journal(0);
        for _ in 0..5 {
            plain.call("openSession", &args(&[("peer", "a")])).unwrap();
            monitored
                .call("openSession", &args(&[("peer", "a")]))
                .unwrap();
        }
        assert_eq!(plain.journal_bytes(), monitored.journal_bytes());
    }

    #[test]
    fn rollback_skips_snapshots_that_captured_a_violation() {
        let mut b = GenericBroker::from_model(&monitored_model("self.opens >= 0"), hub()).unwrap();
        // Snapshot after every journal entry: the corrupt write's batch is
        // immediately followed by a snapshot of the *violated* state.
        b.enable_journal(1);
        b.call("openSession", &args(&[("peer", "a")])).unwrap();
        assert_eq!(b.corrupt_state("opens", "-3").len(), 1);
        let text = String::from_utf8(b.journal_bytes().unwrap().to_vec()).unwrap();
        let last_snap = text
            .lines()
            .rev()
            .find(|l| journal::line_payload(l).starts_with("snap "))
            .unwrap();
        assert!(
            last_snap.contains("mon_trips"),
            "newest snapshot must hold the latched violation: {last_snap}"
        );
        // Rollback must reach past it to the last verified snapshot.
        b.rollback_to_snapshot().unwrap();
        assert!(!b.monitor_latched());
        assert!(b.state().int("opens").unwrap_or(0) >= 0);
        b.call("openSession", &args(&[("peer", "b")])).unwrap();
    }

    #[test]
    fn unjournaled_monitored_broker_still_trips_without_growing_ops() {
        let mut b =
            GenericBroker::from_model(&monitored_model("always self.opens <= 1"), hub()).unwrap();
        b.call("openSession", &args(&[("peer", "a")])).unwrap();
        assert!(b.state().pending_ops().is_empty(), "ops drained per call");
        let err = b
            .call("openSession", &args(&[("peer", "a")]))
            .expect_err("trips without a journal too");
        assert!(matches!(err, BrokerError::MonitorTripped { .. }));
        assert!(b.state().pending_ops().is_empty());
        // But rollback needs a journal.
        assert!(b.rollback_to_snapshot().is_err());
    }
}
