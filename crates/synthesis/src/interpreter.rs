//! The change interpreter: walks a change list, drives the domain LTS, and
//! emits control scripts.

use crate::lts::{ChangeKind, Label, Lts, StateId};
use crate::script::{Command, ControlScript, EventTrigger};
use crate::{Result, SynthesisError};
use mddsm_meta::constraint::{eval_bool, EvalEnv, Val};
use mddsm_meta::diff::{Change, ChangeList, KeyIndex};
use mddsm_meta::metamodel::Metamodel;
use mddsm_meta::model::Model;
use mddsm_meta::Value;
use std::collections::BTreeMap;

/// What to do with a model change no transition matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UnmatchedPolicy {
    /// Ignore the change (the default: not every model edit has runtime
    /// meaning).
    #[default]
    Skip,
    /// Fail synthesis.
    Error,
    /// Emit a generic command named after the change kind, so downstream
    /// layers can decide.
    Passthrough,
}

/// Interpreter configuration.
#[derive(Debug, Clone, Default)]
pub struct InterpreterConfig {
    /// Policy for unmatched changes.
    pub unmatched: UnmatchedPolicy,
}

/// The change interpreter; owns the LTS's current state.
#[derive(Debug, Clone)]
pub struct ChangeInterpreter {
    lts: Lts,
    state: StateId,
    config: InterpreterConfig,
}

/// Output of one interpretation pass.
#[derive(Debug, Clone, Default)]
pub struct Interpretation {
    /// Commands to execute immediately, in order.
    pub immediate: ControlScript,
    /// Scripts installed to run on future events.
    pub installed: Vec<ControlScript>,
}

impl ChangeInterpreter {
    /// Creates an interpreter positioned at the LTS initial state.
    pub fn new(lts: Lts, config: InterpreterConfig) -> Self {
        let state = lts.initial();
        ChangeInterpreter { lts, state, config }
    }

    /// The current LTS state name.
    pub fn state_name(&self) -> &str {
        self.lts.state_name(self.state)
    }

    /// Resets to the initial state.
    pub fn reset(&mut self) {
        self.state = self.lts.initial();
    }

    /// Interprets a change list against the *new* model, whose key index
    /// is `new_keys`, producing control scripts. First enabled transition
    /// (declaration order) wins per change. The LTS moves only if the whole
    /// list is interpreted; on an error it stays where it was.
    pub fn interpret(
        &mut self,
        changes: &ChangeList,
        new_model: &Model,
        new_keys: &KeyIndex,
        mm: &Metamodel,
    ) -> Result<Interpretation> {
        let mut out = Interpretation::default();
        let mut state = self.state;
        // Objects created by this very change list ("new" objects, whose
        // initial SetAttr/SetRefs changes `existing_only` patterns skip).
        let created: std::collections::BTreeSet<_> = changes
            .iter()
            .filter_map(|c| match c {
                mddsm_meta::diff::Change::Create { key } => Some(key.clone()),
                _ => None,
            })
            .collect();

        for change in changes.iter() {
            let mut vars = change_vars(change);
            // Expose the changed object's attribute values (from the new
            // model) as `attr_<name>` so command templates can carry domain
            // data, e.g. `$attr_action` for an automation rule's action.
            if let Some(id) = new_keys.id(change.subject()) {
                if let Ok(obj) = new_model.object(id) {
                    // Declared defaults first, so explicit values override.
                    for attr in mm.all_attributes(&obj.class) {
                        if let Some(d) = attr.default.first() {
                            vars.insert(format!("attr_{}", attr.name), render_value(d));
                        }
                    }
                    for (name, values) in &obj.attrs {
                        if let Some(v) = values.first() {
                            vars.insert(format!("attr_{name}"), render_value(v));
                        }
                    }
                    // And its reference slots as `ref_<slot>`: the targets'
                    // `name`/`id` attributes (comma-joined), so creation
                    // commands can carry related element names.
                    for (slot, targets) in &obj.refs {
                        let rendered: Vec<String> = targets
                            .iter()
                            .filter_map(|t| {
                                new_model
                                    .attr_str(*t, "id")
                                    .or_else(|| new_model.attr_str(*t, "name"))
                                    .map(str::to_owned)
                            })
                            .collect();
                        vars.insert(format!("ref_{slot}"), rendered.join(","));
                    }
                }
            }
            let mut next = None;
            let candidates = self.lts.transitions.iter().filter(|t| {
                t.from == state
                    && matches!(&t.label, Label::Change(p) if p.matches_in(change, &created))
            });
            for t in candidates {
                if let Some(guard) = &t.guard {
                    let mut env = EvalEnv::new(new_model, mm);
                    for (k, v) in &vars {
                        env.bind(k.clone(), Val::Scalar(Value::Str(v.clone())));
                    }
                    // Bind `self` to the changed object when it still
                    // exists in the new model.
                    if let Some(id) = new_keys.id(change.subject()) {
                        env.bind("self", Val::Obj(id));
                    }
                    match eval_bool(guard, &env) {
                        Ok(true) => {}
                        Ok(false) => continue,
                        Err(e) => {
                            return Err(SynthesisError::GuardFailed(format!(
                                "{e} (change {change:?})"
                            )))
                        }
                    }
                }
                let commands: Vec<Command> =
                    t.emit.iter().map(|tmpl| tmpl.instantiate(&vars)).collect();
                match &t.install_on {
                    None => out.immediate.commands.extend(commands),
                    Some(topic) => out.installed.push(ControlScript::triggered(
                        EventTrigger::on(topic.clone()),
                        commands,
                    )),
                }
                next = Some(t.to);
                break;
            }

            if let Some(to) = next {
                state = to;
            } else {
                match self.config.unmatched {
                    UnmatchedPolicy::Skip => {}
                    UnmatchedPolicy::Error => {
                        return Err(SynthesisError::UnmatchedChange(format!(
                            "{change:?} in state `{}`",
                            self.lts.state_name(state)
                        )))
                    }
                    UnmatchedPolicy::Passthrough => {
                        let name = match ChangeKind::of(change) {
                            ChangeKind::Create => "create",
                            ChangeKind::Delete => "delete",
                            ChangeKind::SetAttr => "setAttr",
                            ChangeKind::SetRefs => "setRefs",
                        };
                        let mut cmd = Command::new(name, vars["key"].clone());
                        for (k, v) in &vars {
                            if k != "key" {
                                cmd = cmd.with(k.clone(), v.clone());
                            }
                        }
                        out.immediate.commands.push(cmd);
                    }
                }
            }
        }
        self.state = state;
        Ok(out)
    }

    /// Feeds a Controller-layer event to the LTS; event transitions may
    /// also emit commands (e.g. failure-recovery commands).
    pub fn interpret_event(&mut self, topic: &str) -> Result<ControlScript> {
        let candidate = self.lts.transitions.iter().position(|t| {
            t.from == self.state && matches!(&t.label, Label::Event(e) if e == topic)
        });
        let mut script = ControlScript::default();
        if let Some(idx) = candidate {
            let t = &self.lts.transitions[idx];
            let vars = BTreeMap::from([("event".to_string(), topic.to_string())]);
            script.commands = t.emit.iter().map(|tmpl| tmpl.instantiate(&vars)).collect();
            self.state = t.to;
        }
        Ok(script)
    }
}

/// Substitution variables derived from a change.
fn change_vars(change: &Change) -> BTreeMap<String, String> {
    let mut vars = BTreeMap::new();
    let key = change.subject();
    vars.insert("key".into(), key.to_string());
    vars.insert("class".into(), key.class.clone());
    vars.insert("id".into(), key.key.trim_matches('"').to_owned());
    match change {
        Change::SetAttr { attr, values, .. } => {
            vars.insert("slot".into(), attr.clone());
            if let Some(v) = values.first() {
                vars.insert("value".into(), render_value(v));
            }
            vars.insert(
                "values".into(),
                values
                    .iter()
                    .map(render_value)
                    .collect::<Vec<_>>()
                    .join(","),
            );
        }
        Change::SetRefs {
            reference, targets, ..
        } => {
            vars.insert("slot".into(), reference.clone());
            vars.insert(
                "targets".into(),
                targets
                    .iter()
                    .map(|t| t.key.trim_matches('"').to_owned())
                    .collect::<Vec<_>>()
                    .join(","),
            );
        }
        _ => {}
    }
    vars
}

fn render_value(v: &Value) -> String {
    match v {
        Value::Str(s) => s.clone(),
        // Commands carry the bare literal; the enum type is metamodel-side
        // knowledge the Broker layer does not share.
        Value::Enum(_, literal) => literal.clone(),
        other => other.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lts::{ChangePattern, CommandTemplate, LtsBuilder};
    use mddsm_meta::diff::{diff, DiffOptions};
    use mddsm_meta::metamodel::{DataType, MetamodelBuilder, Multiplicity};

    fn keys(m: &Model) -> KeyIndex {
        KeyIndex::new(m, &DiffOptions::default())
    }

    fn mm() -> Metamodel {
        MetamodelBuilder::new("cml")
            .class("Session", |c| {
                c.attr("name", DataType::Str)
                    .opt_attr("kind", DataType::Str)
                    .reference("parties", "Party", Multiplicity::MANY)
            })
            .class("Party", |c| {
                c.attr("name", DataType::Str).opt_attr("bw", DataType::Int)
            })
            .build()
            .unwrap()
    }

    fn lts() -> Lts {
        LtsBuilder::new()
            .state("idle")
            .state("open")
            .initial("idle")
            .transition("idle", "open", ChangePattern::create("Session"), |t| {
                t.emit(CommandTemplate::new("openSession", "$key"))
            })
            .transition("open", "open", ChangePattern::create("Party"), |t| {
                t.guard("self.bw <> null and self.bw > 0")
                    .emit(CommandTemplate::new("addParty", "$key").with("id", "$id"))
            })
            .transition("open", "idle", ChangePattern::delete("Session"), |t| {
                t.emit(CommandTemplate::new("closeSession", "$key"))
            })
            .on_event("open", "idle", "sessionFailed", |t| {
                t.emit(CommandTemplate::new("recover", ""))
            })
            .build()
            .unwrap()
    }

    fn session_model(with_party: bool, bw: i64) -> Model {
        let mut m = Model::new("cml");
        let s = m.create("Session");
        m.set_attr(s, "name", Value::from("s1"));
        if with_party {
            let p = m.create("Party");
            m.set_attr(p, "name", Value::from("ana"));
            m.set_attr(p, "bw", Value::from(bw));
            m.add_ref(s, "parties", p);
        }
        m
    }

    #[test]
    fn create_session_emits_open() {
        let mm = mm();
        let mut interp = ChangeInterpreter::new(lts(), InterpreterConfig::default());
        assert_eq!(interp.state_name(), "idle");
        let old = Model::new("cml");
        let new = session_model(false, 0);
        let changes = diff(&old, &new, &DiffOptions::default());
        let out = interp.interpret(&changes, &new, &keys(&new), &mm).unwrap();
        assert_eq!(out.immediate.render(), "openSession@Session[\"s1\"]()");
        assert_eq!(interp.state_name(), "open");
    }

    #[test]
    fn guard_filters_transitions() {
        let mm = mm();
        // Incremental submissions: session first, then the party joins.
        let run = |bw: i64| {
            let mut interp = ChangeInterpreter::new(lts(), InterpreterConfig::default());
            let empty = Model::new("cml");
            let base = session_model(false, 0);
            let changes = diff(&empty, &base, &DiffOptions::default());
            let first = interp
                .interpret(&changes, &base, &keys(&base), &mm)
                .unwrap();
            assert_eq!(first.immediate.render(), "openSession@Session[\"s1\"]()");
            let withparty = session_model(true, bw);
            let changes = diff(&base, &withparty, &DiffOptions::default());
            interp
                .interpret(&changes, &withparty, &keys(&withparty), &mm)
                .unwrap()
        };
        // Party with bw=0 fails the guard -> addParty not emitted.
        let out = run(0);
        assert!(out.immediate.is_empty(), "{}", out.immediate.render());
        // With bw>0 the guard passes.
        let out = run(100);
        assert!(
            out.immediate
                .render()
                .contains("addParty@Party[\"ana\"](id=ana)"),
            "{}",
            out.immediate.render()
        );
    }

    #[test]
    fn unmatched_policies() {
        let mm = mm();
        let old = session_model(false, 0);
        let mut new = old.clone();
        let s = new.all_of_class("Session")[0];
        new.set_attr(s, "kind", Value::from("video"));
        let changes = diff(&old, &new, &DiffOptions::default());
        assert_eq!(changes.len(), 1);

        // Skip (default): nothing emitted.
        let mut interp = ChangeInterpreter::new(lts(), InterpreterConfig::default());
        let out = interp.interpret(&changes, &new, &keys(&new), &mm).unwrap();
        assert!(out.immediate.is_empty());

        // Error.
        let mut interp = ChangeInterpreter::new(
            lts(),
            InterpreterConfig {
                unmatched: UnmatchedPolicy::Error,
            },
        );
        assert!(matches!(
            interp.interpret(&changes, &new, &keys(&new), &mm),
            Err(SynthesisError::UnmatchedChange(_))
        ));

        // Passthrough.
        let mut interp = ChangeInterpreter::new(
            lts(),
            InterpreterConfig {
                unmatched: UnmatchedPolicy::Passthrough,
            },
        );
        let out = interp.interpret(&changes, &new, &keys(&new), &mm).unwrap();
        assert_eq!(out.immediate.len(), 1);
        assert_eq!(out.immediate.commands[0].name, "setAttr");
        assert_eq!(out.immediate.commands[0].arg("slot"), Some("kind"));
        assert_eq!(out.immediate.commands[0].arg("value"), Some("video"));
    }

    #[test]
    fn failed_interpretation_does_not_move_the_lts() {
        let mm = mm();
        let mut interp = ChangeInterpreter::new(
            lts(),
            InterpreterConfig {
                unmatched: UnmatchedPolicy::Error,
            },
        );
        let old = Model::new("cml");
        let mut new = Model::new("cml");
        let s = new.create("Session");
        new.set_attr(s, "name", Value::from("s1"));
        new.create("Zed");
        // `Create Session` matches and would move the LTS to `open`;
        // `Create Zed` then matches nothing.
        let changes = diff(&old, &new, &DiffOptions::default());
        assert!(matches!(&changes.changes[0], Change::Create { key } if key.class == "Session"));
        assert!(matches!(&changes.changes[1], Change::Create { key } if key.class == "Zed"));
        let err = interp
            .interpret(&changes, &new, &keys(&new), &mm)
            .unwrap_err();
        assert!(
            matches!(&err, SynthesisError::UnmatchedChange(m) if m.contains("in state `open`")),
            "{err:?}"
        );
        assert_eq!(interp.state_name(), "idle");
    }

    #[test]
    fn event_transitions_fire_and_move_state() {
        let mm = mm();
        let mut interp = ChangeInterpreter::new(lts(), InterpreterConfig::default());
        let old = Model::new("cml");
        let new = session_model(false, 0);
        let changes = diff(&old, &new, &DiffOptions::default());
        interp.interpret(&changes, &new, &keys(&new), &mm).unwrap();
        assert_eq!(interp.state_name(), "open");
        let script = interp.interpret_event("sessionFailed").unwrap();
        assert_eq!(script.render(), "recover()");
        assert_eq!(interp.state_name(), "idle");
        // Unknown events are ignored.
        let script = interp.interpret_event("nothing").unwrap();
        assert!(script.is_empty());
    }

    #[test]
    fn delete_closes_session_and_reset_restores_initial() {
        let mm = mm();
        let mut interp = ChangeInterpreter::new(lts(), InterpreterConfig::default());
        let old = Model::new("cml");
        let new = session_model(false, 0);
        let changes = diff(&old, &new, &DiffOptions::default());
        interp.interpret(&changes, &new, &keys(&new), &mm).unwrap();
        let back = diff(&new, &old, &DiffOptions::default());
        let out = interp.interpret(&back, &old, &keys(&old), &mm).unwrap();
        assert_eq!(out.immediate.render(), "closeSession@Session[\"s1\"]()");
        assert_eq!(interp.state_name(), "idle");
        interp.reset();
        assert_eq!(interp.state_name(), "idle");
    }

    #[test]
    fn install_on_produces_triggered_scripts() {
        let lts = LtsBuilder::new()
            .state("s")
            .initial("s")
            .transition("s", "s", ChangePattern::create("Rule"), |t| {
                t.install_on("objectEntered")
                    .emit(CommandTemplate::new("applyRule", "$key"))
            })
            .build()
            .unwrap();
        let mm = MetamodelBuilder::new("mm")
            .class("Rule", |c| c.attr("name", DataType::Str))
            .build()
            .unwrap();
        let mut interp = ChangeInterpreter::new(lts, InterpreterConfig::default());
        let old = Model::new("mm");
        let mut new = Model::new("mm");
        let r = new.create("Rule");
        new.set_attr(r, "name", Value::from("r1"));
        let changes = diff(&old, &new, &DiffOptions::default());
        let out = interp.interpret(&changes, &new, &keys(&new), &mm).unwrap();
        assert!(out.immediate.is_empty());
        assert_eq!(out.installed.len(), 1);
        let t = out.installed[0].trigger.as_ref().unwrap();
        assert_eq!(t.topic, "objectEntered");
        assert_eq!(out.installed[0].render(), "applyRule@Rule[\"r1\"]()");
    }
}
