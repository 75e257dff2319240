//! Model comparison: the substrate of the Synthesis layer's *model
//! comparator*.
//!
//! [`diff`] compares two models of the same metamodel and produces a
//! [`ChangeList`] — the "change list" of the MD-DSM Synthesis layer, which
//! the change interpreter turns into control scripts. [`apply`] replays a
//! change list onto a model; `apply(old, diff(old, new))` makes `old`
//! equivalent to `new` (checked by [`equivalent`]).
//!
//! Objects are matched across models by a *key*: the value of the first
//! present key attribute (by default `id` then `name`); unkeyed objects are
//! matched positionally within their class. A [`KeyIndex`] holds one
//! model's keys; [`diff_indexed`] compares two models through their
//! indexes, which [`diff`] builds first.

use crate::error::MetaError;
use crate::model::{MObject, Model, ObjectId};
use crate::{Result, Value};
use std::collections::BTreeMap;

/// Options controlling object matching.
#[derive(Debug, Clone)]
pub struct DiffOptions {
    /// Attribute names tried in order to key an object.
    pub key_attrs: Vec<String>,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions {
            key_attrs: vec!["id".into(), "name".into()],
        }
    }
}

/// A stable, model-independent identity for an object: its class plus a key.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectKey {
    /// The object's class name.
    pub class: String,
    /// Key attribute value, or a synthesized positional key `~N`.
    pub key: String,
}

impl std::fmt::Display for ObjectKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}[{}]", self.class, self.key)
    }
}

/// One atomic model change.
#[derive(Debug, Clone, PartialEq)]
pub enum Change {
    /// Create an object of `key.class` addressable as `key`.
    Create {
        /// Identity of the new object.
        key: ObjectKey,
    },
    /// Delete the object addressed by `key`.
    Delete {
        /// Identity of the object to remove.
        key: ObjectKey,
    },
    /// Replace the values of an attribute slot (empty = unset).
    SetAttr {
        /// Object addressed.
        key: ObjectKey,
        /// Attribute slot name.
        attr: String,
        /// New values.
        values: Vec<Value>,
    },
    /// Replace the targets of a reference slot (empty = unset).
    SetRefs {
        /// Object addressed.
        key: ObjectKey,
        /// Reference slot name.
        reference: String,
        /// New targets, by key.
        targets: Vec<ObjectKey>,
    },
}

impl Change {
    /// The object this change addresses.
    pub fn subject(&self) -> &ObjectKey {
        match self {
            Change::Create { key }
            | Change::Delete { key }
            | Change::SetAttr { key, .. }
            | Change::SetRefs { key, .. } => key,
        }
    }
}

/// An ordered list of changes: creations first, then slot updates, then
/// deletions, so that reference targets always resolve during [`apply`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChangeList {
    /// The changes, in application order.
    pub changes: Vec<Change>,
}

impl ChangeList {
    /// `true` when the two models were equivalent.
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }

    /// Number of changes.
    pub fn len(&self) -> usize {
        self.changes.len()
    }

    /// Iterates over the changes in application order.
    pub fn iter(&self) -> impl Iterator<Item = &Change> {
        self.changes.iter()
    }
}

/// The keys of a model's live objects, indexed both ways: the model
/// comparator's view of one model.
///
/// It is built in one pass over the model and borrows nothing from it, so
/// a caller that keeps a model can keep its index too (the Synthesis
/// engine does, for the running model). An index describes the model it
/// was built from; pairing it with another model is a caller bug.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct KeyIndex {
    /// Key of each live object, by [`ObjectId::index`].
    keys: Vec<Option<ObjectKey>>,
    /// The object holding each key; of two holding one key, the later.
    ids: BTreeMap<ObjectKey, ObjectId>,
    /// The first key found on more than one live object.
    duplicate: Option<ObjectKey>,
}

impl KeyIndex {
    /// Computes the key of every live object in `model`.
    pub fn new(model: &Model, opts: &DiffOptions) -> Self {
        let mut index = KeyIndex::default();
        let mut ordinal: BTreeMap<&str, u32> = BTreeMap::new();
        for (id, obj) in model.iter() {
            let key = match opts
                .key_attrs
                .iter()
                .find_map(|a| obj.attrs.get(a).and_then(|v| v.first()))
            {
                Some(v) => v.to_string(),
                None => {
                    let n = ordinal.entry(&obj.class).or_insert(0);
                    let k = format!("~{n}");
                    *n += 1;
                    k
                }
            };
            let key = ObjectKey {
                class: obj.class.clone(),
                key,
            };
            if index.ids.insert(key.clone(), id).is_some() && index.duplicate.is_none() {
                index.duplicate = Some(key.clone());
            }
            let slot = id.index() as usize;
            if index.keys.len() <= slot {
                index.keys.resize(slot + 1, None);
            }
            index.keys[slot] = Some(key);
        }
        index
    }

    /// The key of a live object.
    pub fn key(&self, id: ObjectId) -> Option<&ObjectKey> {
        self.keys.get(id.index() as usize)?.as_ref()
    }

    /// The object holding `key` (the later one, if two hold it).
    pub fn id(&self, key: &ObjectKey) -> Option<ObjectId> {
        self.ids.get(key).copied()
    }

    /// The first key found on more than one live object, if any. Keyed
    /// matching cannot tell such objects apart.
    pub fn duplicate(&self) -> Option<&ObjectKey> {
        self.duplicate.as_ref()
    }
}

/// Returns `true` if two models are equivalent up to object identity.
pub fn equivalent(a: &Model, b: &Model, opts: &DiffOptions) -> bool {
    diff(a, b, opts).is_empty()
}

/// Compares `old` and `new`, producing the change list that transforms
/// `old` into `new`.
pub fn diff(old: &Model, new: &Model, opts: &DiffOptions) -> ChangeList {
    diff_indexed(
        old,
        &KeyIndex::new(old, opts),
        new,
        &KeyIndex::new(new, opts),
    )
}

/// [`diff`] of two models whose key indexes the caller already holds.
///
/// The two indexes are walked side by side in key order and the objects'
/// slots read in place; only the values that go into a [`Change`] are
/// cloned. An empty slot counts as unset, and a reference to an object
/// that is not live is ignored.
pub fn diff_indexed(
    old: &Model,
    old_keys: &KeyIndex,
    new: &Model,
    new_keys: &KeyIndex,
) -> ChangeList {
    fn live(model: &Model, id: ObjectId) -> &MObject {
        model.object(id).expect("indexed object is live")
    }
    let mut creates = Vec::new();
    let mut updates = Vec::new();
    let mut deletes = Vec::new();

    // Both indexes are in key order: walk them side by side.
    let mut olds = old_keys.ids.iter().peekable();
    for (key, &nid) in &new_keys.ids {
        while let Some((gone, _)) = olds.next_if(|(k, _)| *k < key) {
            deletes.push(Change::Delete { key: gone.clone() });
        }
        let nobj = live(new, nid);
        let oobj = olds
            .next_if(|(k, _)| *k == key)
            .map(|(_, &oid)| live(old, oid));
        if oobj.is_none() {
            creates.push(Change::Create { key: key.clone() });
        }
        let set_attr = |attr: &String, values| Change::SetAttr {
            key: key.clone(),
            attr: attr.clone(),
            values,
        };
        let set_refs = |reference: &String, targets| Change::SetRefs {
            key: key.clone(),
            reference: reference.clone(),
            targets,
        };
        for (attr, values) in &nobj.attrs {
            if !values.is_empty() && oobj.and_then(|o| attr_slot(o, attr)) != Some(values) {
                updates.push(set_attr(attr, values.clone()));
            }
        }
        if let Some(o) = oobj {
            for (attr, values) in &o.attrs {
                if !values.is_empty() && attr_slot(nobj, attr).is_none() {
                    updates.push(set_attr(attr, Vec::new()));
                }
            }
        }
        for (reference, targets) in &nobj.refs {
            let new_targets = || live_keys(targets, new_keys);
            let unchanged = oobj
                .and_then(|o| o.refs.get(reference))
                .is_some_and(|t| live_keys(t, old_keys).eq(new_targets()));
            if new_targets().next().is_some() && !unchanged {
                updates.push(set_refs(reference, new_targets().cloned().collect()));
            }
        }
        if let Some(o) = oobj {
            for (reference, targets) in &o.refs {
                let still_set = nobj
                    .refs
                    .get(reference)
                    .is_some_and(|t| live_keys(t, new_keys).next().is_some());
                if live_keys(targets, old_keys).next().is_some() && !still_set {
                    updates.push(set_refs(reference, Vec::new()));
                }
            }
        }
    }

    deletes.extend(olds.map(|(gone, _)| Change::Delete { key: gone.clone() }));
    let mut changes = creates;
    changes.extend(updates);
    changes.extend(deletes);
    ChangeList { changes }
}

/// The keys of a reference slot's live targets, in slot order.
fn live_keys<'a>(
    targets: &'a [ObjectId],
    keys: &'a KeyIndex,
) -> impl Iterator<Item = &'a ObjectKey> + 'a {
    targets.iter().filter_map(|t| keys.key(*t))
}

/// An object's attribute slot, `None` when unset or empty.
fn attr_slot<'a>(obj: &'a MObject, attr: &str) -> Option<&'a Vec<Value>> {
    obj.attrs.get(attr).filter(|v| !v.is_empty())
}

/// Applies a change list to a model in place.
pub fn apply(model: &mut Model, changes: &ChangeList, opts: &DiffOptions) -> Result<()> {
    // key -> id index, kept up to date as creations/deletions happen.
    let mut index = KeyIndex::new(model, opts).ids;

    let resolve = |index: &BTreeMap<ObjectKey, ObjectId>, key: &ObjectKey| -> Result<ObjectId> {
        index
            .get(key)
            .copied()
            .ok_or_else(|| MetaError::ApplyFailed(format!("no object with key {key}")))
    };

    for change in &changes.changes {
        match change {
            Change::Create { key } => {
                if index.contains_key(key) {
                    return Err(MetaError::ApplyFailed(format!(
                        "object {key} already exists"
                    )));
                }
                let id = model.create(key.class.clone());
                index.insert(key.clone(), id);
            }
            Change::Delete { key } => {
                let id = resolve(&index, key)?;
                model.destroy(id, None)?;
                index.remove(key);
            }
            Change::SetAttr { key, attr, values } => {
                let id = resolve(&index, key)?;
                if values.is_empty() {
                    model.unset_attr(id, attr);
                } else {
                    model.set_attr_many(id, attr.clone(), values.clone());
                }
            }
            Change::SetRefs {
                key,
                reference,
                targets,
            } => {
                let id = resolve(&index, key)?;
                let mut ids = Vec::with_capacity(targets.len());
                for t in targets {
                    ids.push(resolve(&index, t)?);
                }
                if ids.is_empty() {
                    if let Ok(o) = model.object_mut(id) {
                        o.refs.remove(reference);
                    }
                } else {
                    model.set_refs(id, reference.clone(), ids);
                }
            }
        }
    }

    // Keyed objects must remain unique; catch collisions introduced by
    // attribute edits that changed a key attribute.
    if KeyIndex::new(model, opts).duplicate.is_some() {
        return Err(MetaError::ApplyFailed(
            "duplicate object keys after apply".into(),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> DiffOptions {
        DiffOptions::default()
    }

    fn named(m: &mut Model, class: &str, name: &str) -> ObjectId {
        let id = m.create(class);
        m.set_attr(id, "name", Value::from(name));
        id
    }

    #[test]
    fn identical_models_produce_empty_diff() {
        let mut a = Model::new("m");
        named(&mut a, "Node", "x");
        let b = a.clone();
        assert!(diff(&a, &b, &opts()).is_empty());
        assert!(equivalent(&a, &b, &opts()));
    }

    #[test]
    fn create_delete_and_update_detected() {
        let mut old = Model::new("m");
        let a = named(&mut old, "Node", "a");
        named(&mut old, "Node", "b");
        let mut new = Model::new("m");
        let a2 = named(&mut new, "Node", "a");
        named(&mut new, "Node", "c");
        new.set_attr(a2, "w", Value::from(5));
        let _ = a;

        let cl = diff(&old, &new, &opts());
        assert!(cl
            .iter()
            .any(|c| matches!(c, Change::Create { key } if key.key == "\"c\"")));
        assert!(cl
            .iter()
            .any(|c| matches!(c, Change::Delete { key } if key.key == "\"b\"")));
        assert!(cl
            .iter()
            .any(|c| matches!(c, Change::SetAttr { attr, .. } if attr == "w")));
    }

    #[test]
    fn diff_apply_roundtrip() {
        let mut old = Model::new("m");
        let a = named(&mut old, "Node", "a");
        let b = named(&mut old, "Node", "b");
        let g = named(&mut old, "Graph", "g");
        old.add_ref(g, "nodes", a);
        old.add_ref(g, "nodes", b);

        let mut new = Model::new("m");
        let b2 = named(&mut new, "Node", "b");
        let c2 = named(&mut new, "Node", "c");
        let g2 = named(&mut new, "Graph", "g");
        new.add_ref(g2, "nodes", c2);
        new.add_ref(g2, "nodes", b2);
        new.set_attr(b2, "w", Value::from(9));

        let cl = diff(&old, &new, &opts());
        let mut patched = old.clone();
        apply(&mut patched, &cl, &opts()).unwrap();
        assert!(equivalent(&patched, &new, &opts()));
        // And the reverse direction also works.
        let back = diff(&new, &old, &opts());
        let mut reverted = new.clone();
        apply(&mut reverted, &back, &opts()).unwrap();
        assert!(equivalent(&reverted, &old, &opts()));
    }

    #[test]
    fn reference_retargeting() {
        let mut old = Model::new("m");
        let a = named(&mut old, "Node", "a");
        let b = named(&mut old, "Node", "b");
        let g = named(&mut old, "Graph", "g");
        old.add_ref(g, "root", a);
        let _ = b;

        let mut new = old.clone();
        let gid = new.all_of_class("Graph")[0];
        let bid = new
            .iter()
            .find(|(_, o)| o.attrs.get("name").and_then(|v| v.first()) == Some(&Value::from("b")))
            .unwrap()
            .0;
        new.set_refs(gid, "root", vec![bid]);

        let cl = diff(&old, &new, &opts());
        assert_eq!(cl.len(), 1);
        let mut patched = old.clone();
        apply(&mut patched, &cl, &opts()).unwrap();
        assert!(equivalent(&patched, &new, &opts()));
    }

    #[test]
    fn unkeyed_objects_match_positionally() {
        let mut old = Model::new("m");
        old.create("Anon");
        old.create("Anon");
        let mut new = Model::new("m");
        new.create("Anon");
        let cl = diff(&old, &new, &opts());
        assert_eq!(cl.len(), 1);
        assert!(matches!(&cl.changes[0], Change::Delete { .. }));
    }

    #[test]
    fn apply_rejects_unknown_key() {
        let mut m = Model::new("m");
        let cl = ChangeList {
            changes: vec![Change::Delete {
                key: ObjectKey {
                    class: "X".into(),
                    key: "\"nope\"".into(),
                },
            }],
        };
        assert!(apply(&mut m, &cl, &opts()).is_err());
    }

    #[test]
    fn apply_rejects_duplicate_create() {
        let mut m = Model::new("m");
        named(&mut m, "Node", "a");
        let cl = ChangeList {
            changes: vec![Change::Create {
                key: ObjectKey {
                    class: "Node".into(),
                    key: "\"a\"".into(),
                },
            }],
        };
        // The created object has no name attr yet, so its key would be
        // positional; but the ChangeList addresses it by the keyed name —
        // creating a key that already exists must fail.
        assert!(apply(&mut m, &cl, &opts()).is_err());
    }

    #[test]
    fn key_attr_preference_order() {
        let mut m = Model::new("m");
        let o = m.create("X");
        m.set_attr(o, "name", Value::from("n"));
        m.set_attr(o, "id", Value::from("i"));
        let keys = KeyIndex::new(&m, &opts());
        assert_eq!(keys.key(o).unwrap().key, "\"i\"");
    }
}
