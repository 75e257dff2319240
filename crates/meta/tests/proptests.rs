//! Property-style tests for the modeling substrate: textual round-trips,
//! diff/apply identity, conformance stability, and the comparator against
//! its reference semantics.
//!
//! Models are generated with a small local SplitMix64 generator over fixed
//! seeds, so the suite is deterministic and dependency-free (this crate
//! sits at the bottom of the workspace and cannot use the simulator's RNG).

use mddsm_meta::diff::{apply, diff, equivalent, Change, ChangeList, DiffOptions, ObjectKey};
use mddsm_meta::model::{Model, ObjectId};
use mddsm_meta::text;
use mddsm_meta::Value;
use std::collections::BTreeMap;

/// Minimal deterministic generator (SplitMix64) for test-case shapes.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform-ish value in `[lo, hi)` (modulo bias is irrelevant here).
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }

    /// Lowercase ASCII word with length in `[min_len, max_len]`.
    fn word(&mut self, min_len: u64, max_len: u64) -> String {
        let len = self.range(min_len, max_len + 1) as usize;
        (0..len)
            .map(|_| char::from(b'a' + self.range(0, 23) as u8))
            .collect()
    }
}

/// A generated model: a set of uniquely-named objects of a few classes with
/// random attributes and random (valid) references between them.
fn arb_model(gen: &mut Gen) -> Model {
    const CLASSES: [&str; 3] = ["Node", "Graph", "Link"];
    let n = gen.range(0, 12) as usize;
    let mut m = Model::new("mm");
    let mut ids = Vec::new();
    for i in 0..n {
        let class = CLASSES[gen.range(0, CLASSES.len() as u64) as usize];
        let id = m.create(class);
        // Unique name so diffing keys are unambiguous.
        m.set_attr(id, "name", Value::from(format!("obj{i}")));
        for _ in 0..gen.range(0, 4) {
            let k = gen.word(1, 6);
            if k == "name" {
                continue;
            }
            let v = match gen.range(0, 4) {
                0 => Value::Int(gen.next() as i64),
                1 => Value::Str(gen.word(0, 8)),
                2 => Value::Bool(gen.range(0, 2) == 0),
                // Finite floats only; NaN breaks value equality by design.
                _ => Value::Float((gen.range(0, 2000) as f64 - 1000.0) / 8.0),
            };
            m.set_attr(id, k, v);
        }
        ids.push(id);
    }
    if !ids.is_empty() {
        for _ in 0..gen.range(0, 6) {
            let src = ids[gen.range(0, ids.len() as u64) as usize];
            let slot = gen.word(1, 5);
            let targets: Vec<_> = (0..gen.range(0, 3))
                .map(|_| ids[gen.range(0, ids.len() as u64) as usize])
                .collect();
            if !targets.is_empty() {
                m.set_refs(src, slot, targets);
            }
        }
    }
    m
}

#[test]
fn textual_roundtrip_is_identity() {
    for case in 0..128u64 {
        let m = arb_model(&mut Gen(0xA1_0000 + case));
        let written = text::write(&m);
        let parsed = text::parse(&written).expect("written model must parse");
        assert_eq!(&m, &parsed);
        // And writing again is stable (canonical form).
        assert_eq!(written, text::write(&parsed));
    }
}

#[test]
fn diff_of_model_with_itself_is_empty() {
    for case in 0..128u64 {
        let m = arb_model(&mut Gen(0xA2_0000 + case));
        let opts = DiffOptions::default();
        assert!(diff(&m, &m, &opts).is_empty());
        assert!(equivalent(&m, &m, &opts));
    }
}

#[test]
fn diff_apply_reaches_target() {
    for case in 0..128u64 {
        let mut gen = Gen(0xA3_0000 + case);
        let a = arb_model(&mut gen);
        let b = arb_model(&mut gen);
        let opts = DiffOptions::default();
        let cl = diff(&a, &b, &opts);
        let mut patched = a.clone();
        apply(&mut patched, &cl, &opts).expect("apply must succeed");
        assert!(
            equivalent(&patched, &b, &opts),
            "apply(diff(a,b)) must be equivalent to b\nchanges: {cl:?}"
        );
        // Empty diff afterwards.
        assert!(diff(&patched, &b, &opts).is_empty());
    }
}

#[test]
fn diff_size_bounded_by_total_objects() {
    for case in 0..128u64 {
        let mut gen = Gen(0xA4_0000 + case);
        let a = arb_model(&mut gen);
        let b = arb_model(&mut gen);
        // Each object contributes at most 1 create/delete plus one change
        // per touched slot; a gross upper bound is objects * (slots + 1).
        let opts = DiffOptions::default();
        let cl = diff(&a, &b, &opts);
        let slots = |m: &Model| {
            m.iter()
                .map(|(_, o)| o.attrs.len() + o.refs.len() + 1)
                .sum::<usize>()
        };
        assert!(cl.len() <= slots(&a) + slots(&b));
    }
}

#[test]
fn weave_with_empty_is_identity() {
    for case in 0..128u64 {
        let m = arb_model(&mut Gen(0xA5_0000 + case));
        let empty = Model::new("mm");
        let w = mddsm_meta::weave::weave(&[m.clone(), empty]).expect("no conflicts");
        let opts = DiffOptions::default();
        assert!(equivalent(&w, &m, &opts));
    }
}

#[test]
fn weave_is_idempotent() {
    for case in 0..128u64 {
        let m = arb_model(&mut Gen(0xA6_0000 + case));
        let w = mddsm_meta::weave::weave(&[m.clone(), m.clone()]).expect("self-weave agrees");
        let opts = DiffOptions::default();
        assert!(equivalent(&w, &m, &opts));
    }
}

/// Seeded byte-level damage to a valid source: 1–4 of a bit flip, an
/// inserted byte (often a delimiter), a deleted byte, or a truncation.
/// Damage that breaks UTF-8 reaches the parser as U+FFFD.
fn mutate(src: &str, gen: &mut Gen) -> String {
    const DELIMS: &[u8] = b"\"\\{}[]()<>-=:;.,|~#/\n ";
    let mut bytes = src.as_bytes().to_vec();
    for _ in 0..gen.range(1, 5) {
        let at = gen.range(0, bytes.len() as u64 + 1) as usize;
        match gen.range(0, 4) {
            0 if at < bytes.len() => bytes[at] ^= 1 << gen.range(0, 8),
            1 => {
                let b = if gen.range(0, 2) == 0 {
                    DELIMS[gen.range(0, DELIMS.len() as u64) as usize]
                } else {
                    gen.range(0, 256) as u8
                };
                bytes.insert(at, b);
            }
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => bytes.truncate(at),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Valid OCL-lite sources covering every operator family.
const CONSTRAINTS: &[&str] = &[
    "self.opens = null or self.opens >= 0",
    "self.tier = null or self.tier = \"alpha\" or self.tier = \"beta\"",
    "self.a > 0 and (self.b = null or self.a < self.c)",
    "self.parties->exists(p | p.bw > threshold)",
    "self.xs->forAll(p | p.a > t) implies not (self.n <> 2)",
    "1 + 2.5 * -3 = 3.5 / 2 and K::L = K::L",
    "xs->count(1) = 2 and xs->includes(y) and xs->size() > 0",
    "self.isKindOf(Session) and self.name = \"é→\\\"x\"",
];

#[test]
fn constraint_parser_never_panics() {
    for case in 0..128u64 {
        let mut gen = Gen(0xA7_0000 + case);
        let len = gen.range(0, 41) as usize;
        let src: String = (0..len)
            .map(|_| char::from(b' ' + gen.range(0, 95) as u8))
            .collect();
        let _ = mddsm_meta::constraint::parse(&src);
    }
    for src in CONSTRAINTS {
        mddsm_meta::constraint::parse(src).expect("seed source is valid");
    }
    for case in 0..20_000u64 {
        let mut gen = Gen(0xAB_0000 + case);
        let src = CONSTRAINTS[gen.range(0, CONSTRAINTS.len() as u64) as usize];
        let _ = mddsm_meta::constraint::parse(&mutate(src, &mut gen));
    }
}

#[test]
fn temporal_parser_never_panics() {
    use mddsm_meta::constraint::temporal::parse_property;
    let mut sources: Vec<String> = vec![
        "never self.breaker = 1 during self.shed = 1".into(),
        "at-most-one primary per epoch".into(),
        "at-most-one node.primary per cluster.epoch".into(),
    ];
    sources.extend(CONSTRAINTS.iter().map(|c| format!("always {c}")));
    for src in &sources {
        parse_property(src).expect("seed source is valid");
    }
    for case in 0..20_000u64 {
        let mut gen = Gen(0xAC_0000 + case);
        let src = &sources[gen.range(0, sources.len() as u64) as usize];
        let _ = parse_property(&mutate(src, &mut gen));
    }
}

#[test]
fn text_parser_never_panics() {
    for case in 0..128u64 {
        let mut gen = Gen(0xA8_0000 + case);
        let len = gen.range(0, 81) as usize;
        let src: String = (0..len)
            .map(|_| {
                if gen.range(0, 12) == 0 {
                    '\n'
                } else {
                    char::from(b' ' + gen.range(0, 95) as u8)
                }
            })
            .collect();
        let _ = text::parse(&src);
    }
    for case in 0..4_000u64 {
        let mut gen = Gen(0xAD_0000 + case);
        let mut m = arb_model(&mut gen);
        let first = m.iter().next().map(|(id, _)| id);
        if let Some(id) = first {
            // Escapes and multi-byte characters in a string literal.
            m.set_attr(id, "note", Value::from("é→ \"q\" \\ \t\n"));
        }
        let src = text::write(&m);
        text::parse(&src).expect("written model must parse");
        let _ = text::parse(&mutate(&src, &mut gen));
    }
}

/// The comparator's reference semantics: both models copied into a
/// canonical, id-free map (objects by key, references rewritten to keys,
/// empty slots dropped), then compared map against map. This is the
/// comparator as it was first written; [`diff`] must agree with it change
/// for change.
mod oracle {
    use super::*;

    pub type Canonical = BTreeMap<
        ObjectKey,
        (
            BTreeMap<String, Vec<Value>>,
            BTreeMap<String, Vec<ObjectKey>>,
        ),
    >;

    fn keys_of(model: &Model, opts: &DiffOptions) -> BTreeMap<ObjectId, ObjectKey> {
        let mut out = BTreeMap::new();
        let mut ordinal: BTreeMap<String, u32> = BTreeMap::new();
        for (id, obj) in model.iter() {
            let key = opts
                .key_attrs
                .iter()
                .find_map(|a| obj.attrs.get(a).and_then(|v| v.first()))
                .map(|v| v.to_string());
            let key = match key {
                Some(k) => k,
                None => {
                    let n = ordinal.entry(obj.class.clone()).or_insert(0);
                    let k = format!("~{n}");
                    *n += 1;
                    k
                }
            };
            out.insert(
                id,
                ObjectKey {
                    class: obj.class.clone(),
                    key,
                },
            );
        }
        out
    }

    pub fn canonical(model: &Model, opts: &DiffOptions) -> Canonical {
        let keys = keys_of(model, opts);
        let mut out = Canonical::new();
        for (id, obj) in model.iter() {
            let refs = obj
                .refs
                .iter()
                .map(|(slot, targets)| {
                    (
                        slot.clone(),
                        targets
                            .iter()
                            .filter_map(|t| keys.get(t).cloned())
                            .collect::<Vec<_>>(),
                    )
                })
                .filter(|(_, t): &(String, Vec<ObjectKey>)| !t.is_empty())
                .collect();
            let attrs = obj
                .attrs
                .clone()
                .into_iter()
                .filter(|(_, v)| !v.is_empty())
                .collect();
            out.insert(keys[&id].clone(), (attrs, refs));
        }
        out
    }

    pub fn diff(old: &Model, new: &Model, opts: &DiffOptions) -> ChangeList {
        let co = canonical(old, opts);
        let cn = canonical(new, opts);
        let mut creates = Vec::new();
        let mut updates = Vec::new();
        let mut deletes = Vec::new();
        for (key, (nattrs, nrefs)) in &cn {
            let set_attr = |attr: &String, values: Vec<Value>| Change::SetAttr {
                key: key.clone(),
                attr: attr.clone(),
                values,
            };
            let set_refs = |reference: &String, targets: Vec<ObjectKey>| Change::SetRefs {
                key: key.clone(),
                reference: reference.clone(),
                targets,
            };
            match co.get(key) {
                None => {
                    creates.push(Change::Create { key: key.clone() });
                    for (attr, values) in nattrs {
                        updates.push(set_attr(attr, values.clone()));
                    }
                    for (reference, targets) in nrefs {
                        updates.push(set_refs(reference, targets.clone()));
                    }
                }
                Some((oattrs, orefs)) => {
                    for (attr, values) in nattrs {
                        if oattrs.get(attr) != Some(values) {
                            updates.push(set_attr(attr, values.clone()));
                        }
                    }
                    for attr in oattrs.keys() {
                        if !nattrs.contains_key(attr) {
                            updates.push(set_attr(attr, Vec::new()));
                        }
                    }
                    for (reference, targets) in nrefs {
                        if orefs.get(reference) != Some(targets) {
                            updates.push(set_refs(reference, targets.clone()));
                        }
                    }
                    for reference in orefs.keys() {
                        if !nrefs.contains_key(reference) {
                            updates.push(set_refs(reference, Vec::new()));
                        }
                    }
                }
            }
        }
        for key in co.keys() {
            if !cn.contains_key(key) {
                deletes.push(Change::Delete { key: key.clone() });
            }
        }
        let mut changes = creates;
        changes.extend(updates);
        changes.extend(deletes);
        ChangeList { changes }
    }
}

/// A model with the shapes keyed matching has to get right: objects keyed
/// by `id` or `name` (a few sharing a name), unkeyed objects matched by
/// position, empty and multi-valued attribute slots, empty reference
/// slots, and references to objects that are no longer live.
fn arb_edge_model(gen: &mut Gen) -> Model {
    const CLASSES: [&str; 3] = ["Node", "Graph", "Link"];
    let mut m = Model::new("mm");
    let mut ids = Vec::new();
    for _ in 0..gen.range(0, 14) {
        let id = m.create(CLASSES[gen.range(0, 3) as usize]);
        match gen.range(0, 8) {
            0 | 1 => {} // unkeyed: a positional `~N` key
            // An empty key slot falls through to the next key attribute.
            2 => m.set_attr_many(id, "id", Vec::new()),
            3 => m.set_attr(id, "id", Value::Int(gen.range(0, 6) as i64)),
            // A small name pool, so keys collide now and then.
            _ => m.set_attr(id, "name", Value::from(format!("n{}", gen.range(0, 10)))),
        }
        for _ in 0..gen.range(0, 4) {
            let slot = ["a", "b", "c", "d"][gen.range(0, 4) as usize];
            let values = (0..gen.range(0, 4))
                .map(|_| match gen.range(0, 3) {
                    0 => Value::Int(gen.range(0, 3) as i64),
                    1 => Value::from(gen.word(0, 2)),
                    _ => Value::Bool(gen.range(0, 2) == 0),
                })
                .collect();
            m.set_attr_many(id, slot, values);
        }
        ids.push(id);
    }
    if !ids.is_empty() {
        for _ in 0..gen.range(0, 8) {
            let src = ids[gen.range(0, ids.len() as u64) as usize];
            let slot = ["r", "s", "t"][gen.range(0, 3) as usize];
            let targets = (0..gen.range(0, 4))
                .map(|_| ids[gen.range(0, ids.len() as u64) as usize])
                .collect();
            m.set_refs(src, slot, targets);
        }
    }
    m
}

/// Edits a copy of `m` so that the pair overlaps: attribute and reference
/// slots rewritten or emptied, objects deleted (leaving references to them
/// behind) or added.
fn arb_edit(m: &Model, gen: &mut Gen) -> Model {
    let mut out = m.clone();
    for _ in 0..gen.range(0, 6) {
        let ids: Vec<_> = out.iter().map(|(id, _)| id).collect();
        if ids.is_empty() {
            break;
        }
        let id = ids[gen.range(0, ids.len() as u64) as usize];
        let other = ids[gen.range(0, ids.len() as u64) as usize];
        match gen.range(0, 7) {
            0 => out.set_attr(id, "a", Value::Int(gen.range(0, 3) as i64)),
            1 => out.set_attr_many(id, "b", Vec::new()),
            2 => out.set_refs(id, "r", vec![other, id]),
            3 => out.set_refs(id, "s", Vec::new()),
            4 => {
                // A reference that outlives its target.
                out.destroy(other, None).expect("live object");
                if id != other {
                    out.add_ref(id, "t", other);
                }
            }
            5 => out.set_attr(id, "name", Value::from(format!("n{}", gen.range(0, 10)))),
            _ => {
                let fresh = out.create("Node");
                out.add_ref(fresh, "r", id);
            }
        }
    }
    out
}

#[test]
fn diff_matches_the_canonical_oracle() {
    let opts = DiffOptions::default();
    for case in 0..512u64 {
        let mut gen = Gen(0xA9_0000 + case);
        let a = arb_edge_model(&mut gen);
        let b = if gen.range(0, 4) == 0 {
            arb_edge_model(&mut gen)
        } else {
            arb_edit(&a, &mut gen)
        };
        for (old, new) in [(&a, &b), (&b, &a), (&a, &a)] {
            assert_eq!(
                diff(old, new, &opts),
                oracle::diff(old, new, &opts),
                "case {case}\nold: {old:?}\nnew: {new:?}"
            );
            assert_eq!(
                equivalent(old, new, &opts),
                oracle::canonical(old, &opts) == oracle::canonical(new, &opts),
                "case {case}"
            );
        }
    }
}
