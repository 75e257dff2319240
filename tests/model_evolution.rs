//! Workspace-level properties of the live-evolution substrate.
//!
//! * The Synthesis-layer model comparator round-trips: for any mutated
//!   descendant of the four shipped domain models,
//!   `apply(old, diff(old, new))` is `equivalent` to `new` (and the
//!   reverse diff undoes it).
//! * Positional (`~N`) matching of unkeyed objects cannot distinguish a
//!   reorder from a cross-rename — pinned as a regression so a future
//!   matcher change is a conscious decision.
//! * Crash-at-every-boundary: truncating the journal at every byte
//!   during an in-flight hot upgrade always recovers to pure old-model
//!   or pure new-model state — never a hybrid — with `mon_*` monitor
//!   memory carried or reset along with its model version.
//!
//! Cases are generated with the simulator's seeded [`SimRng`], keeping
//! the suite deterministic without an external property-testing
//! dependency.

use bench::e11;
use bench::e14::{e14_model_v1, e14_model_v2, INVARIANTS};
use mddsm::broker::{
    journal, recover_versioned, GenericBroker, LiveUpgrade, RestartPolicy, Supervisor,
};
use mddsm::meta::diff::{apply, diff, equivalent, Change, DiffOptions, KeyIndex, ObjectKey};
use mddsm::meta::{Model, Value};
use mddsm::sim::resource::{args, Args, Outcome};
use mddsm::sim::{LatencyModel, ResourceHub, SimRng};

fn opts() -> DiffOptions {
    DiffOptions::default()
}

#[test]
fn diff_round_trips_across_seeded_mutations_of_the_corpus() {
    let deck = e11::deck();
    let mut trials = 0usize;
    for seed in [1u64, 7, 23] {
        let mut rng = SimRng::seed_from_u64(seed);
        for (name, old) in e11::corpus() {
            // A chain of mutations, checked cumulatively: old → m1 → m2…
            let mut new = old.clone();
            for (op_name, op) in deck.draw(4, &mut rng) {
                if !op(&mut new, &mut rng) {
                    continue;
                }
                trials += 1;
                let forward = diff(&old, &new, &opts());
                let mut patched = old.clone();
                apply(&mut patched, &forward, &opts())
                    .unwrap_or_else(|e| panic!("{name}/{op_name} seed {seed}: apply: {e}"));
                assert!(
                    equivalent(&patched, &new, &opts()),
                    "{name}/{op_name} seed {seed}: apply(old, diff(old, new)) != new"
                );
                // The reverse diff restores the original — provided the
                // mutant kept object keys unique (keyed matching cannot
                // tell duplicate-keyed objects apart, by design).
                if KeyIndex::new(&new, &opts()).duplicate().is_none() {
                    let backward = diff(&new, &old, &opts());
                    let mut reverted = new.clone();
                    apply(&mut reverted, &backward, &opts())
                        .unwrap_or_else(|e| panic!("{name}/{op_name} seed {seed}: revert: {e}"));
                    assert!(
                        equivalent(&reverted, &old, &opts()),
                        "{name}/{op_name} seed {seed}: reverse diff did not restore old"
                    );
                }
            }
        }
    }
    assert!(trials >= 20, "only {trials} mutation trials ran");
}

fn unkeyed_pair(first: &str, second: &str) -> Model {
    let mut m = Model::new("tags");
    for label in [first, second] {
        let o = m.create("Tag");
        m.set_attr(o, "label", Value::from(label));
    }
    m
}

/// Unkeyed objects match positionally (`~0`, `~1`, … in creation order),
/// so swapping two objects' creation order is indistinguishable from
/// renaming each into the other: both read as two `SetAttr` changes and
/// round-trip through `apply`. Pinned so a future identity-aware matcher
/// changes this consciously.
#[test]
fn positional_matching_reads_reorder_as_cross_rename() {
    let old = unkeyed_pair("x", "y");
    let reordered = unkeyed_pair("y", "x");
    let mut renamed = old.clone();
    for (id, obj) in old.iter() {
        let label = obj.attrs.get("label").and_then(|v| v.first()).unwrap();
        let flipped = if label == &Value::from("x") { "y" } else { "x" };
        renamed.set_attr(id, "label", Value::from(flipped));
    }

    let as_reorder = diff(&old, &reordered, &opts());
    let as_rename = diff(&old, &renamed, &opts());
    assert_eq!(
        as_reorder, as_rename,
        "reorder and cross-rename must produce the same positional change list"
    );
    assert_eq!(as_reorder.len(), 2);
    for (change, want_key, want_label) in as_reorder
        .iter()
        .zip([("~0", "y"), ("~1", "x")])
        .map(|(c, (k, l))| (c, k, l))
    {
        match change {
            Change::SetAttr { key, attr, values } => {
                assert_eq!(
                    key,
                    &ObjectKey {
                        class: "Tag".into(),
                        key: want_key.into()
                    }
                );
                assert_eq!(attr, "label");
                assert_eq!(values, &vec![Value::from(want_label)]);
            }
            other => panic!("expected SetAttr, got {other:?}"),
        }
    }

    let mut patched = old.clone();
    apply(&mut patched, &as_reorder, &opts()).unwrap();
    assert!(equivalent(&patched, &reordered, &opts()));
    assert!(equivalent(&patched, &renamed, &opts()));
}

fn hub() -> ResourceHub {
    let mut h = ResourceHub::new(0);
    h.register(
        "sim.store",
        LatencyModel::fixed_ms(3),
        mddsm::sim::SimDuration::from_millis(250),
        Box::new(|_: &str, _: &Args| Outcome::ok()),
    );
    h
}

#[test]
fn crash_at_every_journal_boundary_never_yields_a_hybrid() {
    let v1 = e14_model_v1();
    let v2 = e14_model_v2();
    let mut broker = GenericBroker::from_model(&v1, hub()).expect("v1 valid");
    broker.enable_journal_with(4, true);
    let mut supervisor = Supervisor::new(&["a"], RestartPolicy::default());

    let call = |b: &mut GenericBroker, i: usize| {
        let n = i.to_string();
        b.call("op", &args(&[("n", &n)])).expect("serves");
    };
    for i in 0..3 {
        call(&mut broker, i);
    }
    // Full protocol: gate, shadow, journaled cutover with the svc_tier
    // migration riding inside the Upgrade record.
    let mut up = LiveUpgrade::prepare(&broker, &v1, &v2, "v2", 2).expect("gate");
    for i in 3..9 {
        call(&mut broker, i);
        up.observe_call(&broker);
    }
    up.cutover(&mut broker, 6, 1).expect("cutover");
    // Post-upgrade traffic, a monitor trip (journaled `mon_*` memory
    // under the new model), and the heal.
    call(&mut broker, 9);
    let trips = broker.corrupt_state("svc_tier", "mystery");
    assert!(!trips.is_empty(), "tier_known must trip under v2");
    broker.rollback_to_snapshot().expect("heal");
    for i in 10..13 {
        call(&mut broker, i);
    }
    up.probation_tick(&broker, &mut supervisor, "a");

    let bytes = broker.journal_bytes().expect("journaling on").to_vec();
    let versions = [(1u64, &v1), (2u64, &v2)];
    let mut saw_old = false;
    let mut saw_new = false;
    let first_record_end = bytes
        .iter()
        .position(|&b| b == b'\n')
        .expect("journal has records");
    // Crash at EVERY byte offset — record boundaries and torn tails alike.
    for cut in 0..=bytes.len() {
        let prefix = &bytes[..cut];
        let recovered = recover_versioned(&versions, ResourceHub::new(0), prefix, INVARIANTS);
        let (rec, _) = match recovered {
            Ok(r) => r,
            Err(e) => {
                // A torn *head* record leaves no readable journal at all:
                // that is a typed refusal (the E13 mirror heals it), never
                // a silently wrong recovery. Any later cut must resolve.
                assert!(
                    cut > 0 && cut <= first_record_end,
                    "cut at {cut}: recovery refused beyond the head record: {e}"
                );
                continue;
            }
        };
        let v = rec.model_version();
        let tier = rec.state().str("svc_tier").map(str::to_owned);
        let mon = rec.state().str("mon_tier_known_tripped").map(str::to_owned);
        match v {
            1 => {
                saw_old = true;
                // Pure old model: no half-applied migration, and no
                // monitor memory belonging to the candidate's monitor.
                assert_eq!(tier, None, "cut at {cut}: v1 state carries the migration");
                assert_eq!(
                    mon, None,
                    "cut at {cut}: v1 state carries v2 monitor memory"
                );
            }
            2 => {
                saw_new = true;
                // Pure new model: the migration is fully applied (the
                // corruption window rewrites it, but never erases it).
                assert!(
                    tier.is_some(),
                    "cut at {cut}: v2 state lost the seeded migration"
                );
            }
            other => panic!("cut at {cut}: hybrid/unknown model version {other}"),
        }
        // Recovery is byte-identical to an independent replay.
        let replayed = journal::replay(prefix).expect("prefix replays");
        assert_eq!(
            replayed.state.snapshot(),
            rec.state().snapshot(),
            "cut {cut}"
        );
        assert_eq!(replayed.model_version, v, "cut {cut}");
    }
    assert!(saw_old && saw_new, "both versions must be reachable");
}
