//! CI gate: run the load-time static analyzer over every shipped broker
//! model — the four domain platforms plus the experiment models — print
//! every diagnostic and the footprint/conflict table sizes, load each
//! model with `GenericBroker::from_model`, and exit nonzero if any model
//! carries an error-level diagnostic or is refused at load time (a
//! non-conformant model passes the analyzer but cannot be loaded).
//!
//! ```text
//! cargo run --release -p bench --bin analyze_models
//! ```
//!
//! Warnings are printed but do not fail the gate (at runtime they are
//! journaled as `note` records); errors would make
//! `GenericBroker::from_model` refuse the model, so they fail CI here,
//! before a release ships an unloadable platform.

use bench::{e10, e11, e14, e15, e6, e7, e8, e9};
use mddsm_broker::{analyze, GenericBroker};
use mddsm_meta::analysis::Severity;
use mddsm_sim::ResourceHub;

fn main() {
    let mut models = e11::corpus()
        .into_iter()
        .map(|(n, m)| (n.to_owned(), m))
        .collect::<Vec<_>>();
    models.push(("bench-e6".into(), e6::e6_broker_model(true)));
    models.push(("bench-e7".into(), e7::e7_broker_model()));
    models.push(("bench-e8".into(), e8::e8_broker_model()));
    models.push((
        "bench-e9".into(),
        e9::e9_broker_model(e9::Variant::AckWindowed),
    ));
    models.push(("bench-e10".into(), e10::e10_broker_model(true)));
    // The E14 live-evolution candidates shipped under examples/: an
    // unsound candidate must fail here, before it can reach a shadow
    // phase against live traffic.
    models.push(("bench-e14-v1".into(), e14::e14_model_v1()));
    models.push(("bench-e14-v2".into(), e14::e14_model_v2()));
    models.push(("bench-e14-v3".into(), e14::e14_model_v3()));
    // The E15 replica-set topologies (examples/replica_set.rs walks the
    // 3-node one): a malformed replica set must be refused at load time,
    // not discovered at the first failover.
    models.push(("bench-e15-3".into(), e15::e15_broker_model(e15::NODES3, 2)));
    models.push(("bench-e15-5".into(), e15::e15_broker_model(e15::NODES5, 3)));

    let mut errors = 0usize;
    let mut warnings = 0usize;
    let mut refused = 0usize;
    for (name, model) in &models {
        let report = analyze(model);
        let (e, w) = (report.errors().count(), report.warnings().count());
        errors += e;
        warnings += w;
        println!(
            "{name:<10} errors {e:>2}  warnings {w:>2}  footprint units {:>3}  benign conflict edges {:>3}",
            report.footprints.len(),
            report.conflicts.len()
        );
        for d in &report.diagnostics {
            let tag = match d.severity {
                Severity::Error => "ERROR",
                Severity::Warning => "warn ",
            };
            println!("  {tag} [{}] {}: {}", d.code, d.path, d.message);
        }
        if let Err(e) = GenericBroker::from_model(model, ResourceHub::new(0)) {
            refused += 1;
            println!("  ERROR [load] refused by GenericBroker::from_model: {e}");
        }
    }
    println!(
        "\nanalyzed and loaded {} models: {errors} error(s), {warnings} warning(s), {refused} refused",
        models.len()
    );
    if errors > 0 || refused > 0 {
        eprintln!("FAIL: error-level diagnostics or load refusals — these models cannot be loaded");
        std::process::exit(1);
    }
    println!("PASS: every shipped model is accepted by the analyzer and loads");
}
