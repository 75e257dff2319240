//! E1 — behavioural equivalence (§VII-A).
//!
//! "We were able to validate the behavioral equivalence (in terms of the
//! sequence of commands that were generated for the underlying resources
//! as a result of model interpretation) of the model-based implementations
//! of the middleware and their original, handcrafted, counterparts."

use cvm::baseline::HandcraftedNcb;
use cvm::ncb::{ModelBasedNcb, Ncb};
use cvm::scenarios::{all_scenarios, run_scenario};

use crate::artifacts::{Artifact, Obj};

/// Result of the equivalence check for one scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct E1Row {
    /// Scenario name.
    pub scenario: &'static str,
    /// Commands issued to the underlying services.
    pub commands: usize,
    /// Whether the two traces were identical.
    pub equivalent: bool,
}

/// The experiment: every scenario's verdict under one seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct E1Result {
    /// Seed of both NCBs' resource hubs.
    pub seed: u64,
    /// One row per scenario, in scenario order.
    pub rows: Vec<E1Row>,
    /// Every scenario's traces were identical.
    pub all_equivalent: bool,
}

/// Runs all eight scenarios on both NCBs and compares command traces.
pub fn run(seed: u64) -> E1Result {
    let rows: Vec<E1Row> = all_scenarios()
        .iter()
        .map(|scenario| {
            let mut model_based = ModelBasedNcb::new(seed, 50);
            run_scenario(&mut model_based, scenario);
            let mut handcrafted = HandcraftedNcb::new(seed, 50);
            run_scenario(&mut handcrafted, scenario);
            let a = model_based.trace();
            let b = handcrafted.trace();
            E1Row {
                scenario: scenario.name,
                commands: a.len(),
                equivalent: a == b,
            }
        })
        .collect();
    E1Result {
        seed,
        all_equivalent: rows.iter().all(|r| r.equivalent),
        rows,
    }
}

impl E1Result {
    /// The `BENCH_e1.json` artifact. Deterministic in the seed.
    pub fn artifact(&self) -> Artifact {
        let scenarios: Vec<Obj> = self
            .rows
            .iter()
            .map(|r| {
                crate::obj! {
                    "scenario": r.scenario, "commands": r.commands, "equivalent": r.equivalent,
                }
            })
            .collect();
        Artifact::new(
            "e1",
            crate::obj! {
                "seed": self.seed,
                "all_equivalent": self.all_equivalent,
                "scenarios": scenarios,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_scenarios_equivalent() {
        let r = run(123);
        assert!(r.all_equivalent);
        for row in &r.rows {
            assert!(row.equivalent, "{} diverged", row.scenario);
            assert!(row.commands >= 2, "{} too trivial", row.scenario);
        }
    }

    #[test]
    fn equivalence_holds_across_seeds() {
        for seed in [1, 7, 99] {
            assert!(run(seed).all_equivalent);
        }
    }
}
