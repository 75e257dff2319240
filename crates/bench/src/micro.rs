//! A minimal wall-clock micro-benchmark harness.
//!
//! Stands in for Criterion so the evaluation harness builds with zero
//! external dependencies (offline/air-gapped environments). The protocol is
//! deliberately simple: warm up, then time batches until a time budget is
//! spent, and report the median per-iteration latency. Use the
//! `experiments` binary for the paper-style tables; these benches exist to
//! watch for regressions in the per-call prices behind E2/E3.
//! [`hotpath_cost`] is the interleaved A/B probe behind the wall-clock
//! members of the E10 and E13 artifacts.

use std::time::{Duration, Instant};

use mddsm_broker::GenericBroker;
use mddsm_sim::resource::args;

use crate::artifacts::{fixed, Obj};

/// Target measurement time per benchmark.
const MEASURE_BUDGET: Duration = Duration::from_millis(400);
/// Warm-up time per benchmark.
const WARMUP_BUDGET: Duration = Duration::from_millis(100);

/// A named group of micro-benchmarks (mirrors Criterion's group API
/// closely enough that porting a bench is mechanical).
pub struct BenchGroup {
    name: String,
}

impl BenchGroup {
    /// Starts a group; prints its header.
    pub fn new(name: &str) -> Self {
        println!("group {name}");
        BenchGroup {
            name: name.to_owned(),
        }
    }

    /// Times `f`, printing the median per-iteration latency.
    pub fn bench_function<R>(&mut self, name: &str, mut f: impl FnMut() -> R) -> &mut Self {
        // Warm up and pick a batch size aiming at ~1 ms per batch.
        let warm_start = Instant::now();
        let mut iters_in_warmup = 0u64;
        while warm_start.elapsed() < WARMUP_BUDGET {
            std::hint::black_box(f());
            iters_in_warmup += 1;
        }
        let per_iter = WARMUP_BUDGET.as_nanos() as u64 / iters_in_warmup.max(1);
        let batch = (1_000_000 / per_iter.max(1)).clamp(1, 100_000);

        let mut samples: Vec<f64> = Vec::new();
        let measure_start = Instant::now();
        while measure_start.elapsed() < MEASURE_BUDGET {
            let t = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(f());
            }
            samples.push(t.elapsed().as_nanos() as f64 / batch as f64);
        }
        samples.sort_by(|a, b| a.total_cmp(b));
        let median = samples[samples.len() / 2];
        println!(
            "  {}/{name}: {:.1} ns/iter ({} samples)",
            self.name,
            median,
            samples.len()
        );
        self
    }

    /// Finishes the group (prints a trailing newline for readability).
    pub fn finish(&mut self) {
        println!();
    }
}

/// Wall-clock cost of a broker variant on the clean call path, against
/// the base broker (see [`hotpath_cost`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HotpathCost {
    /// Nanoseconds per clean call, base broker.
    pub base_ns_per_call: f64,
    /// Nanoseconds per clean call, variant broker: the base figure times
    /// the median paired ratio.
    pub variant_ns_per_call: f64,
    /// Relative cost of the variant, percent of the base call.
    pub pct: f64,
}

impl HotpathCost {
    /// The artifact's `wall_clock` member.
    pub fn fields(&self) -> Obj {
        crate::obj! {
            "base_ns_per_call": fixed(self.base_ns_per_call, 1),
            "variant_ns_per_call": fixed(self.variant_ns_per_call, 1),
            "overhead_pct": fixed(self.pct, 2),
        }
    }
}

/// Wall-clock A/B probe: `reps` paired clean runs of `calls` `op` calls
/// on `broker(false, rep)` (base) and `broker(true, rep)` (variant),
/// timing only the calls. Each rep runs both sides back to back, so a
/// slow phase of a shared machine slows both; the overhead is the median
/// of the per-rep variant/base ratios. The base ns/call is its median
/// over the reps and the variant's is that times the ratio, so the
/// three numbers agree. Positive percent = the variant costs time. The
/// percentage is relative to the raw in-memory call path (a few µs);
/// against any real resource latency the absolute ns/call figure is the
/// honest one. These numbers vary by machine, so artifacts carry them in
/// their `wall_clock` member only.
pub fn hotpath_cost(
    calls: u64,
    reps: u64,
    broker: impl Fn(bool, u64) -> GenericBroker,
) -> HotpathCost {
    let time = |variant: bool, rep: u64| {
        let mut b = broker(variant, rep);
        let t0 = Instant::now();
        for i in 0..calls {
            let n = i.to_string();
            let r = b.call("op", &args(&[("n", &n)])).expect("clean call");
            assert!(r.outcome.is_ok());
        }
        t0.elapsed().as_nanos() as f64 / calls.max(1) as f64
    };
    let pairs: Vec<(f64, f64)> = (0..reps.max(1))
        .map(|rep| (time(false, rep), time(true, rep)))
        .collect();
    let ratios: Vec<f64> = pairs
        .iter()
        .filter(|(base, _)| *base > 0.0)
        .map(|(base, variant)| variant / base)
        .collect();
    let ratio = if ratios.is_empty() {
        1.0
    } else {
        median(ratios)
    };
    let base = median(pairs.iter().map(|p| p.0).collect());
    HotpathCost {
        base_ns_per_call: base,
        variant_ns_per_call: base * ratio,
        pct: (ratio - 1.0) * 100.0,
    }
}

/// The median of a non-empty sample (the mean of the middle two for an
/// even count).
fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_runs_and_reports() {
        let mut g = BenchGroup::new("smoke");
        let mut acc = 0u64;
        g.bench_function("add", || {
            acc = acc.wrapping_add(1);
            acc
        });
        g.finish();
        assert!(acc > 0);
    }

    #[test]
    fn hotpath_probes_yield_finite_numbers() {
        for cost in [
            crate::e10::hotpath_cost(60, 3),
            crate::e13::hotpath_cost(60, 3),
        ] {
            assert!(cost.pct.is_finite(), "{cost:?}");
            assert!(cost.base_ns_per_call > 0.0 && cost.variant_ns_per_call > 0.0);
        }
    }
}
