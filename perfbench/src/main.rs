//! Benchmark of the MD-DSM middleware.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <model_edits|ncb_calls|replicated_writes> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is a closed loop with one caller on one thread. Its
//! inputs are generated from `--seed` before timing starts; it then runs
//! identical rounds (a freshly built system fed the same input stream)
//! until `--seconds` have passed, and checks every round's outputs. A
//! failed check prints the mismatch and exits with code 1 without a
//! result. Otherwise the last stdout line is one JSON object: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics of a traced
//! run with `--trace 1`. See `NOTES.md` for what each workload and metric
//! is for.

mod edits;
mod ncb;
mod stats;
mod trace;
mod writes;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Command-line options.
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measuring time.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the timed one.
    pub trace: bool,
}

fn parse_opts() -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value after `{flag}`"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Per-layer metrics, with units. Every traced run reports all of them;
/// a layer a workload does not exercise reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("meta.parse_us", "us"),
    ("meta.parse_bytes", "bytes"),
    ("synthesis.submit_us", "us"),
    ("synthesis.commands", "count"),
    ("controller.execute_us", "us"),
    ("controller.case2_share", "share"),
    ("controller.im_cache_hit_ratio", "ratio"),
    ("broker.call_us", "us"),
    ("broker.event_us", "us"),
    ("broker.autonomic_tick_us", "us"),
    ("broker.attempts_per_call", "count"),
    ("handcrafted.call_us", "us"),
    ("broker.admitted_us", "us"),
    ("journal.bytes_per_write", "bytes"),
    ("journal.records_per_write", "count"),
    ("replication.tick_us", "us"),
    ("replication.ship_us_per_record", "us"),
    ("replication.useful_ship_ratio", "ratio"),
    ("replication.lag_records", "count"),
    ("sim.net_messages", "count"),
    ("broker.from_model_us", "us"),
    ("recovery.replay_us", "us"),
    ("recovery.bytes", "bytes"),
    ("sim.invoke_us", "us"),
    ("unattributed_share", "share"),
    ("trace.overhead_us", "us"),
];

/// Tolerance of the reconciliation: the layer self times of a traced op,
/// summed, must come within this share of the untraced op time.
pub const RECONCILE_TOL: f64 = 0.10;

/// Constructions of the system under test timed for `setup_s` after
/// each round, so set-up is sampled across the whole run.
pub const SETUP_REPS: usize = 10;

/// What a timed workload measured.
#[derive(Default)]
pub struct Measured {
    /// Wall time of each operation (µs), untraced.
    pub op_us: Vec<f64>,
    /// Peak resident memory (MB) after the first round.
    pub peak_rss_mb: f64,
    /// Operations per second of each round's op loop.
    pub rates: Vec<f64>,
    /// Set-up samples (s).
    pub setup_s: Vec<f64>,
    /// Recovery samples (ms).
    pub recover_ms: Vec<f64>,
    /// Per round: time on the model-interpreting path over the time the
    /// handcrafted reference takes for the same work.
    pub interp: Vec<f64>,
    /// Operations attempted and failed.
    pub attempted: u64,
    /// Failed operations.
    pub failed: u64,
}

impl Measured {
    /// Records a round: `ops` operations in `loop_s` seconds, against
    /// `reference_s` seconds of the handcrafted reference.
    pub fn add_round(&mut self, ops: usize, loop_s: f64, reference_s: f64) {
        self.rates.push(ops as f64 / loop_s);
        self.interp.push(loop_s / reference_s);
    }

    /// Times [`SETUP_REPS`] constructions of the system under test.
    pub fn time_setup<R>(&mut self, build: impl Fn() -> R) {
        for _ in 0..SETUP_REPS {
            let (built, us) = time_us(&build);
            std::hint::black_box(built);
            self.setup_s.push(us / 1e6);
        }
    }
}

/// What a traced workload measured.
pub struct Traced {
    /// Per-layer metric values, by name.
    pub layers: BTreeMap<&'static str, f64>,
    /// Untraced op samples (µs) from rounds interleaved with traced ones.
    pub untraced_op_us: Vec<f64>,
    /// Traced op samples (µs).
    pub traced_op_us: Vec<f64>,
    /// Summed layer self time per traced op (µs, mean).
    pub layer_sum_us: f64,
    /// Operations attempted and failed.
    pub attempted: u64,
    /// Failed operations.
    pub failed: u64,
    /// Spans of the last traced round.
    pub spans: Vec<trace::Span>,
}

/// What a workload run measured, timed or traced.
pub enum Outcome {
    /// A timed run.
    Timed(Measured),
    /// A traced run.
    Traced(Traced),
}

/// Fails the correctness gate unless two traces are identical.
pub fn same_trace(what: &str, expected: &[String], got: &[String]) -> Result<(), String> {
    if let Some(i) = expected.iter().zip(got).position(|(a, b)| a != b) {
        return Err(format!(
            "{what}: traces differ at line {i}: `{}` vs `{}`",
            expected[i], got[i]
        ));
    }
    if expected.len() != got.len() {
        return Err(format!(
            "{what}: traces differ in length: {} vs {} lines",
            expected.len(),
            got.len()
        ));
    }
    Ok(())
}

/// Runs rounds until `seconds` have passed: at least `min_rounds`, and a
/// new round only while the previous one would still fit. Returns the
/// peak resident memory (MB) at the end of the first round, before the
/// benchmark's own sample buffers grow with the run's length.
pub fn rounds(
    seconds: f64,
    min_rounds: usize,
    mut round: impl FnMut(usize) -> Result<(), String>,
) -> Result<f64, String> {
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut longest = Duration::ZERO;
    let mut peak_rss_mb = 0.0;
    let mut i = 0;
    loop {
        let t = Instant::now();
        round(i)?;
        longest = longest.max(t.elapsed());
        if i == 0 {
            peak_rss_mb = peak_rss_mb_now()?;
        }
        i += 1;
        if i >= min_rounds && start.elapsed() + longest > budget {
            return Ok(peak_rss_mb);
        }
    }
}

/// Shuffles `xs` in place (Fisher-Yates), deterministically for a seed.
pub fn shuffle<T>(rng: &mut mddsm_sim::SimRng, xs: &mut [T]) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.index(i + 1));
    }
}

/// Times `f` in microseconds.
pub fn time_us<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64() * 1e6)
}

/// Peak resident set of this process so far (MB of 10^6 bytes), from
/// `/proc/self/status`.
fn peak_rss_mb_now() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb * 1024.0 / 1e6)
}

fn json_metric(name: &str, value: f64, unit: &str) -> String {
    format!("\"{name}\": {{\"value\": {value:e}, \"unit\": \"{unit}\"}}")
}

fn timed_metrics(m: &Measured) -> Vec<(&'static str, f64, &'static str)> {
    let tail = stats::tail(&m.op_us);
    let rounds = m.rates.len().max(1) as f64;
    println!(
        "ops: {} in {} rounds; p50 {:.2} us, p{:.1} {:.2} us ({} samples, {} beyond)",
        m.op_us.len(),
        m.rates.len(),
        stats::median(&m.op_us),
        tail.percentile,
        tail.value,
        tail.samples,
        tail.beyond
    );
    println!(
        "setup: {} samples; recover: {} samples; failed {} of {} attempted",
        m.setup_s.len(),
        m.recover_ms.len(),
        m.failed,
        m.attempted
    );
    vec![
        ("op_p50_us", stats::median(&m.op_us), "us"),
        ("op_p99_us", tail.value, "us"),
        ("ops_per_s", stats::median(&m.rates), "1/s"),
        ("setup_s", stats::median(&m.setup_s), "s"),
        ("peak_rss_mb", m.peak_rss_mb, "MB"),
        // Add-one smoothing per round keeps a clean run above 0 (so a
        // relative bound applies) while any real failure multiplies it.
        (
            "failed_share",
            (m.failed as f64 / rounds + 1.0) / (m.attempted as f64 / rounds + 1.0),
            "share",
        ),
        ("interp_overhead_ratio", stats::median(&m.interp), "ratio"),
        ("recover_ms", stats::median(&m.recover_ms), "ms"),
    ]
}

fn traced_metrics(
    opts: &Opts,
    t: &mut Traced,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let untraced = stats::median(&t.untraced_op_us);
    let traced = stats::median(&t.traced_op_us);
    let untraced_mean = stats::mean(&t.untraced_op_us);
    let overhead = traced - untraced;
    t.layers.insert("trace.overhead_us", overhead);
    let err = (t.layer_sum_us - untraced_mean) / untraced_mean;
    println!(
        "reconcile: layer self times sum to {:.3} us per op vs {:.3} us untraced op time \
         (error {:+.2}%, tolerance {:.0}%); unattributed share {:.4}; tracing overhead {:+.3} us \
         on op p50 ({:.3} traced vs {:.3} untraced)",
        t.layer_sum_us,
        untraced_mean,
        100.0 * err,
        100.0 * RECONCILE_TOL,
        t.layers.get("unattributed_share").copied().unwrap_or(0.0),
        overhead,
        traced,
        untraced
    );
    if err.abs() > RECONCILE_TOL {
        return Err(format!(
            "reconciliation failed: layer self times miss the op time by {:.2}%",
            100.0 * err
        ));
    }
    let path = std::path::Path::new(
        &std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into()),
    )
    .join("perfbench")
    .join(format!("spans-{}-{}.tsv", opts.workload, opts.seed));
    trace::write_tsv(&path, &t.spans).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("spans of the last traced round: {}", path.display());
    let mut out = Vec::new();
    for (name, unit) in PER_LAYER {
        out.push((*name, t.layers.remove(name).unwrap_or(0.0), *unit));
    }
    if let Some(extra) = t.layers.keys().next() {
        return Err(format!("per-layer metric `{extra}` is not declared"));
    }
    Ok(out)
}

fn run(opts: &Opts) -> Result<String, String> {
    let outcome = match opts.workload.as_str() {
        "model_edits" => edits::run(opts)?,
        "ncb_calls" => ncb::run(opts)?,
        "replicated_writes" => writes::run(opts)?,
        other => return Err(format!("unknown workload `{other}`")),
    };
    let (metrics, attempted, failed) = match outcome {
        Outcome::Timed(m) => (timed_metrics(&m), m.attempted, m.failed),
        Outcome::Traced(mut t) => (traced_metrics(opts, &mut t)?, t.attempted, t.failed),
    };
    for (name, value, unit) in &metrics {
        println!("{name:>32} = {value:.6} {unit}");
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number"));
        }
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| json_metric(n, *v, u))
        .collect();
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

fn main() {
    let result = parse_opts().and_then(|opts| {
        println!(
            "perfbench: workload {} seed {} seconds {} trace {}",
            opts.workload, opts.seed, opts.seconds, opts.trace
        );
        run(&opts)
    });
    match result {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn identical_traces_pass_the_gate() {
        let t = lines(&[
            "sim.media.open(stream=v1)",
            "sim.signaling.close(session=c1)",
        ]);
        assert!(same_trace("t", &t, &t.clone()).is_ok());
    }

    #[test]
    fn a_perturbed_trace_fails_the_gate() {
        let t = lines(&[
            "sim.media.open(stream=v1)",
            "sim.signaling.close(session=c1)",
        ]);
        let mut changed = t.clone();
        changed[1] = "sim.signaling.close(session=c2)".into();
        let err = same_trace("t", &t, &changed).unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        assert!(same_trace("t", &t, &t[..1]).is_err());
        let mut longer = t.clone();
        longer.push("sim.relay.open()".into());
        assert!(same_trace("t", &t, &longer).is_err());
    }

    #[test]
    fn json_numbers_keep_their_digits() {
        let s = json_metric("x", 1.234_567_891_2e-4, "s");
        assert!(s.contains("1.2345678912e-4"), "{s}");
    }
}
