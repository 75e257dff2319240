//! Regenerates every measurement of the paper's §VII evaluation and
//! writes the `BENCH_*.json` artifact of each deterministic experiment
//! (E1, E6–E15) into the working directory.
//!
//! ```text
//! cargo run --release -p bench --bin experiments            # all experiments
//! cargo run --release -p bench --bin experiments -- e3 e4   # a subset
//! ```
//!
//! Each experiment runs at the one size its committed artifact records;
//! `check_artifacts` holds a fresh run to the committed copies.

use std::path::Path;

use bench::artifacts::Artifact;
use bench::{ablation, e1, e10, e11, e13, e14, e15, e2, e3, e4, e5, e6, e7, e8, e9};

/// Every experiment id, in run order.
const EXPERIMENTS: &[(&str, fn())] = &[
    ("e1", run_e1),
    ("e2", run_e2),
    ("e3", run_e3),
    ("e4", run_e4),
    ("e5", run_e5),
    ("e6", run_e6),
    ("e7", run_e7),
    ("e8", run_e8),
    ("e9", run_e9),
    ("e10", run_e10),
    ("e11", run_e11),
    ("e13", run_e13),
    ("e14", run_e14),
    ("e15", run_e15),
    ("ablations", run_ablations),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(bad) = args
        .iter()
        .find(|a| EXPERIMENTS.iter().all(|(id, _)| id != a))
    {
        let ids: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
        eprintln!(
            "experiments: unknown experiment `{bad}` (known: {})",
            ids.join(" ")
        );
        std::process::exit(2);
    }

    println!("MD-DSM reproduction — experiments of ICDCS'17 §VII");
    println!("====================================================\n");
    for (id, run) in EXPERIMENTS {
        if args.is_empty() || args.iter().any(|a| a == id) {
            run();
        }
    }
}

/// Writes `artifact` into the working directory; an artifact that cannot
/// be written fails the run.
fn save(artifact: &Artifact) {
    match artifact.write_to(Path::new(".")) {
        Ok(()) => println!("  artifact: {}", artifact.file_name()),
        Err(e) => {
            eprintln!("  artifact: {} not written: {e}", artifact.file_name());
            std::process::exit(1);
        }
    }
}

fn run_e6() {
    println!("E6 — fault recovery under seeded fault campaigns");
    println!("-------------------------------------------------");
    let r = e6::run(2024, 2_000, 20);
    println!(
        "  campaign: seed {}, {} calls every {} virtual ms",
        r.seed, r.calls, r.period_ms
    );
    for (name, v) in [("baseline", &r.baseline), ("resilient", &r.resilient)] {
        println!(
            "  {:<10} success {:>5.1}%  outages {:>3}  mean recovery {:>8.1} ms  worst {:>8.1} ms  mean call {:>6.2} ms",
            name,
            v.success_rate * 100.0,
            v.recoveries,
            v.mean_recovery_ms,
            v.max_recovery_ms,
            v.mean_call_ms
        );
    }
    save(&r.artifact());
    println!(
        "\n  expectation: the resilience model (retry+breaker+fallback) lifts the\n               success-rate and cuts recovery time on the same campaign\n  measured: success {:.1}% -> {:.1}%; mean recovery {:.1} ms -> {:.1} ms\n",
        r.baseline.success_rate * 100.0,
        r.resilient.success_rate * 100.0,
        r.baseline.mean_recovery_ms,
        r.resilient.mean_recovery_ms
    );
}

fn run_e7() {
    println!("E7 — crash-consistent recovery: journal + supervisor vs naive restart");
    println!("----------------------------------------------------------------------");
    let r = e7::run(2024, 2_000, 20);
    println!(
        "  campaign: seed {}, {} calls every {} virtual ms",
        r.seed, r.calls, r.period_ms
    );
    for (name, v) in [
        ("baseline", &r.baseline),
        ("supervised", &r.supervised),
        ("naive", &r.naive),
    ] {
        println!(
            "  {:<11} ok {:>4}/{:<4}  crashes {:>2}  stalls {:>2}  restarts {:>2}  replayed {:>5} ops / {:>5} cmds  mean RTO {:>7.2} ms  worst {:>7.2} ms",
            name,
            v.succeeded,
            v.calls,
            v.crashes,
            v.stalls,
            v.restarts,
            v.replayed_ops,
            v.replayed_commands,
            v.mean_rto_ms,
            v.max_rto_ms
        );
    }
    println!(
        "  trace vs uncrashed baseline: supervised {}  naive {}",
        if r.supervised_trace_identical {
            "IDENTICAL"
        } else {
            "DIVERGED"
        },
        if r.naive_trace_identical {
            "identical"
        } else {
            "diverged (state lost)"
        }
    );
    save(&r.artifact());
    println!(
        "\n  expectation: snapshot+journal recovery replays the middleware to the\n               exact pre-crash model, so the recovered command trace is\n               byte-identical to an uncrashed run; naive restarts lose\n               runtime state and diverge\n  measured: supervised identical={} over {} recoveries; naive identical={}\n",
        r.supervised_trace_identical, r.supervised.restarts, r.naive_trace_identical
    );
}

fn run_e8() {
    println!("E8 — overload robustness: admission control + brownout vs naive FIFO");
    println!("---------------------------------------------------------------------");
    let r = e8::run(2024, 1_500);
    println!(
        "  campaign: seed {}, {} virtual ms, interactive arrivals x{:.0} in [{}, {}) ms",
        r.seed, r.horizon_ms, r.spike_factor, r.spike_start_ms, r.spike_end_ms
    );
    for (name, v) in [
        ("naive", &r.naive),
        ("shed", &r.shed),
        ("brownout", &r.brownout),
    ] {
        println!(
            "  {:<9} timely {:>4}/{:<4}  shed {:>3}  dropped {:>3}  goodput {:>7.1}/s  miss {:>6.2}%  p99 {:>9.3} ms  transitions {:>2}",
            name,
            v.timely,
            v.arrivals,
            v.shed,
            v.dropped,
            v.goodput_per_s,
            v.miss_rate * 100.0,
            v.p99_latency_ms,
            v.brownout_transitions
        );
    }
    println!(
        "  mid-overload crash: trace {}  recovered mode {}",
        if r.crash_trace_identical {
            "IDENTICAL"
        } else {
            "DIVERGED"
        },
        if r.recovered_mode_matches {
            "PRESERVED"
        } else {
            "LOST"
        }
    );
    save(&r.artifact());
    println!(
        "\n  expectation: model-defined admission keeps admitted work fresh and the\n               declared brownout mode trades fidelity for capacity, so both\n               beat FIFO on goodput and deadline misses under the same spike\n  measured: goodput {:.1} -> {:.1} -> {:.1} /s; miss {:.1}% -> {:.1}% -> {:.1}%\n",
        r.naive.goodput_per_s,
        r.shed.goodput_per_s,
        r.brownout.goodput_per_s,
        r.naive.miss_rate * 100.0,
        r.shed.miss_rate * 100.0,
        r.brownout.miss_rate * 100.0
    );
}

fn run_e9() {
    println!("E9 — replicated models@runtime: journal shipping, failover, fencing");
    println!("--------------------------------------------------------------------");
    let r = e9::run(&[1, 3, 7], 1_000, 20);
    println!(
        "  campaigns: seeds {:?}, {} calls every {} virtual ms, supervision every {} calls",
        r.seeds,
        r.calls,
        r.period_ms,
        e9::SUPERVISE_EVERY
    );
    for c in &r.campaigns {
        println!("  seed {}", c.seed);
        for (name, v) in [
            ("no-replica", &c.no_replica),
            ("async", &c.async_ship),
            ("ack-window", &c.ack_ship),
        ] {
            println!(
                "    {:<10} committed {:>4}/{:<4}  lost {:>3}  diverged {:>3}  rejected {:>3}  failovers {:>2}  fenced {:>2}  mean failover {:>7.2} ms",
                name,
                v.group.committed,
                v.calls,
                v.group.committed_lost,
                v.group.divergent_commits,
                v.served.rejected,
                v.group.failovers + v.group.restarts,
                v.group.fenced_events,
                v.group.mean_failover_ms
            );
        }
    }
    println!(
        "  verdicts: ack zero-loss {}  ack zero-divergence {}  async loss observed {}  replays consistent {}  one primary/epoch {}",
        r.ack_zero_lost,
        r.ack_zero_divergence,
        r.async_loss_observed,
        r.replays_consistent,
        r.one_primary_per_epoch
    );
    save(&r.artifact());
    println!(
        "\n  expectation: ack-windowed shipping never loses a committed update and\n               its committed trace survives every failover byte-for-byte;\n               async shipping loses the partition window's commits; the\n               healed stale primary is fenced by epoch and reconciled\n  measured: ack lost=0:{} diverged=0:{}; async loss observed:{}\n",
        r.ack_zero_lost, r.ack_zero_divergence, r.async_loss_observed
    );
}

fn run_e10() {
    println!("E10 — online runtime verification: in-stream journal monitors");
    println!("--------------------------------------------------------------");
    let mut r = e10::run(&[1, 3, 7], 1_000, 20);
    let cost = e10::hotpath_cost(2_000, 15);
    r.wall_clock = Some(cost);
    println!(
        "  campaigns: seeds {:?}, {} calls every {} virtual ms, supervision every {} calls",
        r.seeds,
        r.calls,
        r.period_ms,
        e10::SUPERVISE_EVERY
    );
    for c in &r.campaigns {
        println!("  seed {}", c.seed);
        for (name, v) in [
            ("unmonitored", &c.unmonitored),
            ("monitored", &c.monitored),
            ("replicated", &c.replicated),
        ] {
            println!(
                "    {:<11} injected {:>2}  caught {:>2}  masked {:>2}  missed {:>2}  divergent cmds {:>3}  refused {:>3}  quarantines {:>2}  standby trips {:>2}",
                name,
                v.injected,
                v.caught,
                v.masked,
                v.missed,
                v.divergent_commands,
                v.refused_latched,
                v.quarantines,
                v.standby_trips
            );
        }
    }
    println!(
        "  verdicts: caught-all {}  zero-divergence {}  standby-matches {}  unmonitored diverges {}  replays consistent {}",
        r.monitors_caught_all,
        r.zero_divergence_monitored,
        r.standby_caught_all,
        r.unmonitored_divergence_observed,
        r.replays_consistent
    );
    println!(
        "  hot path: {:.0} ns/call unarmed vs {:.0} ns/call armed — {:+.0} ns/call ({:+.2}% of the raw in-memory path; <1% of any ms-scale resource call)",
        cost.base_ns_per_call,
        cost.variant_ns_per_call,
        cost.variant_ns_per_call - cost.base_ns_per_call,
        cost.pct
    );
    save(&r.artifact());
    println!(
        "\n  expectation: compiled in-stream monitors catch every injected\n               invariant violation on the violating write itself — before\n               any divergent command executes — on the primary and on the\n               standby's shipped journal, at small hot-path cost; the\n               unmonitored broker keeps executing against the corrupt model\n  measured: caught-all={} zero-divergence={} standby-matches={} overhead={:+.0} ns/call ({:+.2}%)\n",
        r.monitors_caught_all,
        r.zero_divergence_monitored,
        r.standby_caught_all,
        cost.variant_ns_per_call - cost.base_ns_per_call,
        cost.pct
    );
}

fn run_e11() {
    println!("E11 — static model verification: analyzer mutation-detection rate");
    println!("------------------------------------------------------------------");
    let r = e11::run(&[1, 2, 3, 5], 12);
    println!(
        "  corpus: seeds {:?}, {} operators drawn per model per seed, {} trials",
        r.seeds,
        r.draws_per_model,
        r.trials.len()
    );
    println!("  unmutated baselines (false positives must be zero):");
    for b in &r.baselines {
        println!(
            "    {:<8} errors {:>2}  warnings {:>2}  footprint units {:>3}  benign conflict edges {:>3}",
            b.model, b.errors, b.warnings, b.footprints, b.conflicts
        );
    }
    let missed: Vec<String> = r
        .trials
        .iter()
        .filter(|t| !t.detected)
        .map(|t| format!("{}/{}", t.model, t.mutation))
        .collect();
    println!(
        "  detection: {}/{} trials ({:.1}%)  false positives: {}",
        r.detected,
        r.trials.len(),
        r.detection_rate * 100.0,
        r.false_positives
    );
    if !missed.is_empty() {
        println!("  MISSED: {missed:?}");
    }
    save(&r.artifact());
    println!(
        "\n  expectation: the load-time analyzer detects >=95% of seeded model\n               mutations (dangling references, reserved-key writes, type\n               clashes, dead rules, vacuous monitors, new write conflicts)\n               with zero error-level diagnostics on the unmutated models\n  measured: detection={:.1}% false-positives={}\n",
        r.detection_rate * 100.0,
        r.false_positives
    );
}

fn run_e13() {
    println!("E13 — durable-storage fault tolerance: self-healing journal");
    println!("------------------------------------------------------------");
    let mut r = e13::run(&[1, 3, 7], 1_000, 20);
    let cost = e13::hotpath_cost(2_000, 15);
    r.wall_clock = Some(cost);
    println!(
        "  campaigns: seeds {:?}, {} calls every {} virtual ms, snapshot every {} entries",
        r.seeds,
        r.calls,
        r.period_ms,
        e13::SNAPSHOT_EVERY
    );
    for c in &r.campaigns {
        println!("  seed {}", c.seed);
        for (name, v) in [
            ("naive", &c.naive),
            ("checksummed", &c.checksummed),
            ("self-healing", &c.self_healing),
        ] {
            println!(
                "    {:<12} faults {:>2} (torn {:>2} flip {:>2} drop {:>2} snap {:>2}, harmless {:>2})  detected {:>2}  silent {:>2}+{:<2}  repairs {:>2}  restores {:>2}  committed lost {:>3}",
                name,
                v.faults,
                v.torn_faults,
                v.flip_faults,
                v.drop_faults,
                v.snap_faults,
                v.harmless,
                v.detected,
                v.silent_byte,
                v.silent_drop,
                v.repairs,
                v.manual_restores,
                v.committed_lost
            );
        }
    }
    println!(
        "  verdicts: self-healing-detects-all {}  zero-loss {}  repairs-byte-identical {}  checksum-catches-byte-damage {}  naive-loses {}  replays consistent {}",
        r.self_healing_detected_all,
        r.self_healing_zero_loss,
        r.repairs_byte_identical,
        r.checksummed_detects_byte_damage,
        r.naive_loss_observed,
        r.replays_consistent
    );
    println!(
        "  hot path: {:.0} ns/call unframed vs {:.0} ns/call framed — {:+.0} ns/call ({:+.2}% of the raw in-memory path; acceptance <=5%)",
        cost.base_ns_per_call,
        cost.variant_ns_per_call,
        cost.variant_ns_per_call - cost.base_ns_per_call,
        cost.pct
    );
    save(&r.artifact());
    println!(
        "\n  expectation: per-record CRC framing detects every byte-altering storage\n               fault; the standby mirror additionally catches clean tail drops\n               and heals the journal byte-identically, losing zero committed\n               updates, at a few percent of the raw append path; the naive\n               journal silently loses committed records on the same campaigns\n  measured: detects-all={} zero-loss={} byte-identical={} framing-overhead={:+.2}%\n",
        r.self_healing_detected_all,
        r.self_healing_zero_loss,
        r.repairs_byte_identical,
        cost.pct
    );
}

fn run_e14() {
    println!("E14 — live model evolution: hot upgrade under traffic");
    println!("------------------------------------------------------");
    let r = e14::run(&[1, 3, 7], 1_000, 20);
    println!(
        "  campaigns: seeds {:?}, {} calls every {} virtual ms, shadow {} calls, probation {} ticks",
        r.seeds,
        r.calls,
        r.period_ms,
        e14::SHADOW_CALLS,
        e14::PROBATION_TICKS
    );
    for c in &r.campaigns {
        println!("  seed {}", c.seed);
        for (name, v) in [("live", &c.live), ("stop-the-world", &c.stw)] {
            println!(
                "    {:<14} pushed {:>2} (cutover {:>2} committed {:>2} rolled-back {:>2} crash-abort {:>2} crash-commit {:>2})  crashes {:>2}  storage {:>2}  goodput {:.4}  p99 {:>5} us  lost {:>2}  v{}",
                name,
                v.upgrades_pushed,
                v.cutovers,
                v.committed,
                v.rolled_back,
                v.aborted_by_crash,
                v.crash_committed,
                v.crashes,
                v.storage_faults,
                v.goodput,
                v.p99_us,
                v.committed_lost,
                v.final_version
            );
        }
    }
    println!(
        "  verdicts: all-consistent {}  zero-committed-lost {}  replays-byte-identical {}  live-goodput-wins {} ({:.4} vs {:.4})",
        r.all_consistent,
        r.zero_committed_lost,
        r.replays_byte_identical,
        r.live_goodput_wins,
        r.goodput_live,
        r.goodput_stw
    );
    save(&r.artifact());
    println!(
        "\n  expectation: every seeded upgrade campaign ends on one consistent committed\n               version (cutover or rollback) with zero committed updates lost;\n               crash-mid-upgrade recovery is byte-identical to a replay and\n               never yields a hybrid model; serving through upgrades beats the\n               stop-the-world restart baseline on goodput\n  measured: consistent={} zero-loss={} byte-identical={} goodput {:.4} live vs {:.4} stw\n",
        r.all_consistent,
        r.zero_committed_lost,
        r.replays_byte_identical,
        r.goodput_live,
        r.goodput_stw
    );
}

fn run_e15() {
    println!("E15 — quorum-replicated models@runtime: replica sets, majority commit");
    println!("----------------------------------------------------------------------");
    let r = e15::run(&[1, 3, 7], 600, 20);
    println!(
        "  campaigns: seeds {:?}, {} calls every {} virtual ms, supervision every {} calls",
        r.seeds,
        r.calls,
        r.period_ms,
        e15::SUPERVISE_EVERY
    );
    for c in &r.campaigns {
        println!("  seed {}", c.seed);
        for (name, v) in [
            ("baseline-3", &c.baseline3),
            ("quorum-3/2", &c.quorum3),
            ("baseline-5", &c.baseline5),
            ("quorum-5/3", &c.quorum5),
        ] {
            println!(
                "    {:<10} committed {:>4}/{:<4}  lost {:>3}  diverged {:>2}  unavailable {:>3}  failovers {:>2}  restarts {:>2}  repairs {:>2}  rejoins {:>2}  mean failover {:>7.2} ms",
                name,
                v.group.committed,
                v.calls,
                v.group.committed_lost,
                v.group.divergent_commits,
                v.unavailable,
                v.group.failovers,
                v.group.restarts,
                v.group.anti_entropy_repairs,
                v.group.rejoins,
                v.group.mean_failover_ms
            );
        }
    }
    println!(
        "  verdicts: quorum zero-loss {}  zero-divergence {}  availability-wins {} ({} vs {} unavailable)  replays consistent {}  one primary/epoch {}  upgrades propagate {}",
        r.quorum_zero_lost,
        r.quorum_zero_divergence,
        r.availability_strictly_better,
        r.unavailable_quorum,
        r.unavailable_baseline,
        r.replays_consistent,
        r.one_primary_per_epoch,
        r.upgrades_propagated
    );
    save(&r.artifact());
    println!(
        "\n  expectation: a model-defined replica set with majority commit loses zero\n               quorum-committed updates and shows zero committed-trace\n               divergence under composed chaos with any minority faulty,\n               while quorum-elected failover keeps serving through faults\n               that leave the single-standby baseline unavailable\n  measured: zero-loss={} zero-divergence={} unavailable {} (quorum) vs {} (baseline)\n",
        r.quorum_zero_lost, r.quorum_zero_divergence, r.unavailable_quorum, r.unavailable_baseline
    );
}

fn run_ablations() {
    println!("A — ablations over DESIGN.md's design choices");
    println!("----------------------------------------------");
    println!("A1: cold IM-generation time vs repository size");
    println!(
        "{:>12} {:>12} {:>10}",
        "procedures", "cold (us)", "IM nodes"
    );
    for r in ablation::repo_size_sweep() {
        println!("{:>12} {:>12.1} {:>10}", r.procedures, r.cold_us, r.im_size);
    }
    println!("\nA2: generation latency / selection quality vs beam width");
    println!("{:>6} {:>12} {:>10}", "beam", "cold (us)", "score");
    for r in ablation::beam_width_sweep() {
        println!("{:>6} {:>12.1} {:>10.2}", r.beam, r.cold_us, r.score);
    }
    println!("\nA3: E2 overhead vs per-call service work (why 17% is testbed-relative)");
    println!("{:>10} {:>12}", "work", "overhead");
    for r in ablation::work_sweep(20) {
        println!("{:>10} {:>11.1}%", r.work, r.overhead_pct);
    }
    println!();
}

fn run_e1() {
    println!("E1 — behavioural equivalence of model-based vs handcrafted Broker (§VII-A)");
    println!("---------------------------------------------------------------------------");
    println!("{:<42} {:>9} {:>12}", "scenario", "commands", "equivalent");
    let r = e1::run(2024);
    for row in &r.rows {
        println!(
            "{:<42} {:>9} {:>12}",
            row.scenario, row.commands, row.equivalent
        );
    }
    save(&r.artifact());
    println!(
        "\n  paper: identical command sequences for all scenarios\n  measured: {} / {} scenarios equivalent -> {}\n",
        r.rows.iter().filter(|row| row.equivalent).count(),
        r.rows.len(),
        if r.all_equivalent { "REPRODUCED" } else { "DIVERGED" }
    );
}

fn run_e2() {
    println!("E2 — model-interpretation overhead across the 8 scenarios (§VII-A)");
    println!("-------------------------------------------------------------------");
    // The work level at which per-call service work dominates like the
    // paper's testbed (see ablation A3).
    let result = e2::run(2024, 10_000, 40);
    println!(
        "{:<42} {:>14} {:>14} {:>10}",
        "scenario", "handcrafted", "model-based", "overhead"
    );
    for r in &result.rows {
        println!(
            "{:<42} {:>11} us {:>11} us {:>9.1}%",
            r.scenario, r.handcrafted_us as u64, r.model_based_us as u64, r.overhead_pct
        );
    }
    println!(
        "\n  paper: model-based version ~17% slower on average\n  measured: {:.1}% mean overhead\n",
        result.mean_overhead_pct
    );
}

fn run_e3() {
    println!("E3 — intent-model generation cycle amortization (§VII-B)");
    println!("---------------------------------------------------------");
    let r = e3::run(100_000);
    println!(
        "  repository: {} curated procedures; generated IM spans {} nodes",
        r.procedures, r.im_size
    );
    println!(
        "  first full cycle (generation+validation+selection): {:.3} ms",
        r.first_cycle_us / 1000.0
    );
    println!("\n{:>10} {:>16}", "cycles", "avg per cycle");
    for p in &r.series {
        println!("{:>10} {:>13.3} us", p.cycles, p.avg_us);
    }
    let last = r.series.last().unwrap();
    println!(
        "\n  paper: first cycle < 120 ms; average -> ~1 ms approaching 100k cycles\n  measured: first {:.3} ms; avg at {} cycles {:.3} us ({}x amortization)\n",
        r.first_cycle_us / 1000.0,
        last.cycles,
        last.avg_us,
        (r.first_cycle_us / last.avg_us) as u64
    );
}

fn run_e4() {
    println!("E4 — adaptive vs non-adaptive Controller response time (§VII-B)");
    println!("----------------------------------------------------------------");
    let d = e4::dynamic(2024);
    println!("  dynamic scenario (media engine down; virtual time):");
    println!(
        "    adaptive    : {:>8.1} ms  completed={}",
        d.adaptive_ms, d.adaptive_completed
    );
    println!(
        "    non-adaptive: {:>8.1} ms  completed={}",
        d.nonadaptive_ms, d.nonadaptive_completed
    );
    println!("    speedup     : {:>8.2}x", d.speedup);
    let s = e4::static_scenario(2024, 25);
    println!("  static scenario (healthy services; wall clock, cold engines):");
    println!("    adaptive    : {:>8.1} us per command", s.adaptive_us);
    println!("    non-adaptive: {:>8.1} us per command", s.nonadaptive_us);
    println!("    slowdown    : {:>8.2}x", s.slowdown);
    println!(
        "\n  paper: ~800 ms adaptive vs ~4000 ms non-adaptive when adaptation helps;\n         adaptive measurably slower otherwise\n  measured: {:.0} ms vs {:.0} ms ({:.1}x); static slowdown {:.2}x\n",
        d.adaptive_ms, d.nonadaptive_ms, d.speedup, s.slowdown
    );
}

fn run_e5() {
    println!("E5 — lines-of-code reduction from separating domain concerns (§VII-B)");
    println!("----------------------------------------------------------------------");
    match e5::run() {
        Ok(r) => {
            println!("{:<36} {:>8} {:>10}", "file", "LoC", "raw lines");
            println!(
                "{:<36} {:>8} {:>10}",
                r.monolithic.file, r.monolithic.loc, r.monolithic.raw_lines
            );
            println!(
                "{:<36} {:>8} {:>10}",
                r.artifacts.file, r.artifacts.loc, r.artifacts.raw_lines
            );
            println!(
                "\n  paper: 1402 -> 1176 LoC ({:.1}% reduction)\n  measured: {} -> {} LoC ({:.1}% reduction)\n",
                (1402.0 - 1176.0) / 1402.0 * 100.0,
                r.monolithic.loc,
                r.artifacts.loc,
                r.reduction_pct
            );
        }
        Err(e) => println!("  E5 skipped: {e}"),
    }
}
