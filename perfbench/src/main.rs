//! Throughput benchmark of the NUBA simulator.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload dense_sgemm --seed 42 --seconds 20 --trace 0
//! ```
//!
//! One run simulates one workload in this process for about
//! `--seconds`, checks every job's output, and prints as its last line
//! a JSON object with the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics (`--trace 1`). `--steadiness N` instead runs every
//! workload N times, interleaved, each in its own process, and prints
//! the spread of each end-to-end metric. See README.md.

mod checks;
mod clock;
mod layers;
mod stats;
mod suite;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use stats::{median, quartiles, tail_or_median};
use suite::{Ctx, Round, Shape};

/// End-to-end metrics: name and unit.
const END_TO_END: [(&str, &str); 5] = [
    ("sim_cycles_per_s", "cycles/s"),
    ("warp_ops_per_s", "ops/s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

struct Args {
    shape: Shape,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: nuba-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         nuba-perfbench --steadiness <rounds> --seconds <s>",
        Shape::ALL.map(Shape::name).join("|")
    );
    ExitCode::from(2)
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn main() -> ExitCode {
    // The harness reads `NUBA_*` knobs from the environment; the
    // benchmark's inputs come from its arguments alone.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("NUBA_") {
            std::env::remove_var(key);
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seconds = flag(&args, "--seconds").and_then(|s| s.parse::<f64>().ok());
    if let Some(rounds) = flag(&args, "--steadiness") {
        let (Ok(rounds), Some(seconds)) = (rounds.parse::<usize>(), seconds) else {
            return usage();
        };
        return steadiness(rounds, seconds);
    }
    let seed = flag(&args, "--seed").and_then(|s| s.parse::<u64>().ok());
    let shape = flag(&args, "--workload").and_then(Shape::parse);
    let trace = match flag(&args, "--trace") {
        Some("0") | None => Some(false),
        Some("1") => Some(true),
        Some(_) => None,
    };
    let (Some(shape), Some(seed), Some(seconds), Some(trace)) = (shape, seed, seconds, trace)
    else {
        return usage();
    };
    if !(seconds > 0.0 && seconds.is_finite()) {
        return usage();
    }
    run(Args {
        shape,
        seed,
        seconds,
        trace,
    })
}

fn run(args: Args) -> ExitCode {
    let start = Instant::now();
    let mut ctx = Ctx::new(args.shape, args.seed);
    let mut rounds: Vec<Round> = Vec::new();
    // A traced run alternates untraced and traced rounds, so the same
    // process measures what tracing costs.
    let min_rounds = if args.trace { 2 } else { 1 };
    // Peak memory by the end of the first round, so that it does not
    // depend on how many rounds fit in the run.
    let mut rss = None;
    loop {
        let index = rounds.len();
        let traced = args.trace && index % 2 == 1;
        ctx.tracer.set_enabled(traced);
        let s = ctx.tracer.begin("round", "bench");
        let r = suite::round(&mut ctx, index, traced);
        ctx.tracer.end(s);
        ctx.tracer.set_enabled(false);
        if let Some(first) = rounds.first() {
            ctx.checks.expect(first.digest == r.digest, || {
                format!(
                    "round {index} digest {:016x} differs from round 0",
                    r.digest
                )
            });
        }
        eprintln!(
            "round {index}{}: {:.0} cycles/s, {:.0} ops/s, cpu {:.4} s (wall {:.4} s), setup {:.4} s",
            if traced { " (traced)" } else { "" },
            r.cycles_per_s,
            r.warp_ops_per_s,
            r.cpu_s,
            r.wall_s,
            r.setup_s
        );
        let last_s = r.total_s;
        rounds.push(r);
        if rounds.len() == 1 {
            rss = peak_rss_mib();
        }
        let elapsed = start.elapsed().as_secs_f64();
        // Stop where the next round would end further past the budget
        // than this one ends short of it.
        if rounds.len() >= min_rounds && elapsed + last_s / 2.0 > args.seconds {
            break;
        }
    }

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        ctx.tracer.set_enabled(true);
        if args.shape != Shape::MatrixFast {
            suite::runner_replay(&mut ctx);
        }
        let replays = layers::replay(&ctx.last_reports, &mut ctx.tracer);
        metrics = per_layer(&ctx, &rounds, &replays);
        write_trace(&ctx, &args);
    } else {
        let of = |f: fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
        ctx.checks
            .expect(rss.is_some(), || "VmHWM unreadable".into());
        let values = [
            of(|r| r.cycles_per_s),
            of(|r| r.warp_ops_per_s),
            of(|r| r.cpu_s),
            of(|r| r.setup_s),
            rss.unwrap_or(f64::NAN),
        ];
        for ((name, unit), v) in END_TO_END.into_iter().zip(values) {
            metrics.push((name, v, unit));
        }
    }

    let attempted: u64 = rounds.iter().map(|r| r.jobs).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    let correct = ctx.checks.failures().is_empty();
    for f in ctx.checks.failures() {
        eprintln!("CHECK FAILED: {f}");
    }
    println!(
        "digest {} seed={} {:016x}",
        args.shape.name(),
        args.seed,
        rounds[0].digest
    );
    println!(
        "rounds {} traced {} attempted {attempted} failed {failed} checks {}",
        rounds.len(),
        rounds.iter().filter(|r| r.traced).count(),
        if correct { "passed" } else { "FAILED" }
    );
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // JSON has no NaN or infinity.
        let value = if value.is_finite() {
            value.to_string()
        } else {
            "null".to_string()
        };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    println!("{json}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every per-layer metric from the traced rounds, the replays and the
/// runner, plus the tracing overhead.
fn per_layer<'a>(ctx: &Ctx, rounds: &[Round], r: &layers::Replays) -> Vec<(&'a str, f64, &'a str)> {
    let tr = &ctx.tracer;
    let l = &ctx.layers;
    let med = |name: &str| median(&tr.durations_ms(name));
    let chunks = tr.durations_ms("run_window");
    let cpu = |traced: bool| {
        median(
            &rounds
                .iter()
                .filter(|r| r.traced == traced)
                .map(|r| r.cpu_s)
                .collect::<Vec<_>>(),
        )
    };
    vec![
        ("workloads.build_ms", med("workload_build"), "ms"),
        ("workloads.stream_ns_per_op", r.stream_ns_per_op, "ns"),
        ("core.session_build_ms", med("session_build"), "ms"),
        ("core.warm_ms", med("warm"), "ms"),
        (
            "core.run_ns_per_cycle",
            l.run_s * 1e9 / l.run_cycles.max(1) as f64,
            "ns",
        ),
        (
            "core.run_ns_per_warp_op",
            l.run_s * 1e9 / l.run_warp_ops.max(1) as f64,
            "ns",
        ),
        ("core.chunk_ms_p50", median(&chunks), "ms"),
        ("core.chunk_ms_p90", tail_or_median(&chunks, 0.9), "ms"),
        ("core.stepped_cycles", median(&l.stepped), "cycles"),
        ("core.skipped_share", median(&l.skipped_share), "ratio"),
        ("core.report_ms", med("report"), "ms"),
        ("core.checkpoint_ms", med("checkpoint"), "ms"),
        ("core.restore_ms", med("restore"), "ms"),
        ("core.checkpoint_kib", median(&l.checkpoint_kib), "KiB"),
        ("cache.l1_probe_ns", r.l1_probe_ns, "ns"),
        ("cache.llc_probe_ns", r.llc_probe_ns, "ns"),
        ("tlb.lookup_ns", r.tlb_lookup_ns, "ns"),
        ("driver.map_ns", r.driver_map_ns, "ns"),
        ("noc.xbar_tick_ns", r.xbar_tick_ns, "ns"),
        ("dram.mc_tick_ns", r.mc_tick_ns, "ns"),
        ("engine.link_tick_ns", r.link_tick_ns, "ns"),
        ("runner.job_s_p50", median(&l.runner_job_s), "s"),
        (
            "runner.job_s_p75",
            tail_or_median(&l.runner_job_s, 0.75),
            "s",
        ),
        (
            "runner.pool_busy_share",
            median(&l.pool_busy_share),
            "ratio",
        ),
        (
            "runner.warm_reuse_share",
            median(&l.warm_reuse_share),
            "ratio",
        ),
        ("trace.cpu_ratio", cpu(true) / cpu(false), "ratio"),
    ]
}

/// Write the Chrome trace and the per-layer self-time summary under
/// `.bench_out/`, and print the summary.
fn write_trace(ctx: &Ctx, args: &Args) {
    let mut summary = String::from("layer            spans     self_s\n");
    for (layer, (count, secs)) in ctx.tracer.self_time_by_layer() {
        let _ = writeln!(summary, "{layer:<14} {count:>7} {secs:>10.4}");
    }
    print!("{summary}");
    let dir = std::path::Path::new(".bench_out");
    let stem = format!("{}-seed{}", args.shape.name(), args.seed);
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| {
            std::fs::write(
                dir.join(format!("{stem}.trace.json")),
                ctx.tracer.chrome_json(),
            )
        })
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.layers.txt")), &summary));
    if let Err(e) = written {
        eprintln!("cannot write the trace under .bench_out: {e}");
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Value of metric `name` in a result line printed by [`run`].
fn metric_value(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

/// Run every workload `rounds` times, interleaved, each in its own
/// process with seeds `1..=rounds`, and print the spread of each
/// end-to-end metric.
fn steadiness(rounds: usize, seconds: f64) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this program's path: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut values: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); END_TO_END.len()]; Shape::ALL.len()];
    for round in 0..rounds {
        let seed = round as u64 + 1;
        for (w, shape) in Shape::ALL.iter().enumerate() {
            let out = std::process::Command::new(&exe)
                .args(["--workload", shape.name(), "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", "0"])
                .output();
            let out = match out {
                Ok(o) if o.status.success() => o,
                Ok(o) => {
                    eprintln!("{} seed {seed} failed: {}", shape.name(), o.status);
                    return ExitCode::FAILURE;
                }
                Err(e) => {
                    eprintln!("cannot start {}: {e}", exe.display());
                    return ExitCode::FAILURE;
                }
            };
            let stdout = String::from_utf8_lossy(&out.stdout);
            let last = stdout.lines().last().unwrap_or_default();
            let mut line = format!("run {round} {} seed {seed}:", shape.name());
            for (m, (name, _)) in END_TO_END.iter().enumerate() {
                if let Some(v) = metric_value(last, name) {
                    values[w][m].push(v);
                    let _ = write!(line, " {name}={v}");
                }
            }
            eprintln!("{line}");
        }
    }
    println!(
        "{:<14} {:<17} {:>5} {:>14} {:>14} {:>14} {:>14} {:>14} {:>8}",
        "workload", "metric", "n", "median", "q1", "q3", "min", "max", "iqr/med"
    );
    for (w, shape) in Shape::ALL.iter().enumerate() {
        for (m, (name, _)) in END_TO_END.iter().enumerate() {
            let v = &values[w][m];
            let (q1, q3) = quartiles(v);
            let med = median(v);
            let min = v.iter().copied().fold(f64::INFINITY, f64::min);
            let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            println!(
                "{:<14} {:<17} {:>5} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>8.4}",
                shape.name(),
                name,
                v.len(),
                med,
                q1,
                q3,
                min,
                max,
                (q3 - q1) / med
            );
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_values_parse_from_the_result_line() {
        let line = "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
                    {\"cpu_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
                    \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}";
        assert_eq!(metric_value(line, "cpu_s"), Some(1.25));
        assert_eq!(metric_value(line, "setup_s"), Some(0.5));
        assert_eq!(metric_value(line, "peak_rss_mib"), None);
    }
}
