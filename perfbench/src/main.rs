//! Command-line entry point; see `README.md` in this directory.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_fig5 --seed 1 --seconds 20 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --record --workload engine_resnet
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --compare a.json b.json
//! ```

use invnorm_perfbench::report::{self, Provenance};
use invnorm_perfbench::workloads::{Bench, Workload};
use invnorm_perfbench::{measure, record, Options, SETUP_ONCE_FLAG};
use std::process::ExitCode;

/// Where results, self-time tables and chrome traces are written.
const OUT_DIR: &str = ".bench_out";

fn usage(msg: &str) -> ExitCode {
    eprintln!("{msg}");
    eprintln!(
        "usage: --workload <paper_fig5|engine_resnet|crossbar_probe> --seed <n> --seconds <s> --trace <0|1>\n       --record --workload <name>\n       --compare <result.json> <result.json>"
    );
    ExitCode::from(2)
}

fn value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--compare") {
        let (Some(a), Some(b)) = (args.get(i + 1), args.get(i + 2)) else {
            return usage("--compare needs two result files");
        };
        let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
        return match read(a).and_then(|a| read(b).and_then(|b| report::compare(&a, &b))) {
            Ok(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            Err(e) => usage(&e),
        };
    }
    let Some(workload) = value(&args, "--workload").and_then(Workload::parse) else {
        return usage("missing or unknown --workload");
    };
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    if args.iter().any(|a| a == SETUP_ONCE_FLAG) {
        return match Bench::setup(workload, threads) {
            Ok((_, times)) => {
                println!("{}", times.line());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("set-up failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if args.iter().any(|a| a == "--record") {
        return match record(workload, threads) {
            Ok(lines) => {
                println!("{}", lines.join("\n"));
                ExitCode::SUCCESS
            }
            Err(e) => usage(&e),
        };
    }
    let (Some(seed), Some(seconds), Some(trace)) = (
        value(&args, "--seed").and_then(|s| s.parse::<u64>().ok()),
        value(&args, "--seconds").and_then(|s| s.parse::<f64>().ok()),
        value(&args, "--trace").and_then(|s| match s {
            "0" => Some(false),
            "1" => Some(true),
            _ => None,
        }),
    ) else {
        return usage("--seed, --seconds and --trace are required");
    };
    let options = Options {
        workload,
        seed,
        seconds,
        trace,
    };
    let provenance = Provenance::collect(threads, seed);
    println!(
        "perfbench workload={} seed={seed} seconds={seconds} trace={}",
        workload.name(),
        u8::from(trace)
    );
    println!("{}", provenance.line());
    let m = match measure(&options, threads) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let attempted = m.failures.len();
    let failed = m.failures.iter().filter(|f| f.is_some()).count();
    let failures = m
        .points()
        .zip(&m.failures)
        .filter_map(|(p, f)| Some((p, f.as_ref()?)));
    for (point, failure) in failures.take(3) {
        println!(
            "failed point level={} slot={}: {failure}",
            point.key.level, point.key.slot
        );
    }
    println!(
        "points={attempted} failed={failed} instances={} set-ups={} (closed loop, {threads} engine threads)",
        m.untraced.instances() + m.traced_run.instances(),
        m.setups.len()
    );
    for metric in m.end_to_end() {
        println!("metric {} {} {}", metric.name, metric.value, metric.unit);
    }
    println!("metric failed_frac {} fraction", m.failed_frac());

    let metrics = if trace {
        let mut table = String::from("self time per traced point");
        table.push_str(if m.engine {
            " (thread-ms: rows sum to point wall x engine threads)\n"
        } else {
            " (ms: rows sum to point wall)\n"
        });
        let rows = m.self_times();
        for (name, v) in &rows {
            table.push_str(&format!("  {name:<32} {v:>12.4}\n"));
        }
        let total: f64 = rows.iter().map(|r| r.1).sum();
        table.push_str(&format!("  {:<32} {total:>12.4}\n", "total"));
        if m.traced.dropped_events > 0 || !m.traced.errors.is_empty() {
            table.push_str(&format!(
                "  trace incomplete: {} events dropped, {} parse errors\n",
                m.traced.dropped_events,
                m.traced.errors.len()
            ));
        }
        print!("{table}");
        println!(
            "tracing overhead: untraced {} - traced {} instances/s = {}",
            m.untraced.instances_per_s(),
            m.traced_run.instances_per_s(),
            m.untraced.instances_per_s() - m.traced_run.instances_per_s()
        );
        let per_layer = m.per_layer();
        for metric in &per_layer {
            println!("layer {} {} {}", metric.name, metric.value, metric.unit);
        }
        let stem = format!("{OUT_DIR}/{}-seed{seed}", workload.name());
        let written = std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(format!("{stem}.selftime.txt"), &table))
            .and_then(|()| std::fs::write(format!("{stem}.chrome.json"), &m.traced.last_trace));
        if let Err(e) = written {
            eprintln!("could not write trace files: {e}");
        }
        per_layer
    } else {
        m.end_to_end()
    };

    let line = report::result_line(m.correct(), attempted, failed, &metrics);
    let file = format!(
        "{OUT_DIR}/{}-seed{seed}-trace{}.json",
        workload.name(),
        u8::from(trace)
    );
    let saved = std::fs::create_dir_all(OUT_DIR).and_then(|()| {
        std::fs::write(
            &file,
            report::result_file(
                workload.name(),
                trace,
                &provenance,
                &m.untraced
                    .points
                    .iter()
                    .map(|p| (p.key.level, p.key.slot, p.wall_ns as f64 / 1e6))
                    .collect::<Vec<_>>(),
                &line,
            ),
        )
    });
    match saved {
        Ok(()) => println!("result saved to {file}"),
        Err(e) => eprintln!("could not save {file}: {e}"),
    }
    println!("{line}");
    ExitCode::SUCCESS
}
