//! End-to-end benchmark of the Monte-Carlo fault simulator on the paper's
//! image protocol. See `README.md` in this directory for the workloads, the
//! metrics and how to run it.

pub mod check;
pub mod report;
pub mod trace;
pub mod workloads;

use check::{Failure, PointKey, Reference};
use invnorm_tensor::telemetry::{
    Counter, Phase, Telemetry, COUNTERS, COUNTER_COUNT, PHASES, PHASE_COUNT,
};
use report::{median, Metric};
use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use std::time::Instant;
use trace::PhaseTimes;
use workloads::{Bench, ProbeTotals, SetupTimes, Workload, LEVELS, POOL};

/// Set-up repeats until at least this many set-ups…
pub const MIN_SETUPS: usize = 7;
/// …and at least this much set-up time; `setup_s` is their median.
pub const MIN_SETUP_SECONDS: f64 = 1.0;
/// The flag that makes the executable run one set-up, print its
/// [`SetupTimes::line`] and exit.
pub const SETUP_ONCE_FLAG: &str = "--setup-once";

/// Command-line options of a measuring run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload to run.
    pub workload: Workload,
    /// Workload seed: chooses the order of strengths and the chip seeds.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Whether to add the traced phase and report per-layer metrics.
    pub trace: bool,
}

/// The order in which a run visits points: whole cycles over the five
/// strengths (so every run holds each strength equally often), each cycle
/// shuffled and each point given a chip-seed slot, all from the seed.
pub struct Schedule(invnorm_tensor::Rng);

impl Schedule {
    /// The schedule of a workload seed.
    pub fn new(seed: u64) -> Self {
        Self(invnorm_tensor::Rng::seed_from(seed ^ 0x5EED_5EED_5EED_5EED))
    }

    /// The next cycle of `LEVELS` points.
    pub fn next_cycle(&mut self) -> Vec<PointKey> {
        let mut levels: Vec<usize> = (0..LEVELS).collect();
        self.0.shuffle(&mut levels);
        levels
            .into_iter()
            .map(|level| PointKey {
                level,
                slot: self.0.index(POOL),
            })
            .collect()
    }
}

/// One timed point.
#[derive(Debug)]
pub struct Point {
    /// Which point.
    pub key: PointKey,
    /// Wall time of the evaluate or engine call.
    pub wall_ns: u64,
    /// Per-run metrics, or the call's error.
    pub result: Result<Vec<f32>, String>,
}

/// A phase of back-to-back points.
#[derive(Debug, Default)]
pub struct PhaseRun {
    /// The points, in order.
    pub points: Vec<Point>,
    /// Process CPU seconds spent during the phase.
    pub cpu_s: f64,
}

impl PhaseRun {
    /// Chip instances completed (points that returned metrics).
    pub fn instances(&self) -> usize {
        self.points
            .iter()
            .filter_map(|p| p.result.as_ref().ok())
            .map(Vec::len)
            .sum()
    }

    /// Completed instances per second of point wall time: the median over
    /// the phase's whole cycles (one point per strength each) of the
    /// cycle's instances over its summed point wall time. A trailing
    /// partial cycle counts only when there is no whole one.
    pub fn instances_per_s(&self) -> f64 {
        let rate = |points: &[Point]| {
            let instances: usize = points
                .iter()
                .filter_map(|p| p.result.as_ref().ok())
                .map(Vec::len)
                .sum();
            let wall: u64 = points.iter().map(|p| p.wall_ns).sum();
            instances as f64 * 1e9 / wall.max(1) as f64
        };
        let cycles: Vec<f64> = self.points.chunks_exact(LEVELS).map(rate).collect();
        if cycles.is_empty() {
            rate(&self.points)
        } else {
            median(&cycles)
        }
    }
}

/// Runs points back to back, in schedule order, until `seconds` have
/// passed. With `traced` set, telemetry is reset before and harvested after
/// every point.
fn run_phase(
    bench: &Bench,
    schedule: &mut Schedule,
    seconds: f64,
    mut traced: Option<&mut Traced>,
) -> PhaseRun {
    let start = Instant::now();
    let cpu0 = report::cpu_seconds();
    let mut run = PhaseRun::default();
    'phase: loop {
        for key in schedule.next_cycle() {
            if !run.points.is_empty() && start.elapsed().as_secs_f64() >= seconds {
                break 'phase;
            }
            let mut model = bench.point_model();
            if traced.is_some() {
                Telemetry::reset();
            }
            let t = Instant::now();
            let result = bench.simulate(key, bench.runs(), &mut model);
            let wall_ns = t.elapsed().as_nanos() as u64;
            if let Some(traced) = traced.as_deref_mut() {
                traced.harvest(bench);
            }
            run.points.push(Point {
                key,
                wall_ns,
                result: result.map_err(|e| e.to_string()),
            });
        }
    }
    run.cpu_s = report::cpu_seconds() - cpu0;
    run
}

/// Per-layer totals of the traced phase.
#[derive(Debug, Default)]
pub struct Traced {
    /// Telemetry phase times over every traced point.
    pub phases: PhaseTimes,
    /// Telemetry span counts, indexed by `Phase as usize`.
    pub hits: [u64; PHASE_COUNT],
    /// Telemetry counters, indexed by `Counter as usize`.
    pub counters: [u64; COUNTER_COUNT],
    /// The benchmark's own closure timers.
    pub probes: ProbeTotals,
    /// Trace events lost to ring wrap-around.
    pub dropped_events: u64,
    /// The last point's chrome trace.
    pub last_trace: String,
    /// Trace parsing problems.
    pub errors: Vec<String>,
}

impl Traced {
    fn harvest(&mut self, bench: &Bench) {
        let snap = Telemetry::snapshot();
        for phase in PHASES {
            self.hits[phase as usize] += snap.phase_hits(phase);
        }
        for counter in COUNTERS {
            self.counters[counter as usize] += snap.counter(counter);
        }
        self.dropped_events += Telemetry::dropped_events();
        self.last_trace = Telemetry::chrome_trace();
        match trace::phase_times(&self.last_trace) {
            Ok(t) => self.phases.add(&t),
            Err(e) => self.errors.push(e),
        }
        self.probes.add(&bench.probes.take());
    }

    fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Measurement {
    /// Set-up times of every set-up.
    pub setups: Vec<SetupTimes>,
    /// The untraced timed phase.
    pub untraced: PhaseRun,
    /// Peak RSS after the untraced phase.
    pub peak_rss_mib: f64,
    /// Verdict per timed point, untraced then traced (`None` = passed).
    pub failures: Vec<Option<Failure>>,
    /// The traced phase (traced runs only).
    pub traced_run: PhaseRun,
    /// Per-layer totals of the traced phase.
    pub traced: Traced,
    /// Worker threads per engine call.
    pub threads: usize,
    /// Whether the points run on engine worker threads.
    pub engine: bool,
    /// Batched-plan arena of the workload's model, MiB.
    pub arena_mib: f64,
    /// GEMM throughput at the model's largest shape, GFLOP/s.
    pub gflops: f64,
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

impl Measurement {
    /// `setup_s` … `peak_rss_mb`: the metrics of the untraced run.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let instances = self.untraced.instances();
        let walls: Vec<f64> = self
            .untraced
            .points
            .iter()
            .map(|p| p.wall_ns as f64)
            .collect();
        let setups: Vec<f64> = self
            .setups
            .iter()
            .map(|s| s.total_ns as f64 / 1e9)
            .collect();
        vec![
            Metric::new("setup_s", "s", median(&setups)),
            Metric::new("instances_per_s", "1/s", self.untraced.instances_per_s()),
            Metric::new("point_ms_p50", "ms", ms(median(&walls))),
            Metric::new(
                "cpu_ms_per_instance",
                "ms",
                self.untraced.cpu_s * 1e3 / instances.max(1) as f64,
            ),
            Metric::new("peak_rss_mb", "MiB", self.peak_rss_mib),
        ]
    }

    /// Every timed point: the untraced phase's, then the traced phase's.
    pub fn points(&self) -> impl Iterator<Item = &Point> {
        self.untraced.points.iter().chain(&self.traced_run.points)
    }

    /// Failed points over attempted points.
    pub fn failed_frac(&self) -> f64 {
        check::failed_frac(&self.failures)
    }

    /// Whether there were timed points and every one passed its check.
    pub fn correct(&self) -> bool {
        !self.failures.is_empty() && self.failures.iter().all(Option::is_none)
    }

    /// The traced run's per-point self-time table: `(row, ms per point)`,
    /// ending with the `unattributed` remainder. The rows add up to the
    /// point's wall time, times the engine threads for engine workloads
    /// (whose spans are summed over worker threads).
    pub fn self_times(&self) -> Vec<(&'static str, f64)> {
        let t = &self.traced;
        let n = self.traced_run.points.len().max(1) as f64;
        let per = |ns: u64| ms(ns as f64) / n;
        let wall: u64 = self.traced_run.points.iter().map(|p| p.wall_ns).sum();
        let capacity = wall * if self.engine { self.threads as u64 } else { 1 };
        let phase_rows = [
            ("nn.plan.compile", Phase::Compile),
            ("tensor.gemm.pack", Phase::Pack),
            ("tensor.gemm.repack", Phase::Repack),
            ("imc.injector.inject", Phase::Inject),
            ("nn.plan.forward (self)", Phase::Forward),
            ("tensor.gemm", Phase::Gemm),
            ("tensor.conv.im2col", Phase::Im2col),
        ];
        let mut rows: Vec<(&'static str, f64)> = phase_rows
            .iter()
            .map(|&(name, phase)| (name, per(t.phases.self_time(phase))))
            .collect();
        let roots = t.phases.root_total();
        let covered = if self.engine {
            // The metric closure runs inside the engine's metric span; the
            // factory runs on the workers outside any span.
            let metric_self = t.phases.self_time(Phase::Metric);
            rows.push((
                "imc.montecarlo.metric (self)",
                per(metric_self.saturating_sub(t.probes.metric_ns)),
            ));
            rows.push(("metric closure", per(t.probes.metric_ns)));
            rows.push(("models.factory", per(t.probes.factory_ns)));
            roots + t.probes.factory_ns
        } else {
            // Forward passes happen inside the metric closure; injection
            // happens inside evaluate, outside the closure.
            let inject = t.phases.root(Phase::Inject);
            let in_metric = roots - inject;
            rows.push((
                "core.bayes (self)",
                per(t.probes.metric_ns.saturating_sub(in_metric)),
            ));
            // Evaluate minus metric minus inject: restore and loop glue.
            rows.push((
                "bench.faults.evaluate (self)",
                per(t
                    .probes
                    .evaluate_ns
                    .saturating_sub(t.probes.metric_ns + inject)),
            ));
            // This path opens no metric spans; a future one would show here.
            rows.push((
                "imc.montecarlo.metric (self)",
                per(t.phases.self_time(Phase::Metric)),
            ));
            t.probes.evaluate_ns
        };
        rows.push(("unattributed", per(capacity) - per(covered)));
        rows
    }

    /// The per-layer metrics of the traced run, per traced point.
    pub fn per_layer(&self) -> Vec<Metric> {
        let t = &self.traced;
        let n = self.traced_run.points.len().max(1) as f64;
        let per = |ns: u64| ms(ns as f64) / n;
        let count = |c: Counter| t.counter(c) as f64 / n;
        let setup = |f: fn(&SetupTimes) -> u64| {
            ms(median(
                &self.setups.iter().map(|s| f(s) as f64).collect::<Vec<_>>(),
            ))
        };
        let walls: u64 = self.traced_run.points.iter().map(|p| p.wall_ns).sum();
        let hits = t.counter(Counter::FrozenInputHits) as f64;
        let lookups = hits + t.counter(Counter::FrozenInputMisses) as f64;
        let unattributed = self.self_times().last().map_or(0.0, |&(_, v)| v);
        let (evaluate, metric, inject_restore) = if self.engine {
            (0.0, 0.0, 0.0)
        } else {
            (
                per(t.probes.evaluate_ns),
                per(t.probes.metric_ns),
                per(t.probes.evaluate_ns.saturating_sub(t.probes.metric_ns)),
            )
        };
        vec![
            Metric::new("datasets.generate_ms", "ms", setup(|s| s.generate_ns)),
            Metric::new("nn.train.fit_ms", "ms", setup(|s| s.fit_ns)),
            Metric::new("quant.quantize_ms", "ms", setup(|s| s.quantize_ns)),
            Metric::new("bench.faults.evaluate_ms", "ms", evaluate),
            Metric::new("core.bayes.metric_ms", "ms", metric),
            Metric::new(
                "core.bayes.metric_calls",
                "count",
                if self.engine {
                    0.0
                } else {
                    t.probes.metric_calls as f64 / n
                },
            ),
            Metric::new("imc.inject_restore_ms", "ms", inject_restore),
            Metric::new(
                "imc.injector.inject_ms",
                "ms",
                per(t.phases.inclusive(Phase::Inject)),
            ),
            Metric::new(
                "imc.injector.cell_scatters",
                "count",
                count(Counter::CellScatters),
            ),
            Metric::new(
                "tensor.gemm.gemm_ms",
                "ms",
                per(t.phases.inclusive(Phase::Gemm)),
            ),
            Metric::new(
                "tensor.gemm.calls",
                "count",
                t.hits[Phase::Gemm as usize] as f64 / n,
            ),
            Metric::new(
                "tensor.conv.im2col_ms",
                "ms",
                per(t.phases.inclusive(Phase::Im2col)),
            ),
            Metric::new(
                "tensor.gemm.pack_ms",
                "ms",
                per(t.phases.inclusive(Phase::Pack)),
            ),
            Metric::new(
                "tensor.gemm.repack_ms",
                "ms",
                per(t.phases.inclusive(Phase::Repack)),
            ),
            Metric::new(
                "tensor.gemm.rows_repacked",
                "count",
                count(Counter::RowsRepacked),
            ),
            Metric::new("tensor.gemm.wide_gemms", "count", count(Counter::WideGemms)),
            Metric::new("tensor.gemm.gflops", "GFLOP/s", self.gflops),
            Metric::new(
                "imc.montecarlo.point_ms",
                "ms",
                if self.engine { per(walls) } else { 0.0 },
            ),
            Metric::new(
                "imc.montecarlo.metric_ms",
                "ms",
                if self.engine {
                    per(t.probes.metric_ns)
                } else {
                    0.0
                },
            ),
            Metric::new(
                "nn.plan.compile_ms",
                "ms",
                per(t.phases.inclusive(Phase::Compile)),
            ),
            Metric::new("models.factory_ms", "ms", per(t.probes.factory_ns)),
            Metric::new(
                "imc.montecarlo.tail_recompiles",
                "count",
                count(Counter::TailRecompiles),
            ),
            Metric::new(
                "imc.montecarlo.ladder_fallbacks",
                "count",
                count(Counter::LadderFallbacks),
            ),
            Metric::new(
                "nn.plan.forward_ms",
                "ms",
                per(t.phases.inclusive(Phase::Forward)),
            ),
            Metric::new(
                "nn.plan.forward_unattributed_ms",
                "ms",
                per(t.phases.self_time(Phase::Forward)),
            ),
            Metric::new(
                "nn.plan.frozen_hit_ratio",
                "ratio",
                if lookups > 0.0 { hits / lookups } else { 0.0 },
            ),
            Metric::new("nn.plan.frozen_lookups", "count", lookups / n),
            Metric::new("nn.plan.arena_mb", "MiB", self.arena_mib),
            Metric::new("unattributed_ms", "ms", unattributed),
            Metric::new(
                "trace.overhead_instances_per_s",
                "1/s",
                self.untraced.instances_per_s() - self.traced_run.instances_per_s(),
            ),
        ]
    }
}

/// Median GFLOP/s of the public `gemm` entry point at `(m, n, k)` on the
/// active kernel tier, over calls totalling about 200 ms.
pub fn gemm_gflops((m, n, k): (usize, usize, usize)) -> f64 {
    let mut rng = invnorm_tensor::Rng::seed_from(7);
    let a = rng.normal_vec(m * k, 0.0, 1.0);
    let b = rng.normal_vec(k * n, 0.0, 1.0);
    let mut c = vec![0.0f32; m * n];
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 5 || start.elapsed().as_millis() < 200 {
        let t = Instant::now();
        invnorm_tensor::gemm::gemm(false, false, m, n, k, 1.0, &a, &b, 0.0, &mut c);
        std::hint::black_box(&mut c);
        samples.push(t.elapsed().as_nanos() as f64);
    }
    2.0 * (m * n * k) as f64 / median(&samples)
}

/// Times set-up (see [`MIN_SETUPS`]) so that every sample is the first
/// set-up of a fresh process and pays the one-time process initialization:
/// child processes of this executable set up one after another, then this
/// process sets up the workload it runs.
///
/// # Errors
///
/// Propagates a set-up failure, in this process or a child.
fn set_up(options: &Options, threads: usize) -> Result<(Bench, Vec<SetupTimes>), String> {
    let start = Instant::now();
    let exe = std::env::current_exe().map_err(|e| format!("current executable: {e}"))?;
    let mut setups = Vec::new();
    while setups.len() + 1 < MIN_SETUPS || start.elapsed().as_secs_f64() < MIN_SETUP_SECONDS {
        let out = Command::new(&exe)
            .args([SETUP_ONCE_FLAG, "--workload", options.workload.name()])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("set-up process: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let times = stdout
            .lines()
            .last()
            .and_then(SetupTimes::parse)
            .filter(|_| out.status.success())
            .ok_or_else(|| format!("set-up process failed ({}): {stdout}", out.status))?;
        setups.push(times);
    }
    let (bench, times) = Bench::setup(options.workload, threads).map_err(|e| e.to_string())?;
    setups.push(times);
    Ok((bench, setups))
}

/// Checks every point against the oracle digest for its key: the recorded
/// one for this tier when there is one, else the oracle recomputed now
/// (outside every timed region).
fn verify<'a>(
    bench: &Bench,
    workload: Workload,
    points: impl Iterator<Item = &'a Point>,
) -> Vec<Option<Failure>> {
    let reference = Reference::recorded();
    let tier = invnorm_tensor::dispatch::active().name();
    let mut oracles: BTreeMap<PointKey, Result<u64, String>> = BTreeMap::new();
    points
        .map(|p| {
            let oracle = oracles.entry(p.key).or_insert_with(|| {
                match reference.get(tier, workload.name(), p.key) {
                    Some(digest) => Ok(digest),
                    None => bench
                        .oracle(p.key)
                        .map(|per_run| check::digest(&per_run))
                        .map_err(|e| e.to_string()),
                }
            });
            check::judge(&p.result, oracle)
        })
        .collect()
}

/// Runs one measurement: set-up, the untraced phase, verification and, for
/// traced runs, the traced phase and the per-layer probes.
///
/// # Errors
///
/// Returns a message when set-up fails.
pub fn measure(options: &Options, threads: usize) -> Result<Measurement, String> {
    let (bench, setups) = set_up(options, threads)?;
    let mut schedule = Schedule::new(options.seed);
    // A traced run splits its time between the untraced and traced phases.
    let seconds = if options.trace {
        options.seconds / 2.0
    } else {
        options.seconds
    };
    let untraced = run_phase(&bench, &mut schedule, seconds, None);
    let peak_rss_mib = report::peak_rss_mib();
    let mut m = Measurement {
        setups,
        untraced,
        peak_rss_mib,
        threads,
        engine: options.workload.uses_engine(),
        ..Measurement::default()
    };
    if options.trace {
        let mut traced = Traced::default();
        bench.probes.set(true);
        Telemetry::enable();
        m.traced_run = run_phase(&bench, &mut schedule, seconds, Some(&mut traced));
        Telemetry::disable();
        bench.probes.set(false);
        m.traced = traced;
        if m.engine {
            m.arena_mib = bench.arena_mib().map_err(|e| e.to_string())?;
        }
        m.gflops = gemm_gflops(bench.largest_gemm());
    }
    m.failures = verify(&bench, options.workload, m.points());
    Ok(m)
}

/// Prints the oracle digest of every point of a workload as reference lines.
///
/// # Errors
///
/// Returns a message when set-up or an oracle fails.
pub fn record(workload: Workload, threads: usize) -> Result<Vec<String>, String> {
    let (bench, _) = Bench::setup(workload, threads).map_err(|e| e.to_string())?;
    let tier = invnorm_tensor::dispatch::active().name();
    let mut lines = Vec::new();
    for level in 0..LEVELS {
        for slot in 0..POOL {
            let key = PointKey { level, slot };
            let per_run = bench.oracle(key).map_err(|e| e.to_string())?;
            lines.push(Reference::line(
                tier,
                workload.name(),
                key,
                check::digest(&per_run),
            ));
        }
    }
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::Json;

    fn declared(section: &str) -> Vec<(String, String)> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).unwrap();
        let Some(Json::Arr(items)) = doc.get(section) else {
            panic!("{section} missing");
        };
        items
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap().to_string(),
                    m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect()
    }

    fn printed(metrics: &[Metric]) -> Vec<(String, String)> {
        let line = report::result_line(true, 1, 0, metrics);
        let Some(Json::Obj(members)) = Json::parse(&line).unwrap().get("metrics").cloned() else {
            panic!("no metrics object");
        };
        members
            .into_iter()
            .map(|(name, v)| {
                (
                    name,
                    v.get("unit").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn every_declared_metric_is_printed_with_its_unit() {
        let m = Measurement::default();
        let mut want = declared("end_to_end");
        let mut got = printed(&m.end_to_end());
        want.sort();
        got.sort();
        assert_eq!(want, got);
        let mut want = declared("per_layer");
        let mut got = printed(&m.per_layer());
        want.sort();
        got.sort();
        assert_eq!(want, got);
    }

    #[test]
    fn declared_workloads_are_the_benchmarked_ones() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        let Some(Json::Arr(items)) = Json::parse(&text).unwrap().get("workloads").cloned() else {
            panic!("workloads missing");
        };
        let names: Vec<String> = items
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        let benchmarked: Vec<String> = Workload::BENCHMARKED
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(names, benchmarked);
    }

    #[test]
    fn schedule_is_seeded_and_balanced() {
        let a: Vec<_> = (0..4).flat_map(|_| Schedule::new(3).next_cycle()).collect();
        let mut s = Schedule::new(3);
        let b: Vec<_> = (0..4).flat_map(|_| s.next_cycle()).collect();
        let mut other = Schedule::new(4);
        let c: Vec<_> = (0..4).flat_map(|_| other.next_cycle()).collect();
        assert_eq!(b.len(), 4 * LEVELS);
        assert_ne!(b, c);
        assert_eq!(a[..LEVELS], b[..LEVELS]);
        for cycle in b.chunks(LEVELS) {
            let mut levels: Vec<usize> = cycle.iter().map(|k| k.level).collect();
            levels.sort();
            assert_eq!(levels, (0..LEVELS).collect::<Vec<_>>());
            assert!(cycle.iter().all(|k| k.slot < POOL));
        }
    }

    #[test]
    fn an_erroring_point_counts_in_failed_frac() {
        let key = PointKey { level: 0, slot: 0 };
        let points = [
            Point {
                key,
                wall_ns: 1,
                result: Ok(vec![0.5]),
            },
            Point {
                key,
                wall_ns: 1,
                result: Err("engine failed".into()),
            },
        ];
        let oracle = Ok(check::digest(&[0.5]));
        let m = Measurement {
            failures: points
                .iter()
                .map(|p| check::judge(&p.result, &oracle))
                .collect(),
            untraced: PhaseRun {
                points: points.into(),
                cpu_s: 0.0,
            },
            ..Measurement::default()
        };
        assert_eq!(m.failed_frac(), 0.5);
        assert_eq!(m.untraced.instances(), 1);
        assert!(!m.correct());
    }

    #[test]
    fn one_mismatching_point_makes_the_run_incorrect() {
        let oracle = Ok(check::digest(&[0.5]));
        let passed = check::judge(&Ok(vec![0.5]), &oracle);
        let flipped = f32::from_bits(0.5f32.to_bits() ^ 1);
        let mismatch = check::judge(&Ok(vec![flipped]), &oracle);
        let run = |failures: Vec<Option<Failure>>| Measurement {
            failures,
            ..Measurement::default()
        };
        assert!(run(vec![passed.clone(), passed.clone()]).correct());
        assert!(!run(vec![passed, mismatch.clone()]).correct());
        assert!(!run(vec![mismatch]).correct());
        assert!(!run(Vec::new()).correct());
    }
}
