//! The three workloads: their set-up, their sweep points and their oracles.
//!
//! Every workload sweeps the five non-zero fault strengths of a Fig. 5a axis
//! at the standard experiment scale. A point is identified by a
//! [`PointKey`]: the strength, and a slot in a pool of chip seeds whose slot
//! 0 is the seed `fig5_resnet_drive` itself uses for that strength.

use crate::check::PointKey;
use invnorm_bench::faults::{bitflip_for, bitflip_rates, evaluate_under_fault, variation_sweep};
use invnorm_bench::scale::ExperimentScale;
use invnorm_bench::tasks::ImageTask;
use invnorm_imc::fault::FaultModel;
use invnorm_imc::montecarlo::{DegradationPolicy, MonteCarloEngine};
use invnorm_models::{BuiltModel, NormVariant};
use invnorm_nn::checkpoint::{self, Checkpoint};
use invnorm_nn::layer::{Layer, Mode};
use invnorm_nn::linear::Linear;
use invnorm_nn::metrics;
use invnorm_nn::optim::Adam;
use invnorm_nn::train::{self, TrainConfig};
use invnorm_nn::{NnError, Plan, Sequential};
use invnorm_quant::fake_quant::quantize_layer_weights;
use invnorm_tensor::{Rng, Tensor};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Non-zero fault strengths per sweep (Fig. 5a's standard-scale axis).
pub const LEVELS: usize = 5;
/// Chip-seed slots per strength.
pub const POOL: usize = 8;

/// Result type of the program's entry points.
pub type Result<T> = std::result::Result<T, NnError>;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `faults::evaluate_under_fault` on the trained Proposed MicroResNet,
    /// Bayesian accuracy over `mc_passes` passes — the figures' own path.
    PaperFig5,
    /// The same model and bit-flip points through `MonteCarloEngine::run_auto`.
    EngineResnet,
    /// The 512→256 linear probe under additive variation through `run_auto`.
    CrossbarProbe,
}

impl Workload {
    /// Every workload the command line accepts.
    pub const ALL: [Workload; 3] = [
        Workload::PaperFig5,
        Workload::EngineResnet,
        Workload::CrossbarProbe,
    ];

    /// The workloads listed in `BENCHMARK.json`, in its order. A benchmark
    /// workload must pass its correctness check on every point.
    /// `engine_resnet` fails it on every point on this tree (the InvertedNorm
    /// dropout stream depends on the engine worker, ROADMAP item 2(b)), so it
    /// stays a diagnostic workload that reports the mismatch until that is
    /// fixed.
    pub const BENCHMARKED: [Workload; 2] = [Workload::PaperFig5, Workload::CrossbarProbe];

    /// The name used on the command line and in reference data.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperFig5 => "paper_fig5",
            Workload::EngineResnet => "engine_resnet",
            Workload::CrossbarProbe => "crossbar_probe",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether points run through the Monte-Carlo engine (on worker threads).
    pub fn uses_engine(self) -> bool {
        self != Workload::PaperFig5
    }
}

/// `ImageTask::train`'s schedule, replicated so that fitting and
/// quantization can be timed apart (a test pins the two to equal weights).
fn train_config(scale: &ExperimentScale) -> TrainConfig {
    TrainConfig {
        epochs: scale.train_epochs,
        batch_size: 16,
        shuffle: true,
        seed: 9,
    }
}

/// Timers around the benchmark's own closures; they record only while
/// enabled, so the untraced run pays a relaxed load per call.
#[derive(Debug, Default)]
pub struct Probes {
    enabled: AtomicBool,
    metric_ns: AtomicU64,
    metric_calls: AtomicU64,
    factory_ns: AtomicU64,
    evaluate_ns: AtomicU64,
}

/// Totals read from [`Probes`].
#[derive(Debug, Default, Clone, Copy)]
pub struct ProbeTotals {
    /// Nanoseconds inside the metric closure.
    pub metric_ns: u64,
    /// Metric closure calls.
    pub metric_calls: u64,
    /// Nanoseconds inside the engine's model factory.
    pub factory_ns: u64,
    /// Nanoseconds inside `faults::evaluate_under_fault`.
    pub evaluate_ns: u64,
}

impl ProbeTotals {
    /// Adds another set of totals.
    pub fn add(&mut self, other: &ProbeTotals) {
        self.metric_ns += other.metric_ns;
        self.metric_calls += other.metric_calls;
        self.factory_ns += other.factory_ns;
        self.evaluate_ns += other.evaluate_ns;
    }
}

impl Probes {
    /// Turns recording on or off.
    pub fn set(&self, enabled: bool) {
        self.take();
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Reads the totals and zeroes them.
    pub fn take(&self) -> ProbeTotals {
        let take = |slot: &AtomicU64| slot.swap(0, Ordering::Relaxed);
        ProbeTotals {
            metric_ns: take(&self.metric_ns),
            metric_calls: take(&self.metric_calls),
            factory_ns: take(&self.factory_ns),
            evaluate_ns: take(&self.evaluate_ns),
        }
    }

    fn time<R>(&self, ns: &AtomicU64, f: impl FnOnce() -> R) -> R {
        if !self.enabled.load(Ordering::Relaxed) {
            return f();
        }
        let start = Instant::now();
        let out = f();
        ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }

    fn metric<R>(&self, f: impl FnOnce() -> R) -> R {
        self.metric_calls.fetch_add(1, Ordering::Relaxed);
        self.time(&self.metric_ns, f)
    }
}

/// Wall time of the set-up steps, in nanoseconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    /// Dataset (or probe input) generation.
    pub generate_ns: u64,
    /// Training (`train::fit_classifier`).
    pub fit_ns: u64,
    /// Post-training weight quantization.
    pub quantize_ns: u64,
    /// Start of set-up to readiness for the first timed point.
    pub total_ns: u64,
}

impl SetupTimes {
    /// The times as one line, as a set-up process prints them.
    pub fn line(&self) -> String {
        format!(
            "setup-times {} {} {} {}",
            self.total_ns, self.generate_ns, self.fit_ns, self.quantize_ns
        )
    }

    /// Parses a [`SetupTimes::line`].
    pub fn parse(line: &str) -> Option<SetupTimes> {
        let mut fields = line.strip_prefix("setup-times ")?.split(' ');
        let mut next = || fields.next()?.parse().ok();
        let times = SetupTimes {
            total_ns: next()?,
            generate_ns: next()?,
            fit_ns: next()?,
            quantize_ns: next()?,
        };
        fields.next().is_none().then_some(times)
    }
}

fn timed<R>(slot: &mut u64, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = f();
    *slot += start.elapsed().as_nanos() as u64;
    out
}

enum Subject {
    /// The trained Proposed MicroResNet and its image task.
    Resnet { task: ImageTask },
    /// The linear probe's evaluation batch.
    Probe { input: Tensor },
}

/// Seed of the probe's weight initialization.
const PROBE_SEED: u64 = 512;
/// Seed of the probe's evaluation batch.
const PROBE_INPUT_SEED: u64 = 64;

/// A set-up workload, ready to run points.
pub struct Bench {
    workload: Workload,
    subject: Subject,
    checkpoint: Checkpoint,
    faults: [FaultModel; LEVELS],
    runs: usize,
    threads: usize,
    /// Closure timers (enabled in the traced phase only).
    pub probes: Probes,
}

impl Bench {
    /// Builds the workload's model from scratch and warms the process up
    /// with one single-instance point, so the first timed point pays no
    /// one-time initialization.
    ///
    /// # Errors
    ///
    /// Propagates training, quantization or engine errors.
    pub fn setup(workload: Workload, threads: usize) -> Result<(Bench, SetupTimes)> {
        let start = Instant::now();
        // Every workload runs at the figures' default (standard) scale.
        let scale = ExperimentScale::standard();
        let mut times = SetupTimes::default();
        let (subject, checkpoint, faults) = match workload {
            Workload::PaperFig5 | Workload::EngineResnet => {
                let task = timed(&mut times.generate_ns, || ImageTask::prepare(&scale));
                let mut model = task.build(NormVariant::proposed())?;
                timed(&mut times.fit_ns, || {
                    train::fit_classifier(
                        &mut model,
                        &mut Adam::new(0.01),
                        &task.split.train_inputs,
                        &task.split.train_labels,
                        &train_config(&scale),
                    )
                })?;
                let quant = model.quant;
                timed(&mut times.quantize_ns, || {
                    quantize_layer_weights(&mut model, &quant)
                })?;
                let rates = bitflip_rates(0.3, LEVELS);
                let faults = std::array::from_fn(|l| bitflip_for(&model, rates[l + 1]));
                (
                    Subject::Resnet { task },
                    checkpoint::save(&mut model),
                    faults,
                )
            }
            Workload::CrossbarProbe => {
                let input = timed(&mut times.generate_ns, || {
                    Tensor::randn(&[64, 512], 0.0, 1.0, &mut Rng::seed_from(PROBE_INPUT_SEED))
                });
                let sweep = variation_sweep(1.0, LEVELS);
                let faults = std::array::from_fn(|l| sweep[l + 1]);
                (
                    Subject::Probe { input },
                    checkpoint::save(&mut untrained_probe()),
                    faults,
                )
            }
        };
        let bench = Bench {
            workload,
            subject,
            checkpoint,
            faults,
            runs: scale.mc_runs,
            threads,
            probes: Probes::default(),
        };
        let warm = PointKey { level: 0, slot: 0 };
        bench.simulate(warm, 1, &mut bench.point_model())?;
        times.total_ns = start.elapsed().as_nanos() as u64;
        Ok((bench, times))
    }

    /// Chip instances per point.
    pub fn runs(&self) -> usize {
        self.runs
    }

    /// The fault simulated at a point.
    pub fn fault(&self, key: PointKey) -> FaultModel {
        self.faults[key.level]
    }

    /// Base seed of a point's chip instances. Slot 0 is the seed
    /// `fig5_resnet_drive` passes for the same strength (Fig. 5a uses
    /// `50 + level` for bit flips and `150 + level` for variation).
    pub fn chip_seed(&self, key: PointKey) -> u64 {
        let base = match self.workload {
            Workload::PaperFig5 | Workload::EngineResnet => 50,
            Workload::CrossbarProbe => 150,
        };
        base + key.level as u64 + 1 + 1000 * key.slot as u64
    }

    /// Engine stack size: every worker fuses its share of the instances.
    fn stack(&self) -> usize {
        self.runs.div_ceil(self.threads)
    }

    fn input(&self) -> &Tensor {
        match &self.subject {
            Subject::Resnet { task } => &task.split.test_inputs,
            Subject::Probe { input } => input,
        }
    }

    /// The trained ResNet rebuilt from the set-up checkpoint.
    fn resnet(&self, task: &ImageTask) -> BuiltModel {
        let mut model = task
            .build(NormVariant::proposed())
            .expect("the Proposed MicroResNet configuration is valid");
        checkpoint::load(&mut model, &self.checkpoint).expect("checkpoint matches the model");
        model
    }

    /// The probe rebuilt from the set-up checkpoint.
    fn probe(&self) -> Sequential {
        let mut probe = untrained_probe();
        checkpoint::load(&mut probe, &self.checkpoint).expect("checkpoint matches the probe");
        probe
    }

    /// The model a `paper_fig5` point runs on, built before the point is
    /// timed: a fresh copy, so each point's result depends only on its key
    /// (the InvertedNorm dropout stream lives in the model).
    pub fn point_model(&self) -> Option<BuiltModel> {
        match (self.workload, &self.subject) {
            (Workload::PaperFig5, Subject::Resnet { task }) => Some(self.resnet(task)),
            _ => None,
        }
    }

    /// Runs one timed point: `runs` chip instances at `key`. Returns the
    /// per-run metrics.
    ///
    /// # Errors
    ///
    /// Propagates the evaluate or engine call's error.
    pub fn simulate(
        &self,
        key: PointKey,
        runs: usize,
        model: &mut Option<BuiltModel>,
    ) -> Result<Vec<f32>> {
        let fault = self.fault(key);
        let seed = self.chip_seed(key);
        match (&self.subject, model) {
            (Subject::Resnet { task }, Some(model)) => {
                let summary = self.probes.time(&self.probes.evaluate_ns, || {
                    evaluate_under_fault(model, fault, runs, seed, |m| {
                        self.probes.metric(|| task.accuracy(m))
                    })
                })?;
                Ok(summary.per_run)
            }
            (Subject::Resnet { task }, None) => self.run_auto(
                || {
                    self.probes
                        .time(&self.probes.factory_ns, || self.resnet(task))
                },
                key,
                runs,
                |out| {
                    self.probes
                        .metric(|| metrics::accuracy(out, &task.split.test_labels))
                },
            ),
            (Subject::Probe { .. }, _) => self.run_auto(
                || self.probes.time(&self.probes.factory_ns, || self.probe()),
                key,
                runs,
                |out| Ok(self.probes.metric(|| mean(out))),
            ),
        }
    }

    fn run_auto<M: Layer + Send>(
        &self,
        factory: impl Fn() -> M + Sync,
        key: PointKey,
        runs: usize,
        metric: impl Fn(&Tensor) -> Result<f32> + Sync,
    ) -> Result<Vec<f32>> {
        let engine = MonteCarloEngine::new(runs, self.chip_seed(key));
        let outcome = engine.run_auto(
            factory,
            self.fault(key),
            self.input(),
            metric,
            self.stack(),
            self.threads,
            DegradationPolicy::Graceful,
        )?;
        Ok(outcome.summary.per_run)
    }

    /// The reference per-run metrics for a point. For `paper_fig5` this is
    /// the figure path itself on a fresh model; for the engine workloads it
    /// is the sequential oracle `MonteCarloEngine::run` on a fresh model.
    ///
    /// # Errors
    ///
    /// Propagates the oracle's error.
    pub fn oracle(&self, key: PointKey) -> Result<Vec<f32>> {
        if self.workload == Workload::PaperFig5 {
            return self.simulate(key, self.runs, &mut self.point_model());
        }
        let input = self.input();
        let engine = MonteCarloEngine::new(self.runs, self.chip_seed(key));
        let summary = match &self.subject {
            Subject::Resnet { task } => {
                let labels = &task.split.test_labels;
                engine.run(
                    &mut self.resnet(task),
                    self.fault(key),
                    |m: &mut dyn Layer| metrics::accuracy(&m.forward(input, Mode::Eval)?, labels),
                )?
            }
            Subject::Probe { .. } => {
                engine.run(&mut self.probe(), self.fault(key), |m: &mut dyn Layer| {
                    Ok(mean(&m.forward(input, Mode::Eval)?))
                })?
            }
        };
        Ok(summary.per_run)
    }

    /// Elements reserved by a batched plan of the workload's model at the
    /// engine's stack size, in MiB (f32 and i32 arenas at 4 bytes, i8 at 1).
    ///
    /// # Errors
    ///
    /// Propagates plan compilation errors.
    pub fn arena_mib(&self) -> Result<f64> {
        let stack = self.stack();
        let (f, q, acc) = match &self.subject {
            Subject::Resnet { task } => {
                Plan::compile_batched(&mut self.resnet(task), self.input(), stack)?.arena_elements()
            }
            Subject::Probe { .. } => {
                Plan::compile_batched(&mut self.probe(), self.input(), stack)?.arena_elements()
            }
        };
        Ok((4 * f + q + 4 * acc) as f64 / (1024.0 * 1024.0))
    }

    /// The largest GEMM of one forward pass as `(m, n, k)`: for the ResNet
    /// the 16→16 3×3 convolution over the 48-image test batch at 8×8
    /// (out-channels × patches × C·k·k); for the probe its 64×512→256 product.
    pub fn largest_gemm(&self) -> (usize, usize, usize) {
        match &self.subject {
            Subject::Resnet { task } => (16, task.split.test_inputs.dims()[0] * 64, 16 * 9),
            Subject::Probe { .. } => (64, 256, 512),
        }
    }
}

/// The 512→256 linear probe with its seeded initial weights.
fn untrained_probe() -> Sequential {
    Sequential::new().with(Box::new(Linear::new(
        512,
        256,
        &mut Rng::seed_from(PROBE_SEED),
    )))
}

/// Mean output activation (the probe's metric).
pub fn mean(out: &Tensor) -> f32 {
    out.sum() / out.numel().max(1) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replicated_training_matches_image_task_train() {
        let scale = ExperimentScale::quick();
        let task = ImageTask::prepare(&scale);
        let mut reference = task.train(NormVariant::proposed()).unwrap();
        let mut model = task.build(NormVariant::proposed()).unwrap();
        train::fit_classifier(
            &mut model,
            &mut Adam::new(0.01),
            &task.split.train_inputs,
            &task.split.train_labels,
            &train_config(&scale),
        )
        .unwrap();
        let quant = model.quant;
        quantize_layer_weights(&mut model, &quant).unwrap();
        assert_eq!(
            checkpoint::save(&mut model).to_bytes(),
            checkpoint::save(&mut reference).to_bytes()
        );
    }

    #[test]
    fn setup_times_round_trip_through_their_line() {
        let times = SetupTimes {
            generate_ns: 1,
            fit_ns: 22,
            quantize_ns: 333,
            total_ns: 4444,
        };
        let parsed = SetupTimes::parse(&times.line()).unwrap();
        assert_eq!(parsed.line(), times.line());
        assert!(SetupTimes::parse("setup-times 1 2 3").is_none());
        assert!(SetupTimes::parse("setup-times 1 2 3 4 5").is_none());
        assert!(SetupTimes::parse("1 2 3 4").is_none());
    }
}
