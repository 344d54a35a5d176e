//! Fused planned-batched Monte-Carlo fault simulation: compiles the network
//! into a batched plan, evaluates B stacked fault realizations per forward
//! pass, and verifies the result is **bit-identical** to the sequential
//! engine — then prints the wall-clock advantage.
//!
//! Run with `cargo run --release --example batched_monte_carlo`.

use invnorm_imc::fault::FaultModel;
use invnorm_imc::montecarlo::MonteCarloEngine;
use invnorm_nn::activation::Relu;
use invnorm_nn::conv::Conv2d;
use invnorm_nn::layer::Mode;
use invnorm_nn::linear::Linear;
use invnorm_nn::pool::MaxPool2d;
use invnorm_nn::reshape::Flatten;
use invnorm_nn::{NnError, Sequential};
use invnorm_tensor::{Rng, Tensor};
use std::time::Instant;

/// A small CIFAR-shaped CNN built from plan-capable layers.
fn build_cnn(seed: u64) -> Sequential {
    let mut rng = Rng::seed_from(seed);
    Sequential::new()
        .with(Box::new(Conv2d::new(3, 8, 5, 1, 2, &mut rng)))
        .with(Box::new(Relu::new()))
        .with(Box::new(MaxPool2d::new(2)))
        .with(Box::new(Flatten::new()))
        .with(Box::new(Linear::new(8 * 16 * 16, 10, &mut rng)))
}

fn main() -> Result<(), NnError> {
    let x = Tensor::randn(&[8, 3, 32, 32], 0.0, 1.0, &mut Rng::seed_from(3));
    let engine = MonteCarloEngine::new(32, 0xC0FFEE);
    let faults = [
        FaultModel::AdditiveVariation { sigma: 0.1 },
        FaultModel::BitFlip {
            rate: 0.02,
            bits: 8,
        },
        FaultModel::StuckAt { rate: 0.05 },
        FaultModel::Drift {
            nu: 0.05,
            time_ratio: 100.0,
        },
    ];

    println!(
        "Monte-Carlo fault sweep, {} chip instances per point",
        engine.runs()
    );
    println!(
        "{:<22} {:>14} {:>12} {:>12} {:>9}",
        "fault", "mean ± std", "seq (ms)", "batched", "speedup"
    );
    for fault in faults {
        // Sequential reference: one fault realization per forward pass.
        let mut net = build_cnn(11);
        let xs = x.clone();
        let t0 = Instant::now();
        let sequential = engine.run(&mut net, fault, |n| {
            Ok(n.forward(&xs, Mode::Eval)?.abs().mean())
        })?;
        let seq_ms = t0.elapsed().as_secs_f64() * 1e3;

        // Planned-batched engine: up to 16 realizations stacked into each
        // compiled forward pass.
        let t0 = Instant::now();
        let batched = engine.run_planned_batched(
            || build_cnn(11),
            fault,
            &x,
            |out| Ok(out.abs().mean()),
            16,
            4,
        )?;
        let bat_ms = t0.elapsed().as_secs_f64() * 1e3;

        // Same seeds, same streams, same arithmetic: bit-identical metrics.
        assert_eq!(sequential.per_run, batched.per_run, "{fault:?} diverged");
        println!(
            "{:<22} {:>8.4} ± {:>5.4} {:>10.1} {:>10.1} {:>8.2}x",
            fault.label(),
            batched.mean,
            batched.std,
            seq_ms,
            bat_ms,
            seq_ms / bat_ms
        );
    }
    println!("\nevery batched metric column is bit-identical to the sequential engine");
    Ok(())
}
