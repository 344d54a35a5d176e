//! Fully connected (dense) layer.

use crate::error::NnError;
use crate::layer::{BatchedParam, BatchedParamView, Layer, Mode, Param};
use crate::plan::{PlanArenas, PlanCtx, PlanParamView, PlanShape, PlannedWeight};
use crate::Result;
use invnorm_tensor::gemm::{gemm_prepacked, gemm_prepacked_ab, gemm_prepacked_b, ASource, PackedA};
use invnorm_tensor::telemetry;
use invnorm_tensor::{ops, ArenaSlot, Rng, Scratch, Tensor};

/// A fully connected layer computing `y = x Wᵀ + b` for `x: [N, in]`,
/// `W: [out, in]`, `b: [out]`.
///
/// Weights are initialized with Kaiming-uniform scaling
/// (`U(-1/√in, 1/√in)`), the PyTorch default, so conventional baselines train
/// comparably to the paper's.
///
/// # Example
///
/// ```
/// use invnorm_nn::layer::{Layer, Mode};
/// use invnorm_nn::linear::Linear;
/// use invnorm_tensor::{Rng, Tensor};
///
/// # fn main() -> Result<(), invnorm_nn::NnError> {
/// let mut rng = Rng::seed_from(1);
/// let mut fc = Linear::new(8, 3, &mut rng);
/// let x = Tensor::randn(&[4, 8], 0.0, 1.0, &mut rng);
/// assert_eq!(fc.forward(&x, Mode::Eval)?.dims(), &[4, 3]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Linear {
    in_features: usize,
    out_features: usize,
    weight: Param,
    bias: Option<Param>,
    cached_input: Option<Tensor>,
    batched: Option<LinearBatched>,
    plan: Option<LinearPlan>,
}

/// Compiled-plan state: the cached packed weight operand with realization
/// bookkeeping (one panel per stacked realization for batched plans), and
/// the cached packed activation panel for frozen (run-invariant) inputs.
#[derive(Debug)]
struct LinearPlan {
    weight: PlannedWeight,
    packed_a: PackedA,
    a_gen: u64,
    scratch: Scratch,
    /// Stacked realizations per forward (1 for ordinary plans).
    batch: usize,
    /// Staging for the fused wide `[N, B·out]` product of frozen batched
    /// layers, re-strided into per-realization stacking afterwards. Whether
    /// a layer runs frozen is only known at forward time, so every batched
    /// Linear reserves this one output-edge-sized slot even though only a
    /// frozen first layer uses it.
    wide_stage: ArenaSlot,
}

/// Batched-eval state: stacked weight realizations plus the reusable GEMM
/// buffers of the batch-fused forward pass (the wide `[N, B·out]` staging
/// product for shared inputs, the packed activation panel for
/// per-realization inputs).
#[derive(Debug, Default)]
struct LinearBatched {
    weights: BatchedParam,
    packed: PackedA,
    packed_b: Vec<f32>,
    wide: Vec<f32>,
}

impl Linear {
    /// Creates a layer with bias.
    pub fn new(in_features: usize, out_features: usize, rng: &mut Rng) -> Self {
        Self::with_bias(in_features, out_features, true, rng)
    }

    /// Creates a layer, optionally without a bias term.
    pub fn with_bias(in_features: usize, out_features: usize, bias: bool, rng: &mut Rng) -> Self {
        let bound = 1.0 / (in_features as f32).sqrt();
        let weight = Tensor::rand_uniform(&[out_features, in_features], -bound, bound, rng);
        let bias = if bias {
            Some(Param::new(Tensor::rand_uniform(
                &[out_features],
                -bound,
                bound,
                rng,
            )))
        } else {
            None
        };
        Self {
            in_features,
            out_features,
            weight: Param::new(weight),
            bias,
            cached_input: None,
            batched: None,
            plan: None,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Immutable access to the weight parameter (for inspection in tests and
    /// fault injection).
    pub fn weight(&self) -> &Param {
        &self.weight
    }

    /// Immutable access to the bias parameter (used by the quantized-layer
    /// conversion path).
    pub fn bias(&self) -> Option<&Param> {
        self.bias.as_ref()
    }
}

impl Layer for Linear {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        if input.rank() != 2 || input.dims()[1] != self.in_features {
            return Err(NnError::Config(format!(
                "Linear expects input [N, {}], got {:?}",
                self.in_features,
                input.dims()
            )));
        }
        // The input is only needed by backward; skip the clone on the
        // inference hot path (and drop any stale training cache).
        self.cached_input = if mode.is_train() {
            Some(input.clone())
        } else {
            None
        };
        let mut out = ops::matmul_a_bt(input, &self.weight.value)?;
        if let Some(bias) = &self.bias {
            let n = out.dims()[0];
            let c = self.out_features;
            let od = out.data_mut();
            let bd = bias.value.data();
            for i in 0..n {
                for j in 0..c {
                    od[i * c + j] += bd[j];
                }
            }
        }
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let input = self
            .cached_input
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward("Linear"))?;
        // dW += gradᵀ @ x : [out, in] — fused into the gradient tensor with
        // β = 1, avoiding the former temporary + add pass.
        ops::gemm_into(
            true,
            false,
            1.0,
            grad_output,
            input,
            1.0,
            &mut self.weight.grad,
        )?;
        if let Some(bias) = &mut self.bias {
            let grad_b = ops::sum_axis(grad_output, 0)?;
            bias.grad.add_assign(&grad_b)?;
        }
        // dx = grad @ W : [N, in]
        Ok(ops::matmul(grad_output, &self.weight.value)?)
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        visitor(&mut self.weight);
        if let Some(bias) = &mut self.bias {
            visitor(bias);
        }
    }

    fn begin_batched(&mut self, batch: usize) -> Result<()> {
        let state = self.batched.get_or_insert_with(LinearBatched::default);
        state.weights.reset(&self.weight.value, batch);
        Ok(())
    }

    fn end_batched(&mut self) {
        self.batched = None;
    }

    fn visit_batched(&mut self, visitor: &mut dyn FnMut(BatchedParamView<'_>)) {
        if let Some(state) = &mut self.batched {
            visitor(BatchedParamView {
                index: 0,
                clean: &self.weight.value,
                stacked: &mut state.weights,
            });
        }
    }

    fn forward_batched(
        &mut self,
        input: &Tensor,
        shared: bool,
        batch: usize,
        _mode: Mode,
    ) -> Result<(Tensor, bool)> {
        if input.rank() != 2 || input.dims()[1] != self.in_features {
            return Err(NnError::Config(format!(
                "Linear expects input [N, {}], got {:?}",
                self.in_features,
                input.dims()
            )));
        }
        let state = self.batched.as_mut().ok_or_else(|| {
            NnError::Config("Linear::forward_batched called without begin_batched".into())
        })?;
        if state.weights.batch() != batch {
            return Err(NnError::Config(format!(
                "Linear has {} staged weight realizations, expected {batch}",
                state.weights.batch()
            )));
        }
        let rows = input.dims()[0];
        let n = if shared {
            rows
        } else {
            if !rows.is_multiple_of(batch) {
                return Err(NnError::Config(format!(
                    "per-realization input rows {rows} not divisible by batch {batch}"
                )));
            }
            rows / batch
        };
        let (fin, fout) = (self.in_features, self.out_features);
        let mut out = vec![0.0f32; batch * n * fout];
        let LinearBatched {
            weights,
            packed,
            packed_b,
            wide,
        } = state;
        if shared {
            // Fuse the B realizations into ONE wide product: the stacked
            // weights `[B·out, in]` are already contiguous, so
            // `x @ [B·out, in]ᵀ → [N, B·out]` evaluates every realization in
            // a single GEMM. Each output element keeps the per-element
            // k-accumulation order of `ops::matmul_a_bt`, so realization b's
            // columns are bit-identical to a sequential forward on its
            // weights — while the shared activation panel is packed and
            // streamed once instead of B times.
            if wide.len() < n * batch * fout {
                wide.resize(n * batch * fout, 0.0);
            }
            let wide = &mut wide[..n * batch * fout];
            invnorm_tensor::gemm::gemm(
                false,
                true,
                n,
                batch * fout,
                fin,
                1.0,
                input.data(),
                weights.data(),
                0.0,
                wide,
            );
            for b in 0..batch {
                let out_b = &mut out[b * n * fout..][..n * fout];
                for i in 0..n {
                    out_b[i * fout..(i + 1) * fout]
                        .copy_from_slice(&wide[i * batch * fout + b * fout..][..fout]);
                }
            }
        } else {
            for b in 0..batch {
                packed.pack(
                    ASource::Rows(&input.data()[b * n * fin..][..n * fin]),
                    n,
                    fin,
                );
                // y_b = x_b W_bᵀ : same shape and accumulation order as the
                // sequential `ops::matmul_a_bt`, so each realization is
                // bit-identical to a sequential forward on its weights.
                gemm_prepacked(
                    packed,
                    true,
                    fout,
                    1.0,
                    weights.realization(b),
                    0.0,
                    &mut out[b * n * fout..][..n * fout],
                    packed_b,
                );
            }
        }
        if let Some(bias) = &self.bias {
            let bd = bias.value.data();
            for row in out.chunks_exact_mut(fout) {
                for (o, &bv) in row.iter_mut().zip(bd) {
                    *o += bv;
                }
            }
        }
        Ok((Tensor::from_vec(out, &[batch * n, fout])?, false))
    }

    fn plan_compile(&mut self, input: &PlanShape, arenas: &mut PlanArenas) -> Result<PlanShape> {
        let batch = arenas.batch();
        if input.dims.len() != 2
            || input.dims[1] != self.in_features
            || !input.dims[0].is_multiple_of(batch)
        {
            return Err(NnError::Config(format!(
                "Linear expects input [N, {}] (N divisible by the plan batch {batch}), got {:?}",
                self.in_features, input.dims
            )));
        }
        let n = input.dims[0];
        let (fin, fout) = (self.in_features, self.out_features);
        self.plan = Some(LinearPlan {
            weight: PlannedWeight::pack_batched(self.weight.value.data(), fin, fout, batch),
            packed_a: PackedA::new(),
            a_gen: 0,
            scratch: Scratch::new(),
            batch,
            wide_stage: arenas.f.reserve(if batch > 1 { n * fout } else { 0 }),
        });
        Ok(PlanShape {
            slot: arenas.f.reserve(n * fout),
            dims: vec![n, fout],
        })
    }

    fn plan_forward(
        &mut self,
        input: &PlanShape,
        output: &PlanShape,
        ctx: PlanCtx,
        arenas: &mut PlanArenas,
    ) -> Result<()> {
        let state = self.plan.as_mut().ok_or_else(|| {
            NnError::Config("Linear::plan_forward called without plan_compile".into())
        })?;
        let (fin, fout) = (self.in_features, self.out_features);
        let batch = state.batch;
        // Realization b owns rows [b·n, (b+1)·n) of the stacked edges.
        let n = input.dims[0] / batch;
        if ctx.frozen && batch > 1 {
            // Fused wide product: the plan input is constant across runs —
            // and its stacked realizations are tiles of the same activation
            // — so ONE packed panel of the first tile meets the wide stacked
            // weight operand in a single `[N, B·out]` GEMM (full microkernel
            // width, the activation panel streamed once), then the columns
            // are re-strided into per-realization stacking.
            let wide_w = state.weight.refresh_wide();
            let [x, stage, out] = arenas
                .f
                .many_mut([input.slot, state.wide_stage, output.slot]);
            if state.a_gen != ctx.input_gen {
                telemetry::count(telemetry::Counter::FrozenInputMisses, 1);
                state.packed_a.pack(ASource::Rows(&x[..n * fin]), n, fin);
                state.a_gen = ctx.input_gen;
            } else {
                telemetry::count(telemetry::Counter::FrozenInputHits, 1);
            }
            telemetry::count(telemetry::Counter::WideGemms, 1);
            gemm_prepacked_ab(&state.packed_a, wide_w, 1.0, 0.0, stage);
            let ld = batch * fout;
            for b in 0..batch {
                let out_b = &mut out[b * n * fout..][..n * fout];
                for i in 0..n {
                    out_b[i * fout..(i + 1) * fout]
                        .copy_from_slice(&stage[i * ld + b * fout..][..fout]);
                }
            }
            if let Some(bias) = &self.bias {
                let bd = bias.value.data();
                for row in out.chunks_exact_mut(fout) {
                    for (o, &bv) in row.iter_mut().zip(bd) {
                        *o += bv;
                    }
                }
            }
            return Ok(());
        }
        // Bring the cached packed operands up to date with this realization
        // batch (cell scatter / dirty-row re-packing / uniform-scale).
        state.weight.refresh_all();
        let [x, out] = arenas.f.many_mut([input.slot, output.slot]);
        if ctx.frozen {
            // Single-realization frozen plan: one cached activation panel,
            // one cached weight panel.
            if state.a_gen != ctx.input_gen {
                telemetry::count(telemetry::Counter::FrozenInputMisses, 1);
                state.packed_a.pack(ASource::Rows(&x[..n * fin]), n, fin);
                state.a_gen = ctx.input_gen;
            } else {
                telemetry::count(telemetry::Counter::FrozenInputHits, 1);
            }
            for b in 0..batch {
                gemm_prepacked_ab(
                    &state.packed_a,
                    state.weight.panel(b),
                    1.0,
                    0.0,
                    &mut out[b * n * fout..][..n * fout],
                );
            }
        } else {
            for b in 0..batch {
                gemm_prepacked_b(
                    ASource::Rows(&x[b * n * fin..][..n * fin]),
                    n,
                    1.0,
                    state.weight.panel(b),
                    0.0,
                    &mut out[b * n * fout..][..n * fout],
                    &mut state.scratch,
                );
            }
        }
        if let Some(bias) = &self.bias {
            let bd = bias.value.data();
            for row in out.chunks_exact_mut(fout) {
                for (o, &bv) in row.iter_mut().zip(bd) {
                    *o += bv;
                }
            }
        }
        Ok(())
    }

    fn plan_end(&mut self) {
        self.plan = None;
    }

    fn visit_plan_params(&mut self, visitor: &mut dyn FnMut(PlanParamView<'_>)) {
        if let Some(state) = &mut self.plan {
            visitor(state.weight.view(0, &self.weight.value));
        }
    }

    fn name(&self) -> &'static str {
        "Linear"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn numerical_check(bias: bool) {
        let mut rng = Rng::seed_from(10);
        let mut layer = Linear::with_bias(5, 3, bias, &mut rng);
        let x = Tensor::randn(&[2, 5], 0.0, 1.0, &mut rng);
        let y = layer.forward(&x, Mode::Train).unwrap();
        let grad_out = Tensor::ones(y.dims());
        let grad_in = layer.backward(&grad_out).unwrap();

        let eps = 1e-2f32;
        // Input gradient check.
        for idx in [0usize, 3, 7] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let lp = layer.forward(&xp, Mode::Train).unwrap().sum();
            let lm = layer.forward(&xm, Mode::Train).unwrap().sum();
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - grad_in.data()[idx]).abs() < 1e-2,
                "input grad mismatch at {idx}"
            );
        }
        // Weight gradient check.
        let analytic = layer.weight.grad.clone();
        for idx in [0usize, 6, 14] {
            let orig = layer.weight.value.data()[idx];
            layer.weight.value.data_mut()[idx] = orig + eps;
            let lp = layer.forward(&x, Mode::Train).unwrap().sum();
            layer.weight.value.data_mut()[idx] = orig - eps;
            let lm = layer.forward(&x, Mode::Train).unwrap().sum();
            layer.weight.value.data_mut()[idx] = orig;
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - analytic.data()[idx]).abs() < 1e-2,
                "weight grad mismatch at {idx}"
            );
        }
    }

    #[test]
    fn gradients_match_numerical_with_bias() {
        numerical_check(true);
    }

    #[test]
    fn gradients_match_numerical_without_bias() {
        numerical_check(false);
    }

    #[test]
    fn forward_shape_and_bias_effect() {
        let mut rng = Rng::seed_from(3);
        let mut with_bias = Linear::new(4, 2, &mut rng);
        let x = Tensor::zeros(&[1, 4]);
        let y = with_bias.forward(&x, Mode::Eval).unwrap();
        // Zero input → output equals bias.
        let b = with_bias.bias.as_ref().unwrap().value.clone();
        assert!(y.reshape(&[2]).unwrap().approx_eq(&b, 1e-6));
    }

    #[test]
    fn rejects_bad_input_shape() {
        let mut rng = Rng::seed_from(4);
        let mut layer = Linear::new(4, 2, &mut rng);
        assert!(layer.forward(&Tensor::zeros(&[2, 5]), Mode::Eval).is_err());
        assert!(layer.forward(&Tensor::zeros(&[4]), Mode::Eval).is_err());
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut rng = Rng::seed_from(5);
        let mut layer = Linear::new(4, 2, &mut rng);
        assert!(matches!(
            layer.backward(&Tensor::zeros(&[1, 2])),
            Err(NnError::BackwardBeforeForward("Linear"))
        ));
    }

    #[test]
    fn param_count_and_zero_grad() {
        let mut rng = Rng::seed_from(6);
        let mut layer = Linear::new(4, 3, &mut rng);
        assert_eq!(layer.param_count(), 4 * 3 + 3);
        let x = Tensor::randn(&[2, 4], 0.0, 1.0, &mut rng);
        let y = layer.forward(&x, Mode::Train).unwrap();
        layer.backward(&Tensor::ones(y.dims())).unwrap();
        assert!(layer.weight.grad.sq_norm() > 0.0);
        layer.zero_grad();
        assert_eq!(layer.weight.grad.sq_norm(), 0.0);
    }

    #[test]
    fn forward_batched_matches_per_realization_forwards() {
        let mut rng = Rng::seed_from(20);
        let mut layer = Linear::new(6, 3, &mut rng);
        let batch = 4usize;
        let x = Tensor::randn(&[5, 6], 0.0, 1.0, &mut rng);
        layer.begin_batched(batch).unwrap();
        // Perturb each staged realization distinctly.
        layer.visit_batched(&mut |view| {
            assert_eq!(view.index, 0);
            for b in 0..batch {
                for (i, v) in view.stacked.realization_mut(b).iter_mut().enumerate() {
                    *v += (b as f32 + 1.0) * 0.01 * (i % 3) as f32;
                }
            }
        });
        // Shared input: one packed activation panel, B realizations.
        let (out, shared) = layer.forward_batched(&x, true, batch, Mode::Eval).unwrap();
        assert!(!shared);
        assert_eq!(out.dims(), &[batch * 5, 3]);
        // Reference: a fresh Linear whose weights are realization b.
        let stacked: Vec<Vec<f32>> = {
            let mut v = Vec::new();
            layer.visit_batched(&mut |view| {
                for b in 0..batch {
                    v.push(view.stacked.realization(b).to_vec());
                }
            });
            v
        };
        for (b, wb) in stacked.iter().enumerate() {
            let mut reference = Linear::new(6, 3, &mut Rng::seed_from(0));
            reference.weight.value = Tensor::from_vec(wb.clone(), &[3, 6]).unwrap();
            reference.bias = layer.bias.clone();
            let expected = reference.forward(&x, Mode::Eval).unwrap();
            let got = &out.data()[b * 15..(b + 1) * 15];
            let identical = got
                .iter()
                .zip(expected.data().iter())
                .all(|(g, e)| g.to_bits() == e.to_bits());
            assert!(identical, "realization {b} diverged from sequential");
        }
        // Per-realization input path.
        let xs = Tensor::randn(&[batch * 5, 6], 0.0, 1.0, &mut rng);
        let (out2, _) = layer
            .forward_batched(&xs, false, batch, Mode::Eval)
            .unwrap();
        for (b, wb) in stacked.iter().enumerate() {
            let mut reference = Linear::new(6, 3, &mut Rng::seed_from(0));
            reference.weight.value = Tensor::from_vec(wb.clone(), &[3, 6]).unwrap();
            reference.bias = layer.bias.clone();
            let xb = Tensor::from_vec(xs.data()[b * 30..(b + 1) * 30].to_vec(), &[5, 6]).unwrap();
            let expected = reference.forward(&xb, Mode::Eval).unwrap();
            let got = &out2.data()[b * 15..(b + 1) * 15];
            let identical = got
                .iter()
                .zip(expected.data().iter())
                .all(|(g, e)| g.to_bits() == e.to_bits());
            assert!(identical, "per-realization input {b} diverged");
        }
        layer.end_batched();
        assert!(layer.forward_batched(&x, true, batch, Mode::Eval).is_err());
    }

    #[test]
    fn forward_batched_guards() {
        let mut rng = Rng::seed_from(21);
        let mut layer = Linear::new(4, 2, &mut rng);
        // Without begin_batched: loud error.
        assert!(layer
            .forward_batched(&Tensor::zeros(&[2, 4]), true, 2, Mode::Eval)
            .is_err());
        layer.begin_batched(3).unwrap();
        // Batch mismatch.
        assert!(layer
            .forward_batched(&Tensor::zeros(&[2, 4]), true, 2, Mode::Eval)
            .is_err());
        // Per-realization rows not divisible by batch.
        assert!(layer
            .forward_batched(&Tensor::zeros(&[4, 4]), false, 3, Mode::Eval)
            .is_err());
        // Wrong feature count.
        assert!(layer
            .forward_batched(&Tensor::zeros(&[3, 5]), true, 3, Mode::Eval)
            .is_err());
    }

    #[test]
    fn gradients_accumulate_across_backward_calls() {
        let mut rng = Rng::seed_from(7);
        let mut layer = Linear::new(3, 2, &mut rng);
        let x = Tensor::randn(&[2, 3], 0.0, 1.0, &mut rng);
        let y = layer.forward(&x, Mode::Train).unwrap();
        let g = Tensor::ones(y.dims());
        layer.backward(&g).unwrap();
        let first = layer.weight.grad.clone();
        layer.forward(&x, Mode::Train).unwrap();
        layer.backward(&g).unwrap();
        assert!(layer.weight.grad.approx_eq(&first.scale(2.0), 1e-5));
    }
}
