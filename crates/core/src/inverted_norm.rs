//! The inverted normalization layer (paper Sec. III-A), the drop-in
//! replacement for conventional normalization layers after every convolution.
//!
//! Computation order (paper Fig. 2b):
//!
//! 1. **Stochastic affine transformation**: `a = γ̃_c · x + β̃_c`, where the
//!    effective parameters `γ̃, β̃` are the learnable affine parameters after
//!    [affine dropout](crate::affine_dropout) (weights dropped to one, biases
//!    dropped to zero, probability `p`, element- or vector-wise).
//! 2. **Normalization**: `y = (a − μ) / √(σ² + ε)` with statistics computed
//!    per instance over channel groups (`groups == 1` reproduces the
//!    LayerNorm-style behaviour used for most models; `groups == 8` the
//!    GroupNorm-style behaviour used for U-Net). There is **no** affine
//!    transformation after normalization.
//!
//! Because statistics are per-instance, train-time and test-time behaviour is
//! identical, and the layer re-standardizes the weighted sum even when NVM
//! non-idealities shift its distribution (paper Fig. 1) — the second pillar of
//! the method's robustness.

use crate::affine_dropout::{AffineDropout, AffineMasks, DropGranularity};
use crate::init::AffineInit;
use crate::Result;
use invnorm_nn::layer::{Layer, Mode, Param};
use invnorm_nn::norm::NORM_EPS;
use invnorm_nn::NnError;
use invnorm_tensor::{Rng, Tensor};
use serde::{Deserialize, Serialize};

/// Configuration of an [`InvertedNorm`] layer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InvNormConfig {
    /// Affine-dropout probability (the paper uses 0.3 for all models).
    pub drop_probability: f32,
    /// Dropout granularity (the paper uses vector-wise).
    pub granularity: DropGranularity,
    /// Initialization of the affine parameters.
    pub init: AffineInit,
    /// Number of channel groups the normalization statistics are computed
    /// over (1 = per-instance LayerNorm-style, 8 = the U-Net setting).
    pub groups: usize,
    /// Whether affine dropout is also sampled in [`Mode::Eval`]. `true` is
    /// the Bayesian behaviour required for Monte-Carlo inference; `false`
    /// turns the layer into a deterministic inverted normalization.
    pub stochastic_eval: bool,
    /// Seed of the layer's private dropout RNG stream.
    pub seed: u64,
}

impl Default for InvNormConfig {
    fn default() -> Self {
        Self {
            drop_probability: 0.3,
            granularity: DropGranularity::VectorWise,
            init: AffineInit::paper_default(),
            groups: 1,
            stochastic_eval: true,
            seed: 0x1A2B_3C4D,
        }
    }
}

impl InvNormConfig {
    /// The paper's U-Net configuration: statistics over `channels / 8` channel
    /// groups (i.e. 8 groups), everything else at the defaults.
    pub fn grouped(groups: usize) -> Self {
        Self {
            groups,
            ..Self::default()
        }
    }

    /// Configuration with a specific dropout probability.
    pub fn with_drop_probability(mut self, p: f32) -> Self {
        self.drop_probability = p;
        self
    }

    /// Configuration with a specific initialization.
    pub fn with_init(mut self, init: AffineInit) -> Self {
        self.init = init;
        self
    }

    /// Configuration with a specific RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

#[derive(Debug)]
struct ForwardCache {
    input: Tensor,
    normalized: Tensor,
    gamma_eff: Tensor,
    masks: AffineMasks,
    inv_std: Vec<f32>,
    input_dims: Vec<usize>,
}

/// The inverted normalization layer with stochastic affine transformations.
///
/// See the [module documentation](self) for the computation it performs and
/// the crate documentation for a usage example.
#[derive(Debug)]
pub struct InvertedNorm {
    channels: usize,
    groups: usize,
    dropout: AffineDropout,
    stochastic_eval: bool,
    gamma: Param,
    beta: Param,
    rng: Rng,
    cache: Option<ForwardCache>,
}

impl InvertedNorm {
    /// Creates an inverted normalization layer for `channels` feature maps.
    ///
    /// # Errors
    ///
    /// Returns an error when the dropout probability is invalid or `groups`
    /// does not divide `channels`.
    pub fn new(channels: usize, config: &InvNormConfig, rng: &mut Rng) -> Result<Self> {
        if config.groups == 0 || !channels.is_multiple_of(config.groups) {
            return Err(NnError::Config(format!(
                "groups ({}) must divide channels ({channels})",
                config.groups
            )));
        }
        let dropout = AffineDropout::new(config.drop_probability, config.granularity)?;
        let gamma = config.init.sample_gamma(channels, rng);
        let beta = config.init.sample_beta(channels, rng);
        Ok(Self {
            channels,
            groups: config.groups,
            dropout,
            stochastic_eval: config.stochastic_eval,
            gamma: Param::new(gamma),
            beta: Param::new(beta),
            rng: rng.fork(config.seed),
            cache: None,
        })
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Number of normalization groups.
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// The affine-dropout sampler (probability and granularity).
    pub fn dropout(&self) -> &AffineDropout {
        &self.dropout
    }

    /// Current affine weight vector γ.
    pub fn gamma(&self) -> &Tensor {
        &self.gamma.value
    }

    /// Current affine bias vector β.
    pub fn beta(&self) -> &Tensor {
        &self.beta.value
    }

    /// Enables or disables stochasticity at evaluation time (Bayesian
    /// behaviour). Training-mode forward passes are always stochastic.
    pub fn set_stochastic_eval(&mut self, stochastic: bool) {
        self.stochastic_eval = stochastic;
    }

    fn ncs_dims(&self, input: &Tensor) -> Result<(usize, usize, usize)> {
        let d = input.dims();
        let (n, c, s) = match d.len() {
            2 => (d[0], d[1], 1),
            3 => (d[0], d[1], d[2]),
            4 => (d[0], d[1], d[2] * d[3]),
            _ => {
                return Err(NnError::Config(format!(
                    "InvertedNorm expects rank 2-4 input, got {d:?}"
                )))
            }
        };
        if c != self.channels {
            return Err(NnError::Config(format!(
                "InvertedNorm configured for {} channels, input has {c}",
                self.channels
            )));
        }
        Ok((n, c, s))
    }
}

impl Layer for InvertedNorm {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        let (n, c, s) = self.ncs_dims(input)?;
        let stochastic = mode.is_train() || self.stochastic_eval;
        let masks = if stochastic {
            self.dropout.sample_masks(c, &mut self.rng)
        } else {
            self.dropout.keep_all_masks(c)
        };
        let (gamma_eff, beta_eff) =
            self.dropout
                .apply(&self.gamma.value, &self.beta.value, &masks)?;

        // 1. Affine transformation first.
        let data = input.data();
        let mut affine = vec![0.0f32; input.numel()];
        for ni in 0..n {
            for ci in 0..c {
                let g = gamma_eff.data()[ci];
                let b = beta_eff.data()[ci];
                let base = (ni * c + ci) * s;
                for i in 0..s {
                    affine[base + i] = g * data[base + i] + b;
                }
            }
        }

        // 2. Normalization per (instance, group), no second affine.
        let cpg = c / self.groups;
        let group_count = (cpg * s) as f32;
        let mut out = vec![0.0f32; input.numel()];
        let mut inv_stds = vec![0.0f32; n * self.groups];
        for ni in 0..n {
            for gi in 0..self.groups {
                let mut mean = 0.0f32;
                for cc in 0..cpg {
                    let base = (ni * c + gi * cpg + cc) * s;
                    for i in 0..s {
                        mean += affine[base + i];
                    }
                }
                mean /= group_count;
                let mut var = 0.0f32;
                for cc in 0..cpg {
                    let base = (ni * c + gi * cpg + cc) * s;
                    for i in 0..s {
                        var += (affine[base + i] - mean).powi(2);
                    }
                }
                var /= group_count;
                let inv_std = 1.0 / (var + NORM_EPS).sqrt();
                inv_stds[ni * self.groups + gi] = inv_std;
                for cc in 0..cpg {
                    let base = (ni * c + gi * cpg + cc) * s;
                    for i in 0..s {
                        out[base + i] = (affine[base + i] - mean) * inv_std;
                    }
                }
            }
        }
        let output = Tensor::from_vec(out, input.dims())?;
        // Only training forwards are followed by a backward pass; an eval
        // forward keeps no copies and clears any stale training cache.
        self.cache = if mode.is_train() {
            Some(ForwardCache {
                input: input.clone(),
                normalized: output.clone(),
                gamma_eff,
                masks,
                inv_std: inv_stds,
                input_dims: input.dims().to_vec(),
            })
        } else {
            None
        };
        Ok(output)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let cache = self
            .cache
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward("InvertedNorm"))?;
        if grad_output.dims() != cache.input_dims.as_slice() {
            return Err(NnError::Config(
                "InvertedNorm backward gradient shape mismatch".into(),
            ));
        }
        let (n, c, s) = self.ncs_dims(grad_output)?;
        let cpg = c / self.groups;
        let group_count = (cpg * s) as f32;
        let gd = grad_output.data();
        let y = cache.normalized.data();
        let x = cache.input.data();

        // Gradient through the normalization: for each (instance, group)
        //   da = inv_std * (dy - mean(dy) - y * mean(dy ⊙ y))
        let mut grad_affine = vec![0.0f32; grad_output.numel()];
        for ni in 0..n {
            for gi in 0..self.groups {
                let inv_std = cache.inv_std[ni * self.groups + gi];
                let mut mean_dy = 0.0f32;
                let mut mean_dy_y = 0.0f32;
                for cc in 0..cpg {
                    let base = (ni * c + gi * cpg + cc) * s;
                    for i in 0..s {
                        mean_dy += gd[base + i];
                        mean_dy_y += gd[base + i] * y[base + i];
                    }
                }
                mean_dy /= group_count;
                mean_dy_y /= group_count;
                for cc in 0..cpg {
                    let base = (ni * c + gi * cpg + cc) * s;
                    for i in 0..s {
                        grad_affine[base + i] =
                            inv_std * (gd[base + i] - mean_dy - y[base + i] * mean_dy_y);
                    }
                }
            }
        }

        // Gradient through the affine transformation.
        let mut grad_input = Tensor::zeros(&cache.input_dims);
        let gi_data = grad_input.data_mut();
        for ci in 0..c {
            let g_eff = cache.gamma_eff.data()[ci];
            let gamma_kept = cache.masks.gamma_keep.data()[ci];
            let beta_kept = cache.masks.beta_keep.data()[ci];
            let mut dgamma = 0.0f32;
            let mut dbeta = 0.0f32;
            for ni in 0..n {
                let base = (ni * c + ci) * s;
                for i in 0..s {
                    let da = grad_affine[base + i];
                    gi_data[base + i] = da * g_eff;
                    dgamma += da * x[base + i];
                    dbeta += da;
                }
            }
            // Dropped parameters receive no gradient (∂γ̃/∂γ = mask).
            self.gamma.grad.data_mut()[ci] += dgamma * gamma_kept;
            self.beta.grad.data_mut()[ci] += dbeta * beta_kept;
        }
        Ok(grad_input)
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        visitor(&mut self.gamma);
        visitor(&mut self.beta);
    }

    fn name(&self) -> &'static str {
        "InvertedNorm"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deterministic_config() -> InvNormConfig {
        InvNormConfig {
            drop_probability: 0.0,
            stochastic_eval: false,
            ..InvNormConfig::default()
        }
    }

    #[test]
    fn constructor_validation() {
        let mut rng = Rng::seed_from(1);
        assert!(InvertedNorm::new(8, &InvNormConfig::grouped(3), &mut rng).is_err());
        assert!(InvertedNorm::new(8, &InvNormConfig::grouped(0), &mut rng).is_err());
        let cfg = InvNormConfig::default().with_drop_probability(1.5);
        assert!(InvertedNorm::new(8, &cfg, &mut rng).is_err());
        let layer = InvertedNorm::new(8, &InvNormConfig::grouped(4), &mut rng).unwrap();
        assert_eq!(layer.channels(), 8);
        assert_eq!(layer.groups(), 4);
        assert_eq!(layer.dropout().probability(), 0.3);
    }

    #[test]
    fn output_is_standardized_per_instance() {
        let mut rng = Rng::seed_from(2);
        let mut layer = InvertedNorm::new(6, &deterministic_config(), &mut rng).unwrap();
        let x = Tensor::randn(&[3, 6, 5, 5], 4.0, 3.0, &mut rng);
        let y = layer.forward(&x, Mode::Eval).unwrap();
        for ni in 0..3 {
            let inst = y.index_axis0(ni).unwrap();
            assert!(inst.mean().abs() < 1e-4, "instance mean {}", inst.mean());
            assert!(
                (inst.std() - 1.0).abs() < 1e-2,
                "instance std {}",
                inst.std()
            );
        }
    }

    #[test]
    fn output_is_standardized_even_under_input_distribution_shift() {
        // The core robustness property: shifting/scaling the weighted sum
        // (as NVM faults do, paper Fig. 1) leaves the normalized output
        // distribution essentially unchanged.
        let mut rng = Rng::seed_from(3);
        // Use conventional (γ=1, β=0) init so the affine map is channel-uniform
        // and the per-instance normalization undoes the global shift exactly.
        let mut cfg = deterministic_config();
        cfg.init = AffineInit::Conventional;
        let mut layer = InvertedNorm::new(4, &cfg, &mut rng).unwrap();
        let x = Tensor::randn(&[2, 4, 8, 8], 0.0, 1.0, &mut rng);
        let clean = layer.forward(&x, Mode::Eval).unwrap();
        let shifted = x.scale(3.0).shift(10.0);
        let faulty = layer.forward(&shifted, Mode::Eval).unwrap();
        // An affine perturbation of the input is exactly undone by the
        // per-instance normalization (up to epsilon effects).
        assert!(clean.approx_eq(&faulty, 1e-3));
    }

    #[test]
    fn affine_parameters_are_randomly_initialized() {
        let mut rng = Rng::seed_from(4);
        let layer = InvertedNorm::new(32, &InvNormConfig::default(), &mut rng).unwrap();
        // Not all ones / zeros like a conventional normalization layer.
        assert!(layer.gamma().std() > 0.05);
        assert!(layer.beta().std() > 0.05);
        assert!((layer.gamma().mean() - 1.0).abs() < 0.3);
        assert!(layer.beta().mean().abs() < 0.3);
    }

    #[test]
    fn stochastic_eval_gives_different_outputs_across_passes() {
        let mut rng = Rng::seed_from(5);
        let cfg = InvNormConfig::default().with_drop_probability(0.5);
        let mut layer = InvertedNorm::new(8, &cfg, &mut rng).unwrap();
        let x = Tensor::randn(&[2, 8, 4, 4], 0.0, 1.0, &mut rng);
        let outputs: Vec<Tensor> = (0..8)
            .map(|_| layer.forward(&x, Mode::Eval).unwrap())
            .collect();
        let any_different = outputs.windows(2).any(|w| !w[0].approx_eq(&w[1], 1e-6));
        assert!(
            any_different,
            "MC passes should differ under affine dropout"
        );
    }

    #[test]
    fn deterministic_eval_is_repeatable() {
        let mut rng = Rng::seed_from(6);
        let cfg = InvNormConfig {
            stochastic_eval: false,
            ..InvNormConfig::default()
        };
        let mut layer = InvertedNorm::new(8, &cfg, &mut rng).unwrap();
        let x = Tensor::randn(&[2, 8, 4, 4], 0.0, 1.0, &mut rng);
        let y1 = layer.forward(&x, Mode::Eval).unwrap();
        let y2 = layer.forward(&x, Mode::Eval).unwrap();
        assert!(y1.approx_eq(&y2, 0.0));
        layer.set_stochastic_eval(true);
        // With p = 0.3 and several passes, at least one should now differ.
        let different = (0..16).any(|_| {
            let y = layer.forward(&x, Mode::Eval).unwrap();
            !y.approx_eq(&y1, 1e-6)
        });
        assert!(different);
    }

    #[test]
    fn gradients_match_numerical_check() {
        let mut rng = Rng::seed_from(7);
        let mut layer = InvertedNorm::new(4, &deterministic_config(), &mut rng).unwrap();
        let x = Tensor::randn(&[2, 4, 3, 3], 0.0, 1.0, &mut rng);
        let w = Tensor::randn(&[2, 4, 3, 3], 0.0, 1.0, &mut rng);
        layer.forward(&x, Mode::Train).unwrap();
        let grad_in = layer.backward(&w).unwrap();
        let eps = 1e-2f32;
        // Input gradient.
        for idx in [0usize, 10, 35, 71] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let lp = layer
                .forward(&xp, Mode::Train)
                .unwrap()
                .mul(&w)
                .unwrap()
                .sum();
            let lm = layer
                .forward(&xm, Mode::Train)
                .unwrap()
                .mul(&w)
                .unwrap()
                .sum();
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - grad_in.data()[idx]).abs() < 2e-2 * (1.0 + num.abs()),
                "input grad mismatch at {idx}: num {num} ana {}",
                grad_in.data()[idx]
            );
        }
        // Gamma gradient.
        layer.zero_grad();
        layer.forward(&x, Mode::Train).unwrap();
        layer.backward(&w).unwrap();
        let analytic_gamma = layer.gamma.grad.clone();
        for ci in 0..4 {
            let orig = layer.gamma.value.data()[ci];
            layer.gamma.value.data_mut()[ci] = orig + eps;
            let lp = layer
                .forward(&x, Mode::Train)
                .unwrap()
                .mul(&w)
                .unwrap()
                .sum();
            layer.gamma.value.data_mut()[ci] = orig - eps;
            let lm = layer
                .forward(&x, Mode::Train)
                .unwrap()
                .mul(&w)
                .unwrap()
                .sum();
            layer.gamma.value.data_mut()[ci] = orig;
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - analytic_gamma.data()[ci]).abs() < 2e-2 * (1.0 + num.abs()),
                "gamma grad mismatch at {ci}"
            );
        }
    }

    #[test]
    fn dropped_parameters_receive_no_gradient() {
        let mut rng = Rng::seed_from(8);
        // Element-wise with extreme probability so most parameters drop.
        let cfg = InvNormConfig {
            drop_probability: 0.9,
            granularity: DropGranularity::ElementWise,
            ..InvNormConfig::default()
        };
        let mut layer = InvertedNorm::new(16, &cfg, &mut rng).unwrap();
        let x = Tensor::randn(&[4, 16, 2, 2], 0.0, 1.0, &mut rng);
        layer.forward(&x, Mode::Train).unwrap();
        let masks = layer.cache.as_ref().unwrap().masks.gamma_keep.clone();
        layer.backward(&Tensor::ones(x.dims())).unwrap();
        for ci in 0..16 {
            if masks.data()[ci] == 0.0 {
                assert_eq!(
                    layer.gamma.grad.data()[ci],
                    0.0,
                    "dropped gamma {ci} must not receive gradient"
                );
            }
        }
    }

    #[test]
    fn group_statistics_are_per_group() {
        let mut rng = Rng::seed_from(9);
        let mut cfg = deterministic_config();
        cfg.groups = 2;
        cfg.init = AffineInit::Conventional;
        let mut layer = InvertedNorm::new(4, &cfg, &mut rng).unwrap();
        // Give the two channel groups wildly different scales.
        let mut x = Tensor::zeros(&[1, 4, 1, 4]);
        for ci in 0..4 {
            for i in 0..4 {
                let v = if ci < 2 {
                    100.0 + i as f32
                } else {
                    i as f32 * 0.01
                };
                x.set(&[0, ci, 0, i], v).unwrap();
            }
        }
        let y = layer.forward(&x, Mode::Eval).unwrap();
        // Each group is normalized independently, so both groups have zero
        // mean despite the scale difference.
        let g0: f32 = (0..2)
            .flat_map(|c| (0..4).map(move |i| (c, i)))
            .map(|(c, i)| y.get(&[0, c, 0, i]).unwrap())
            .sum();
        let g1: f32 = (2..4)
            .flat_map(|c| (0..4).map(move |i| (c, i)))
            .map(|(c, i)| y.get(&[0, c, 0, i]).unwrap())
            .sum();
        assert!(g0.abs() < 1e-3);
        assert!(g1.abs() < 1e-3);
    }

    #[test]
    fn rank2_and_rank3_inputs_are_supported() {
        let mut rng = Rng::seed_from(10);
        let mut layer = InvertedNorm::new(5, &deterministic_config(), &mut rng).unwrap();
        assert_eq!(
            layer
                .forward(&Tensor::randn(&[3, 5], 0.0, 1.0, &mut rng), Mode::Train)
                .unwrap()
                .dims(),
            &[3, 5]
        );
        assert_eq!(
            layer
                .forward(&Tensor::randn(&[3, 5, 7], 0.0, 1.0, &mut rng), Mode::Train)
                .unwrap()
                .dims(),
            &[3, 5, 7]
        );
        assert!(layer
            .forward(&Tensor::zeros(&[3, 4, 7]), Mode::Train)
            .is_err());
        assert!(InvertedNorm::new(5, &deterministic_config(), &mut rng)
            .unwrap()
            .backward(&Tensor::zeros(&[3, 5]))
            .is_err());
    }

    #[test]
    fn eval_forward_keeps_no_backward_state() {
        let mut rng = Rng::seed_from(12);
        let mut layer = InvertedNorm::new(4, &InvNormConfig::default(), &mut rng).unwrap();
        let x = Tensor::randn(&[2, 4, 3], 0.0, 1.0, &mut rng);
        layer.forward(&x, Mode::Train).unwrap();
        // The eval forward clears the training cache rather than refreshing it.
        layer.forward(&x, Mode::Eval).unwrap();
        assert!(matches!(
            layer.backward(&Tensor::ones(x.dims())),
            Err(NnError::BackwardBeforeForward(_))
        ));
    }

    #[test]
    fn param_count_is_two_per_channel() {
        let mut rng = Rng::seed_from(11);
        let mut layer = InvertedNorm::new(12, &InvNormConfig::default(), &mut rng).unwrap();
        assert_eq!(layer.param_count(), 24);
    }
}
