//! Element-wise activation layers.
//!
//! Besides the standard activations, this module provides [`SignSte`], the
//! binarized-network activation used by the paper's ResNet-18 and U-Net
//! configurations: the forward pass is `sign(x)` and the backward pass uses
//! the straight-through estimator (gradient passes where `|x| <= 1`).

use crate::error::NnError;
use crate::layer::{Layer, Mode};
use crate::plan::{PlanArenas, PlanCtx, PlanShape};
use crate::Result;
use invnorm_tensor::{vecmath, Tensor};

/// Shared planned-execution body for element-wise activations: apply the
/// slice kernel `f` from the input edge to the output edge, zero-alloc. The
/// direct (`forward`) paths use the same [`vecmath`] kernels, so planned and
/// direct execution stay bit-identical.
fn plan_elementwise(
    input: &PlanShape,
    output: &PlanShape,
    arenas: &mut PlanArenas,
    f: impl Fn(&[f32], &mut [f32]),
) -> Result<()> {
    let [x, y] = arenas.f.many_mut([input.slot, output.slot]);
    f(x, y);
    Ok(())
}

/// Implements the plan protocol for an element-wise activation: the output
/// edge mirrors the input dims and the forward applies the given
/// tier-dispatched slice kernel.
macro_rules! planned_elementwise {
    ($f:expr) => {
        fn plan_compile(
            &mut self,
            input: &PlanShape,
            arenas: &mut PlanArenas,
        ) -> Result<PlanShape> {
            Ok(arenas.reserve_like(input))
        }

        fn plan_forward(
            &mut self,
            input: &PlanShape,
            output: &PlanShape,
            _ctx: PlanCtx,
            arenas: &mut PlanArenas,
        ) -> Result<()> {
            plan_elementwise(input, output, arenas, $f)
        }
    };
}

/// Rectified linear unit, `max(0, x)`.
#[derive(Debug, Default)]
pub struct Relu {
    mask: Option<Vec<bool>>,
}

impl Relu {
    /// Creates a ReLU activation.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Relu {
    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Result<Tensor> {
        self.mask = Some(input.data().iter().map(|&x| x > 0.0).collect());
        let mut out = input.clone();
        vecmath::relu_mut(out.data_mut());
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let mask = self
            .mask
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward("Relu"))?;
        if mask.len() != grad_output.numel() {
            return Err(NnError::Config(
                "Relu backward gradient size mismatch".into(),
            ));
        }
        let mut out = grad_output.clone();
        for (g, &keep) in out.data_mut().iter_mut().zip(mask.iter()) {
            if !keep {
                *g = 0.0;
            }
        }
        Ok(out)
    }

    planned_elementwise!(vecmath::relu);

    fn name(&self) -> &'static str {
        "Relu"
    }
}

/// Leaky rectified linear unit, `x` for positive inputs and `slope * x`
/// otherwise.
#[derive(Debug)]
pub struct LeakyRelu {
    slope: f32,
    mask: Option<Vec<bool>>,
}

impl LeakyRelu {
    /// Creates a leaky ReLU with the given negative-side slope.
    pub fn new(slope: f32) -> Self {
        Self { slope, mask: None }
    }
}

impl Layer for LeakyRelu {
    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Result<Tensor> {
        self.mask = Some(input.data().iter().map(|&x| x > 0.0).collect());
        let mut out = input.clone();
        vecmath::leaky_relu_mut(out.data_mut(), self.slope);
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let mask = self
            .mask
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward("LeakyRelu"))?;
        let mut out = grad_output.clone();
        for (g, &pos) in out.data_mut().iter_mut().zip(mask.iter()) {
            if !pos {
                *g *= self.slope;
            }
        }
        Ok(out)
    }

    fn plan_compile(&mut self, input: &PlanShape, arenas: &mut PlanArenas) -> Result<PlanShape> {
        Ok(arenas.reserve_like(input))
    }

    fn plan_forward(
        &mut self,
        input: &PlanShape,
        output: &PlanShape,
        _ctx: PlanCtx,
        arenas: &mut PlanArenas,
    ) -> Result<()> {
        let slope = self.slope;
        plan_elementwise(input, output, arenas, |src, dst| {
            vecmath::leaky_relu(src, dst, slope)
        })
    }

    fn name(&self) -> &'static str {
        "LeakyRelu"
    }
}

/// Hyperbolic tangent activation.
#[derive(Debug, Default)]
pub struct Tanh {
    cached_output: Option<Tensor>,
}

impl Tanh {
    /// Creates a tanh activation.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Tanh {
    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Result<Tensor> {
        let mut out = input.clone();
        vecmath::tanh_mut(out.data_mut());
        self.cached_output = Some(out.clone());
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let y = self
            .cached_output
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward("Tanh"))?;
        Ok(grad_output.zip_map(y, |g, y| g * (1.0 - y * y))?)
    }

    planned_elementwise!(vecmath::tanh);

    fn name(&self) -> &'static str {
        "Tanh"
    }
}

/// Logistic sigmoid activation.
#[derive(Debug, Default)]
pub struct Sigmoid {
    cached_output: Option<Tensor>,
}

impl Sigmoid {
    /// Creates a sigmoid activation.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Scalar sigmoid, exposed for use in LSTM gates and losses. Delegates to
/// the [`vecmath`] per-lane body, so scalar call sites compute exactly what
/// the vectorized [`Sigmoid`] layer computes.
pub fn sigmoid(x: f32) -> f32 {
    vecmath::sigmoid_scalar(x)
}

impl Layer for Sigmoid {
    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Result<Tensor> {
        let mut out = input.clone();
        vecmath::sigmoid_mut(out.data_mut());
        self.cached_output = Some(out.clone());
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let y = self
            .cached_output
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward("Sigmoid"))?;
        Ok(grad_output.zip_map(y, |g, y| g * y * (1.0 - y))?)
    }

    planned_elementwise!(vecmath::sigmoid);

    fn name(&self) -> &'static str {
        "Sigmoid"
    }
}

/// Hard tanh: clamps the input to `[-1, 1]`; gradient is 1 inside the clamp
/// region and 0 outside.
#[derive(Debug, Default)]
pub struct Hardtanh {
    mask: Option<Vec<bool>>,
}

impl Hardtanh {
    /// Creates a hard-tanh activation.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Hardtanh {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        // The straight-through mask only serves a following backward pass.
        self.mask = mode
            .is_train()
            .then(|| input.data().iter().map(|&x| x.abs() <= 1.0).collect());
        let mut out = input.clone();
        vecmath::hardtanh(input.data(), out.data_mut());
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let mask = self
            .mask
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward("Hardtanh"))?;
        let mut out = grad_output.clone();
        for (g, &inside) in out.data_mut().iter_mut().zip(mask.iter()) {
            if !inside {
                *g = 0.0;
            }
        }
        Ok(out)
    }

    planned_elementwise!(vecmath::hardtanh);

    fn name(&self) -> &'static str {
        "Hardtanh"
    }
}

/// Binary activation: `sign(x)` in the forward pass (outputs ±1, with
/// `sign(0) = +1`), straight-through estimator in the backward pass
/// (gradient passes unchanged where `|x| <= 1`, is zeroed elsewhere).
///
/// This is the activation binarization used by IR-Net-style binary networks,
/// which the paper uses for its ResNet-18 (1/1-bit) and U-Net (1-bit weight)
/// configurations. Non-ideality injection for binary networks happens on the
/// *pre-activation* values (see `invnorm-imc`), i.e. on the input of this
/// layer, matching Sec. IV-A2 of the paper.
#[derive(Debug, Default)]
pub struct SignSte {
    mask: Option<Vec<bool>>,
}

impl SignSte {
    /// Creates a sign activation with straight-through gradient.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for SignSte {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        // The straight-through mask only serves a following backward pass.
        self.mask = mode
            .is_train()
            .then(|| input.data().iter().map(|&x| x.abs() <= 1.0).collect());
        let mut out = input.clone();
        vecmath::sign_ste(input.data(), out.data_mut());
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let mask = self
            .mask
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward("SignSte"))?;
        let mut out = grad_output.clone();
        for (g, &inside) in out.data_mut().iter_mut().zip(mask.iter()) {
            if !inside {
                *g = 0.0;
            }
        }
        Ok(out)
    }

    planned_elementwise!(vecmath::sign_ste);

    fn name(&self) -> &'static str {
        "SignSte"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use invnorm_tensor::Rng;

    fn check_backward_consistency(layer: &mut dyn Layer, x: &Tensor) {
        let y = layer.forward(x, Mode::Train).unwrap();
        let g = layer.backward(&Tensor::ones(y.dims())).unwrap();
        assert_eq!(g.dims(), x.dims());
        assert!(!g.has_non_finite());
    }

    #[test]
    fn relu_forward_and_backward() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[3]).unwrap();
        let y = relu.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
        let g = relu
            .backward(&Tensor::from_vec(vec![1.0, 1.0, 1.0], &[3]).unwrap())
            .unwrap();
        assert_eq!(g.data(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn leaky_relu_slope() {
        let mut act = LeakyRelu::new(0.1);
        let x = Tensor::from_vec(vec![-2.0, 3.0], &[2]).unwrap();
        let y = act.forward(&x, Mode::Train).unwrap();
        assert!((y.data()[0] + 0.2).abs() < 1e-6);
        assert_eq!(y.data()[1], 3.0);
        let g = act.backward(&Tensor::ones(&[2])).unwrap();
        assert!((g.data()[0] - 0.1).abs() < 1e-6);
        assert_eq!(g.data()[1], 1.0);
    }

    #[test]
    fn tanh_and_sigmoid_gradients_match_numerical() {
        let mut rng = Rng::seed_from(1);
        let x = Tensor::randn(&[10], 0.0, 1.0, &mut rng);
        let eps = 1e-3f32;

        let mut tanh = Tanh::new();
        let _ = tanh.forward(&x, Mode::Train).unwrap();
        let g = tanh.backward(&Tensor::ones(&[10])).unwrap();
        for i in 0..10 {
            let num = ((x.data()[i] + eps).tanh() - (x.data()[i] - eps).tanh()) / (2.0 * eps);
            assert!((num - g.data()[i]).abs() < 1e-3);
        }

        let mut sig = Sigmoid::new();
        let _ = sig.forward(&x, Mode::Train).unwrap();
        let g = sig.backward(&Tensor::ones(&[10])).unwrap();
        for i in 0..10 {
            let num = (sigmoid(x.data()[i] + eps) - sigmoid(x.data()[i] - eps)) / (2.0 * eps);
            assert!((num - g.data()[i]).abs() < 1e-3);
        }
    }

    #[test]
    fn hardtanh_clamps_and_masks_gradient() {
        let mut act = Hardtanh::new();
        let x = Tensor::from_vec(vec![-3.0, -0.5, 0.5, 3.0], &[4]).unwrap();
        let y = act.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.data(), &[-1.0, -0.5, 0.5, 1.0]);
        let g = act.backward(&Tensor::ones(&[4])).unwrap();
        assert_eq!(g.data(), &[0.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn sign_ste_outputs_binary_and_passes_gradient_inside_clip() {
        let mut act = SignSte::new();
        let x = Tensor::from_vec(vec![-2.0, -0.3, 0.0, 0.7, 1.5], &[5]).unwrap();
        let y = act.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.data(), &[-1.0, -1.0, 1.0, 1.0, 1.0]);
        assert!(y.data().iter().all(|&v| v == 1.0 || v == -1.0));
        let g = act
            .backward(&Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0], &[5]).unwrap())
            .unwrap();
        assert_eq!(g.data(), &[0.0, 2.0, 3.0, 4.0, 0.0]);
    }

    #[test]
    fn sign_ste_eval_forward_keeps_no_backward_state() {
        let mut act = SignSte::new();
        let x = Tensor::from_vec(vec![-2.0, 0.3], &[2]).unwrap();
        act.forward(&x, Mode::Train).unwrap();
        // An eval forward drops the training mask instead of replacing it.
        let y = act.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.data(), &[-1.0, 1.0]);
        assert!(matches!(
            act.backward(&Tensor::ones(&[2])),
            Err(NnError::BackwardBeforeForward("SignSte"))
        ));
    }

    #[test]
    fn backward_before_forward_errors() {
        assert!(Relu::new().backward(&Tensor::ones(&[1])).is_err());
        assert!(Tanh::new().backward(&Tensor::ones(&[1])).is_err());
        assert!(SignSte::new().backward(&Tensor::ones(&[1])).is_err());
    }

    #[test]
    fn all_activations_have_no_params_and_handle_random_input() {
        let mut rng = Rng::seed_from(2);
        let x = Tensor::randn(&[2, 3, 4], 0.0, 2.0, &mut rng);
        let mut layers: Vec<Box<dyn Layer>> = vec![
            Box::new(Relu::new()),
            Box::new(LeakyRelu::new(0.01)),
            Box::new(Tanh::new()),
            Box::new(Sigmoid::new()),
            Box::new(Hardtanh::new()),
            Box::new(SignSte::new()),
        ];
        for layer in &mut layers {
            assert_eq!(layer.param_count(), 0);
            check_backward_consistency(layer.as_mut(), &x);
        }
    }
}
