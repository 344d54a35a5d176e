//! The [`Layer`] trait, learnable [`Param`] storage and execution [`Mode`].

use crate::error::NnError;
use crate::plan::{self, PlanArenas, PlanCodeView, PlanCtx, PlanParamView, PlanShape};
use crate::Result;
use invnorm_tensor::Tensor;

/// Whether a forward pass is part of training (dropout active, batch
/// statistics updated) or evaluation.
///
/// Note that for the paper's Bayesian layers (affine dropout), stochasticity
/// is *also* applied at evaluation time — that behaviour is controlled by the
/// layer itself, not by `Mode`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Training: stochastic regularizers active, normalization statistics
    /// computed from the current batch.
    Train,
    /// Inference: deterministic layers behave deterministically.
    Eval,
}

impl Mode {
    /// Returns `true` in training mode.
    pub fn is_train(self) -> bool {
        matches!(self, Mode::Train)
    }
}

/// A learnable parameter: its value, the gradient accumulated by the latest
/// backward pass, and optimizer scratch state (first/second moment estimates
/// for Adam, velocity for SGD momentum).
#[derive(Debug, Clone)]
pub struct Param {
    /// Current parameter value.
    pub value: Tensor,
    /// Gradient of the loss w.r.t. this parameter (same shape as `value`).
    pub grad: Tensor,
    /// First-moment / velocity buffer, lazily created by optimizers.
    pub opt_m: Option<Tensor>,
    /// Second-moment buffer, lazily created by Adam.
    pub opt_v: Option<Tensor>,
    /// When `false` the optimizer skips this parameter (frozen).
    pub trainable: bool,
}

impl Param {
    /// Wraps a tensor as a trainable parameter with a zeroed gradient.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.dims());
        Self {
            value,
            grad,
            opt_m: None,
            opt_v: None,
            trainable: true,
        }
    }

    /// Wraps a tensor as a frozen (non-trainable) parameter.
    pub fn frozen(value: Tensor) -> Self {
        let mut p = Self::new(value);
        p.trainable = false;
        p
    }

    /// Resets the gradient to zero.
    pub fn zero_grad(&mut self) {
        self.grad.fill(0.0);
    }

    /// Number of scalar elements in the parameter.
    pub fn numel(&self) -> usize {
        self.value.numel()
    }
}

/// A mutable view of one quantized parameter's integer codes, handed to
/// [`Layer::visit_codes`] visitors.
///
/// This is the code-domain analogue of [`Param`]: fault injectors perturb
/// `codes` directly (bit flips, stuck-at cells) instead of round-tripping
/// through f32, so the realization lands exactly on the representation the
/// hardware programs into the crossbar.
#[derive(Debug)]
pub struct CodeView<'a> {
    /// The packed i8 quantization codes, row-major.
    pub codes: &'a mut [i8],
    /// Bit width of the quantized representation (≤ 8).
    pub bits: u8,
    /// Leading (output) dimension of the code matrix — the row count
    /// structured tile topologies map crossbar lines onto.
    pub rows: usize,
}

/// Stacked per-realization storage for one fault-targetable parameter,
/// staged by [`Layer::begin_batched`] for batched Monte-Carlo evaluation.
///
/// Realization `b` of the parameter occupies
/// `data[b * numel .. (b + 1) * numel]`. Buffers grow monotonically, so
/// re-staging the same network batch after batch allocates nothing in steady
/// state.
#[derive(Debug, Default, Clone)]
pub struct BatchedParam {
    data: Vec<f32>,
    batch: usize,
    numel: usize,
}

impl BatchedParam {
    /// Re-stages the buffer as `batch` copies of the clean parameter value
    /// (fault injectors then overwrite targeted slots in place).
    pub fn reset(&mut self, clean: &Tensor, batch: usize) {
        self.numel = clean.numel();
        self.batch = batch;
        self.data.clear();
        self.data.reserve(batch * self.numel);
        for _ in 0..batch {
            self.data.extend_from_slice(clean.data());
        }
    }

    /// Number of staged realizations.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Elements per realization.
    pub fn numel(&self) -> usize {
        self.numel
    }

    /// The full stacked buffer (`[batch * numel]`).
    pub fn data(&self) -> &[f32] {
        &self.data[..self.batch * self.numel]
    }

    /// Realization `b` of the parameter.
    ///
    /// # Panics
    ///
    /// Panics when `b >= batch`.
    pub fn realization(&self, b: usize) -> &[f32] {
        &self.data[b * self.numel..(b + 1) * self.numel]
    }

    /// Mutable realization `b` of the parameter.
    ///
    /// # Panics
    ///
    /// Panics when `b >= batch`.
    pub fn realization_mut(&mut self, b: usize) -> &mut [f32] {
        &mut self.data[b * self.numel..(b + 1) * self.numel]
    }
}

/// Stacked per-realization storage for one quantized parameter's integer
/// codes — the code-domain analogue of [`BatchedParam`].
#[derive(Debug, Default, Clone)]
pub struct BatchedCodes {
    data: Vec<i8>,
    batch: usize,
    numel: usize,
}

impl BatchedCodes {
    /// Re-stages the buffer as `batch` copies of the clean codes.
    pub fn reset(&mut self, clean: &[i8], batch: usize) {
        self.numel = clean.len();
        self.batch = batch;
        self.data.clear();
        self.data.reserve(batch * self.numel);
        for _ in 0..batch {
            self.data.extend_from_slice(clean);
        }
    }

    /// Number of staged realizations.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Codes per realization.
    pub fn numel(&self) -> usize {
        self.numel
    }

    /// The full stacked buffer (`[batch * numel]`).
    pub fn data(&self) -> &[i8] {
        &self.data[..self.batch * self.numel]
    }

    /// Realization `b` of the codes.
    ///
    /// # Panics
    ///
    /// Panics when `b >= batch`.
    pub fn realization(&self, b: usize) -> &[i8] {
        &self.data[b * self.numel..(b + 1) * self.numel]
    }

    /// Mutable realization `b` of the codes.
    ///
    /// # Panics
    ///
    /// Panics when `b >= batch`.
    pub fn realization_mut(&mut self, b: usize) -> &mut [i8] {
        &mut self.data[b * self.numel..(b + 1) * self.numel]
    }
}

/// One fault-targetable parameter's stacked buffer alongside its clean
/// value, handed to [`Layer::visit_batched`] visitors.
#[derive(Debug)]
pub struct BatchedParamView<'a> {
    /// Index of this parameter in [`Layer::visit_params`] order. Fault
    /// injectors fork the per-parameter RNG stream from this index, exactly
    /// as the sequential injector does, so batched realizations are
    /// bit-identical to sequential ones.
    pub index: usize,
    /// The clean parameter value (never touched by batched injection).
    pub clean: &'a Tensor,
    /// The stacked realizations staged by [`Layer::begin_batched`].
    pub stacked: &'a mut BatchedParam,
}

/// One quantized parameter's stacked code buffer alongside its clean codes,
/// handed to [`Layer::visit_batched_codes`] visitors.
#[derive(Debug)]
pub struct BatchedCodeView<'a> {
    /// Index of this parameter in [`Layer::visit_codes`] order (the fork
    /// index of the sequential code injector).
    pub index: usize,
    /// The clean codes (never touched by batched injection).
    pub clean: &'a [i8],
    /// Bit width of the quantized representation (≤ 8).
    pub bits: u8,
    /// Leading (output) dimension of one realization's code matrix — the
    /// row count structured tile topologies map crossbar lines onto.
    pub rows: usize,
    /// The stacked realizations staged by [`Layer::begin_batched`].
    pub stacked: &'a mut BatchedCodes,
}

/// An object-safe neural-network layer with explicit forward and backward
/// passes.
///
/// Implementations cache whatever activations they need during `forward` and
/// consume them in `backward`; calling `backward` without a preceding
/// `forward` returns [`crate::NnError::BackwardBeforeForward`].
pub trait Layer {
    /// Computes the layer output for `input`.
    ///
    /// # Errors
    ///
    /// Returns an error when the input shape is incompatible with the layer.
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor>;

    /// Propagates `grad_output` (gradient of the loss w.r.t. this layer's
    /// output) back to the input, accumulating parameter gradients
    /// internally.
    ///
    /// # Errors
    ///
    /// Returns an error when called before `forward` or when the gradient
    /// shape does not match the cached forward activation.
    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor>;

    /// Visits every learnable parameter (used by optimizers and fault
    /// injectors).
    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        let _ = visitor;
    }

    /// Calls `visitor` on every layer nested inside this one, depth-first,
    /// each before its own nested layers (see [`visit_nested`]). Leaf layers
    /// hold none; containers override this.
    fn visit_layers(&mut self, visitor: &mut dyn FnMut(&mut dyn Layer)) {
        let _ = visitor;
    }

    /// Visits every quantized weight's integer codes (used by code-domain
    /// fault injectors). Float layers have none; quantized layers and
    /// containers override this.
    fn visit_codes(&mut self, visitor: &mut dyn FnMut(CodeView<'_>)) {
        let _ = visitor;
    }

    /// Stages stacked weight buffers for `batch` fault realizations, seeding
    /// every slot with the clean value (see the batched Monte-Carlo engine in
    /// `invnorm-imc`). Containers recurse; weighted layers with batched-eval
    /// support override this.
    ///
    /// # Errors
    ///
    /// The default implementation returns an error when the layer carries
    /// fault-targetable state (rank ≥ 2 parameters or quantization codes) but
    /// does not support batched evaluation — a loud failure instead of
    /// silently evaluating clean weights.
    fn begin_batched(&mut self, batch: usize) -> Result<()> {
        let _ = batch;
        let mut needs_support = false;
        self.visit_params(&mut |p| needs_support |= p.value.rank() >= 2);
        self.visit_codes(&mut |_| needs_support = true);
        if needs_support {
            return Err(NnError::unsupported(self.name(), "batched evaluation"));
        }
        Ok(())
    }

    /// Releases the stacked buffers staged by [`Layer::begin_batched`].
    fn end_batched(&mut self) {}

    /// Visits every fault-targetable (rank ≥ 2) parameter's stacked buffer
    /// alongside its clean value. Only meaningful between
    /// [`Layer::begin_batched`] and [`Layer::end_batched`].
    fn visit_batched(&mut self, visitor: &mut dyn FnMut(BatchedParamView<'_>)) {
        let _ = visitor;
    }

    /// Visits every quantized parameter's stacked code buffer alongside its
    /// clean codes. Only meaningful between [`Layer::begin_batched`] and
    /// [`Layer::end_batched`].
    fn visit_batched_codes(&mut self, visitor: &mut dyn FnMut(BatchedCodeView<'_>)) {
        let _ = visitor;
    }

    /// Evaluates `batch` fault realizations in one forward pass.
    ///
    /// `shared == true` means `input` is one activation tensor broadcast
    /// across all realizations (the network input); `shared == false` means
    /// realization `b` owns rows `[b·N, (b+1)·N)` of the leading dimension.
    /// The returned flag reports which of the two the *output* is: weighted
    /// layers always produce per-realization output, while stateless layers
    /// (activations, pooling, reshapes, eval-mode norms) preserve their
    /// input's sharedness — the default implementation simply applies
    /// [`Layer::forward`], which is correct exactly for those layers (any
    /// layer with fault-targetable state was already rejected by
    /// [`Layer::begin_batched`]).
    ///
    /// # Errors
    ///
    /// Returns an error when the input shape is incompatible or the layer
    /// has no staged batched state.
    fn forward_batched(
        &mut self,
        input: &Tensor,
        shared: bool,
        batch: usize,
        mode: Mode,
    ) -> Result<(Tensor, bool)> {
        let _ = batch;
        Ok((self.forward(input, mode)?, shared))
    }

    /// Compiles this layer into an inference plan for a concrete input
    /// shape: records shapes, reserves arena buffers, and packs weights into
    /// cached panels. Returns the output edge (see [`crate::plan`]).
    ///
    /// The default implementation is the *fallback* protocol for layers
    /// without fault-targetable state: it discovers the output shape by
    /// forwarding zeros once and reserves an output slot;
    /// [`Layer::plan_forward`]'s default then routes through `forward`.
    /// Layers with rank ≥ 2 parameters or quantization codes must override
    /// the protocol — the default rejects them with
    /// [`NnError::Unsupported`].
    ///
    /// # Errors
    ///
    /// Returns an error when the layer cannot be planned or the input shape
    /// is incompatible.
    fn plan_compile(&mut self, input: &PlanShape, arenas: &mut PlanArenas) -> Result<PlanShape> {
        plan::fallback_compile(self, input, arenas)
    }

    /// Executes this layer's node of a compiled plan: reads the input slot,
    /// writes the output slot reserved by [`Layer::plan_compile`]. Planned
    /// layers run zero-alloc on arena buffers; the default fallback routes
    /// through `forward` (correct for weightless layers, at the cost of the
    /// allocations `forward` makes).
    ///
    /// # Errors
    ///
    /// Returns an error when called without a prior [`Layer::plan_compile`]
    /// or on a shape mismatch.
    fn plan_forward(
        &mut self,
        input: &PlanShape,
        output: &PlanShape,
        ctx: PlanCtx,
        arenas: &mut PlanArenas,
    ) -> Result<()> {
        let _ = ctx;
        plan::fallback_forward(self, input, output, arenas)
    }

    /// Releases any state installed by [`Layer::plan_compile`]. Containers
    /// recurse.
    fn plan_end(&mut self) {}

    /// Visits every fault-targetable (rank ≥ 2) parameter's plan state
    /// (clean value, faulty buffer, dirty-row set). Only meaningful between
    /// [`Layer::plan_compile`] and [`Layer::plan_end`].
    fn visit_plan_params(&mut self, visitor: &mut dyn FnMut(PlanParamView<'_>)) {
        let _ = visitor;
    }

    /// Visits every quantized parameter's plan state — the code-domain
    /// analogue of [`Layer::visit_plan_params`].
    fn visit_plan_codes(&mut self, visitor: &mut dyn FnMut(PlanCodeView<'_>)) {
        let _ = visitor;
    }

    /// Human-readable layer name for diagnostics.
    fn name(&self) -> &'static str;

    /// Total number of learnable scalars in the layer.
    fn param_count(&mut self) -> usize {
        let mut count = 0usize;
        self.visit_params(&mut |p| count += p.numel());
        count
    }

    /// Zeroes all parameter gradients.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }
}

/// A boxed layer, the unit networks are assembled from.
pub type BoxedLayer = Box<dyn Layer + Send>;

/// Visits `layer`, then the layers nested inside it: the recursion step
/// containers use to implement [`Layer::visit_layers`].
pub fn visit_nested(layer: &mut dyn Layer, visitor: &mut dyn FnMut(&mut dyn Layer)) {
    visitor(&mut *layer);
    layer.visit_layers(visitor);
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Doubler {
        calls: usize,
    }

    impl Layer for Doubler {
        fn forward(&mut self, input: &Tensor, _mode: Mode) -> Result<Tensor> {
            self.calls += 1;
            Ok(input.scale(2.0))
        }
        fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
            Ok(grad_output.scale(2.0))
        }
        fn name(&self) -> &'static str {
            "Doubler"
        }
    }

    #[test]
    fn mode_flags() {
        assert!(Mode::Train.is_train());
        assert!(!Mode::Eval.is_train());
    }

    #[test]
    fn param_lifecycle() {
        let mut p = Param::new(Tensor::ones(&[2, 3]));
        assert!(p.trainable);
        assert_eq!(p.numel(), 6);
        p.grad.fill(5.0);
        p.zero_grad();
        assert_eq!(p.grad.sum(), 0.0);
        let f = Param::frozen(Tensor::ones(&[2]));
        assert!(!f.trainable);
    }

    #[test]
    fn default_trait_methods() {
        let mut d = Doubler { calls: 0 };
        assert_eq!(d.param_count(), 0);
        d.zero_grad(); // no-op, but must not panic
        let x = Tensor::ones(&[2]);
        let y = d.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.data(), &[2.0, 2.0]);
        assert_eq!(d.name(), "Doubler");
    }

    #[test]
    fn boxed_layer_is_usable() {
        let mut layers: Vec<BoxedLayer> = vec![Box::new(Doubler { calls: 0 })];
        let x = Tensor::ones(&[3]);
        let y = layers[0].forward(&x, Mode::Train).unwrap();
        assert_eq!(y.sum(), 6.0);
    }
}
