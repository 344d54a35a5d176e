//! Reusable workspace buffers for the compute kernels.
//!
//! The hot inference path of the Monte-Carlo evaluation protocol calls the
//! same GEMM / im2col shapes thousands of times; allocating fresh `Vec`s on
//! every call wastes a large fraction of the wall-clock on `malloc` and page
//! faults. A [`Scratch`] owns the intermediate buffers those kernels need and
//! grows them monotonically, so steady-state forward passes perform **zero**
//! heap allocations for intermediates (outputs that escape to the caller are
//! still owned tensors).
//!
//! Layers hold their own `Scratch` (e.g. `invnorm_nn::Conv2d`), and the
//! tensor-level entry points ([`crate::ops::matmul`] & friends) fall back to
//! a thread-local `Scratch` so even scratch-unaware callers reuse buffers.

use crate::gemm::PackedA;

/// Growable, reusable workspace for GEMM packing and im2col buffers.
///
/// Buffers are independent fields (rather than a keyed pool) so a kernel can
/// borrow several of them mutably at once.
#[derive(Debug, Default, Clone)]
pub struct Scratch {
    /// Packed A-panel storage for the blocked GEMM (MR-strip layout).
    pub packed_a: Vec<f32>,
    /// Packed B-panel storage for the blocked GEMM (NR-strip layout).
    pub packed_b: Vec<f32>,
    /// im2col patch matrix (`[N*OH*OW, C*KH*KW]`, row-major).
    pub cols: Vec<f32>,
    /// GEMM result staging in matrix layout (LSTM gate pre-activations, the
    /// convolution backward pass's `[N·OH·OW, OC]` output gradient).
    pub out_mat: Vec<f32>,
    /// Per-timestep input slice / gate staging (LSTM).
    pub step: Vec<f32>,
    /// Packed A-panel storage for the quantized i8 GEMM (k-quad layout).
    /// (The quantized layers' activation/patch/accumulator buffers live in
    /// the layers themselves; `Scratch` only hosts the GEMM packing panels.)
    pub packed_a_i8: Vec<i8>,
    /// Packed B-panel storage for the quantized i8 GEMM (k-quad layout).
    pub packed_b_i8: Vec<i8>,
    /// The kernel operand of the channel-major eval convolution, packed once
    /// per call and shared by every image.
    pub conv_weights: PackedA,
    /// One zero-padded input image, the eval convolution's B-packer source.
    pub padded: Vec<f32>,
}

impl Scratch {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total capacity currently held across all buffers, in elements.
    pub fn capacity(&self) -> usize {
        self.packed_a.capacity()
            + self.packed_b.capacity()
            + self.cols.capacity()
            + self.out_mat.capacity()
            + self.step.capacity()
            + self.packed_a_i8.capacity()
            + self.packed_b_i8.capacity()
            + self.conv_weights.capacity()
            + self.padded.capacity()
    }
}

/// Returns the first `len` elements of `buf`, growing it if needed (capacity
/// is monotone; no shrinking, and — crucially — no per-call `memset` when the
/// buffer is already large enough). Contents are unspecified — callers must
/// overwrite every element they read.
pub fn uninit_slice(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
    uninit_slice_of(buf, len)
}

/// Element-type-generic [`uninit_slice`], shared by the f32 and the quantized
/// (i8 / i32) kernel paths.
pub fn uninit_slice_of<T: Copy + Default>(buf: &mut Vec<T>, len: usize) -> &mut [T] {
    if buf.len() < len {
        buf.resize(len, T::default());
    }
    &mut buf[..len]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_grow_monotonically() {
        let mut s = Scratch::new();
        uninit_slice(&mut s.cols, 128);
        let cap = s.cols.capacity();
        assert_eq!(uninit_slice(&mut s.cols, 16).len(), 16);
        assert!(s.cols.capacity() >= cap, "capacity must not shrink");
        assert!(s.capacity() >= 128);
    }

    #[test]
    fn uninit_slice_has_requested_length() {
        let mut buf = Vec::new();
        assert_eq!(uninit_slice(&mut buf, 7).len(), 7);
        assert_eq!(uninit_slice(&mut buf, 0).len(), 0);
    }
}
