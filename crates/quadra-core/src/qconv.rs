//! Quadratic 2-D convolution layers — the encapsulated quadratic layer modules
//! of QuadraLib (`qua.type#()` in the paper's API), generalised to every
//! practical neuron type.
//!
//! Every branch of a quadratic convolution that reads the input `x` itself
//! shares one lowering of it: the branch weights are stacked group-major
//! into one weight ([`stack_conv_weights`]), so a single GEMM per sample and
//! group produces all branch outputs, and one element-wise epilogue pass
//! combines them into the neuron's output. The backward pass mirrors this:
//! one stacked branch gradient, one transposed GEMM and one col2im for the
//! input gradient, and the weight gradients reduced from one lowering of `x`.
//! A branch on `x²` (T2, T2&4) is an ordinary convolution of `x²`: one more
//! lowering and GEMM.
//!
//! T1 and T1&2 are deliberately *not* offered as convolution layers: their
//! full-rank bilinear weight is a `C·r⁴·N·C` tensor (problem **P2**), which the
//! paper reports blowing a 0.2 M-parameter ResNet up to 128 M parameters — the
//! very reason those designs are impractical for deep models. Requesting one
//! panics with an explanatory message.

use crate::hybrid_bp::BackpropMode;
use crate::neuron::NeuronType;
use quadra_nn::{Layer, Param};
use quadra_tensor::{stack_conv_weights, Conv2dParams, InitKind, Tensor};
use rand::Rng;

/// A quadratic convolution layer over NCHW tensors.
///
/// For the proposed design ("Ours") the forward pass is
/// `Y = conv(X, Wa) ∘ conv(X, Wb) + conv(X, Wc) + b`. It runs as one lowering
/// of `X`, one GEMM over the stacked weights `[Wa; Wb; Wc]` and one epilogue
/// computing `((a·b) + c) + bias` per element — the same work as a
/// first-order convolution with three times the output channels, which is
/// why the design is as implementation-friendly as a first-order layer
/// (design insight 4 of the paper). The other supported types drop or alter
/// individual branches.
///
/// A train forward keeps the input and, in [`BackpropMode::Default`], the
/// product branches' outputs for the backward pass; an eval forward keeps
/// nothing.
pub struct QuadraticConv2d {
    neuron_type: NeuronType,
    mode: BackpropMode,
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    conv: Conv2dParams,
    /// The branch weights the type uses, in `Wa, Wb, Wc` order: the first
    /// [`Self::linear_branches`] convolve `x`, a remaining one convolves `x²`.
    weights: Vec<Param>,
    bias: Param,
    // Train-forward caches: the input, and the product branches' outputs
    // stacked like the weights (`[n][group][branch][oc/groups][oh·ow]`).
    cached_x: Option<Tensor>,
    cached_z: Option<Tensor>,
    flops: usize,
}

impl QuadraticConv2d {
    /// Create a quadratic convolution layer.
    ///
    /// # Panics
    /// Panics for [`NeuronType::T1`] / [`NeuronType::T1And2`] (see module docs)
    /// and for [`NeuronType::T4Identity`] when the configuration would change
    /// the tensor shape (identity mapping requires equal input/output shape).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        neuron_type: NeuronType,
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        groups: usize,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(
            !matches!(neuron_type, NeuronType::T1 | NeuronType::T1And2),
            "{} convolution is not supported: its full-rank bilinear weight is O(n^2) per neuron \
             (problem P2 in the paper) and cannot be assembled from first-order convolutions (P4)",
            neuron_type.name()
        );
        if neuron_type == NeuronType::T4Identity {
            assert!(
                in_channels == out_channels && stride == 1 && padding * 2 + 1 == kernel,
                "T4+Identity requires shape-preserving convolution (in==out channels, stride 1, 'same' padding)"
            );
        }
        let fan_in = (in_channels / groups) * kernel * kernel;
        let fan_out = (out_channels / groups) * kernel * kernel;
        let mut mk = |name: &str| {
            Param::new(
                name,
                Tensor::init(
                    &[out_channels, in_channels / groups, kernel, kernel],
                    InitKind::KaimingNormal,
                    fan_in,
                    fan_out,
                    rng,
                ),
            )
        };
        let needs_b = matches!(
            neuron_type,
            NeuronType::T4 | NeuronType::T4Identity | NeuronType::T2And4 | NeuronType::Ours
        );
        let needs_c = matches!(neuron_type, NeuronType::T2And4 | NeuronType::Ours);
        let mut weights = vec![mk("qconv.wa")];
        weights.extend(needs_b.then(|| mk("qconv.wb")));
        weights.extend(needs_c.then(|| mk("qconv.wc")));
        QuadraticConv2d {
            neuron_type,
            mode: BackpropMode::Default,
            in_channels,
            out_channels,
            kernel,
            conv: Conv2dParams::new(stride, padding, groups),
            weights,
            bias: Param::new_no_decay("qconv.bias", Tensor::zeros(&[out_channels])),
            cached_x: None,
            cached_z: None,
            flops: 0,
        }
    }

    /// Standard 3×3 shape-preserving quadratic convolution.
    pub fn conv3x3(
        neuron_type: NeuronType,
        in_channels: usize,
        out_channels: usize,
        rng: &mut impl Rng,
    ) -> Self {
        Self::new(neuron_type, in_channels, out_channels, 3, 1, 1, 1, rng)
    }

    /// The neuron design of this layer.
    pub fn neuron_type(&self) -> NeuronType {
        self.neuron_type
    }

    /// Select the back-propagation mode.
    pub fn set_mode(&mut self, mode: BackpropMode) {
        self.mode = mode;
    }

    /// The current back-propagation mode.
    pub fn mode(&self) -> BackpropMode {
        self.mode
    }

    /// Number of input channels.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Kernel side length.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Convolution hyper-parameters.
    pub fn conv_params(&self) -> Conv2dParams {
        self.conv
    }

    /// How many leading weights convolve `x` itself and share its lowering.
    fn linear_branches(&self) -> usize {
        match self.neuron_type {
            NeuronType::T2 => 0,
            NeuronType::T3 => 1,
            NeuronType::T4 | NeuronType::T4Identity | NeuronType::T2And4 => 2,
            NeuronType::Ours => 3,
            NeuronType::T1 | NeuronType::T1And2 => unreachable!("rejected in constructor"),
        }
    }

    /// How many leading branches form the product: `a·b`, or `a·a` for T3.
    fn product_branches(&self) -> usize {
        match self.neuron_type {
            NeuronType::T2 => 0,
            NeuronType::T3 => 1,
            _ => 2,
        }
    }

    /// The first `branches` weights stacked group-major into one weight.
    fn stacked(&self, branches: usize) -> Tensor {
        let parts: Vec<&Tensor> = self.weights[..branches].iter().map(|w| &w.value).collect();
        stack_conv_weights(&parts, self.conv.groups).expect("branch weights share one shape")
    }

    /// Output elements per (sample, group) block: `oc/groups · oh · ow`.
    fn block_len(&self, y: &Tensor) -> usize {
        self.out_channels / self.conv.groups * y.shape()[2] * y.shape()[3]
    }

    /// Combine the branch outputs into `((a·b) + add) + bias` per element, in
    /// the reference's operation order. `z` holds the linear branches stacked
    /// `[n][group][branch][oc/groups][oh·ow]`; `add` is the third linear
    /// branch (Ours), `x` (T4+Identity) or the `x²` branch `sq` (T2, T2&4).
    fn epilogue(&self, x: &Tensor, z: Option<&Tensor>, sq: Option<&Tensor>) -> Tensor {
        let first = z.or(sq).expect("every type has a branch");
        let (n, oh, ow) = (first.shape()[0], first.shape()[2], first.shape()[3]);
        let (hw, len) = (oh * ow, self.block_len(first));
        let (nx, np) = (self.linear_branches(), self.product_branches());
        let ocg = self.out_channels / self.conv.groups;
        let bias = self.bias.value.as_slice();
        let mut out = vec![0.0f32; n * self.out_channels * hw];
        for (blk, o) in out.chunks_exact_mut(len).enumerate() {
            let zb = z.map(|z| &z.as_slice()[blk * nx * len..(blk + 1) * nx * len]);
            if let Some(zb) = zb {
                // T3 has a single product branch, so `b` is `a` again.
                let (a, b) = (&zb[..len], &zb[(np - 1) * len..np * len]);
                for ((o, &a), &b) in o.iter_mut().zip(a).zip(b) {
                    *o = a * b;
                }
            }
            let add = match self.neuron_type {
                NeuronType::Ours => zb.map(|zb| &zb[2 * len..3 * len]),
                NeuronType::T4Identity => Some(&x.as_slice()[blk * len..(blk + 1) * len]),
                _ => sq.map(|s| &s.as_slice()[blk * len..(blk + 1) * len]),
            };
            match add {
                Some(add) if np == 0 => o.copy_from_slice(add),
                Some(add) => o.iter_mut().zip(add).for_each(|(o, &v)| *o += v),
                None => {}
            }
            let gi = blk % self.conv.groups;
            for (row, &b) in o.chunks_exact_mut(hw).zip(&bias[gi * ocg..(gi + 1) * ocg]) {
                row.iter_mut().for_each(|o| *o += b);
            }
        }
        Tensor::from_vec(out, &[n, self.out_channels, oh, ow]).expect("output shape")
    }

    /// Keep only the product branches of the stacked linear-branch output.
    fn product_rows(&self, z: Tensor) -> Tensor {
        let (nx, np) = (self.linear_branches(), self.product_branches());
        if np == nx {
            return z;
        }
        let len = self.block_len(&z);
        let mut kept = Vec::with_capacity(z.numel() / nx * np);
        for blk in z.as_slice().chunks_exact(nx * len) {
            kept.extend_from_slice(&blk[..np * len]);
        }
        let mut shape = z.shape().to_vec();
        shape[1] = shape[1] / nx * np;
        Tensor::from_vec(kept, &shape).expect("product shape")
    }

    /// Gradient of the stacked linear branches, `[g∘b | g∘a | g]` for Ours
    /// (`g∘2a` for T3), laid out like their stacked output.
    fn stacked_grad(&self, grad_out: &Tensor, z: &Tensor) -> Tensor {
        let (nx, np) = (self.linear_branches(), self.product_branches());
        let len = self.block_len(grad_out);
        let mut gz = vec![0.0f32; grad_out.numel() * nx];
        let blocks = gz.chunks_exact_mut(nx * len).zip(grad_out.as_slice().chunks_exact(len));
        for ((gb, go), zb) in blocks.zip(z.as_slice().chunks_exact(np * len)) {
            let (ga, rest) = gb.split_at_mut(len);
            if np == 1 {
                mul_into(ga, go, &zb[..len], 2.0); // d(a²)/da = 2a
            } else {
                let (gb, gc) = rest.split_at_mut(len);
                mul_into(ga, go, &zb[len..2 * len], 1.0); // d(a·b)/da = b
                mul_into(gb, go, &zb[..len], 1.0); // d(a·b)/db = a
                if nx == 3 {
                    gc.copy_from_slice(go); // Ours: d(a·b + c)/dc = 1
                }
            }
        }
        let mut shape = grad_out.shape().to_vec();
        shape[1] *= nx;
        Tensor::from_vec(gz, &shape).expect("stacked gradient shape")
    }

    fn branch_flops(&self, x: &Tensor, y: &Tensor) -> usize {
        let n = x.shape()[0];
        let (oh, ow) = (y.shape()[2], y.shape()[3]);
        n * self.out_channels * oh * ow * (self.in_channels / self.conv.groups) * self.kernel * self.kernel
    }
}

/// `out = g ∘ (z · scale)` element-wise.
fn mul_into(out: &mut [f32], g: &[f32], z: &[f32], scale: f32) {
    for ((o, &g), &z) in out.iter_mut().zip(g).zip(z) {
        *o = g * (z * scale);
    }
}

impl Layer for QuadraticConv2d {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        assert_eq!(x.ndim(), 4, "QuadraticConv2d expects NCHW input");
        let nx = self.linear_branches();
        let z = (nx > 0).then(|| x.conv2d(&self.stacked(nx), None, self.conv).expect("conv shapes"));
        let sq =
            self.weights.get(nx).map(|w| x.square().conv2d(&w.value, None, self.conv).expect("conv shapes"));
        let out = self.epilogue(x, z.as_ref(), sq.as_ref());
        self.flops = self.weights.len() * self.branch_flops(x, &out);

        self.cached_x = train.then(|| x.clone());
        self.cached_z = match (train, self.mode) {
            (true, BackpropMode::Default) => z.map(|z| self.product_rows(z)),
            _ => None,
        };
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self.cached_x.take().expect("backward called before a train forward");
        self.bias.accumulate_grad(&Tensor::conv2d_backward_bias(grad_out).expect("bias grad"));
        let conv = self.conv;
        let (nx, np) = (self.linear_branches(), self.product_branches());

        let mut grad_in = if nx > 0 {
            let z = match self.cached_z.take() {
                Some(z) => z,
                None => x.conv2d(&self.stacked(np), None, conv).expect("conv shapes"),
            };
            let gz = self.stacked_grad(grad_out, &z);
            drop(z);
            let shape = self.weights[0].value.shape().to_vec();
            let grads =
                Tensor::conv2d_backward_weight_stacked(&gz, &x, &shape, nx, conv).expect("conv weight grad");
            for (w, g) in self.weights.iter_mut().zip(&grads) {
                w.accumulate_grad(g);
            }
            Tensor::conv2d_backward_input(&gz, &self.stacked(nx), x.shape(), conv).expect("conv input grad")
        } else {
            Tensor::zeros(x.shape())
        };
        if let Some(w) = self.weights.get_mut(nx) {
            // The x² branch: d(x²)/dx = 2x.
            let gw = Tensor::conv2d_backward_weight(grad_out, &x.square(), w.value.shape(), conv)
                .expect("conv weight grad");
            w.accumulate_grad(&gw);
            let gx =
                Tensor::conv2d_backward_input(grad_out, &w.value, x.shape(), conv).expect("conv input grad");
            grad_in.add_assign(&gx.mul(&x.mul_scalar(2.0)).expect("shape")).expect("shape");
        }
        if self.neuron_type == NeuronType::T4Identity {
            grad_in.add_assign(grad_out).expect("shape");
        }
        grad_in
    }

    fn params(&self) -> Vec<&Param> {
        self.weights.iter().chain([&self.bias]).collect()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.weights.iter_mut().chain([&mut self.bias]).collect()
    }

    fn cached_bytes(&self) -> usize {
        [&self.cached_x, &self.cached_z].into_iter().flatten().map(Tensor::nbytes).sum()
    }

    fn clear_cache(&mut self) {
        self.cached_x = None;
        self.cached_z = None;
    }

    fn flops_last_forward(&self) -> usize {
        self.flops
    }

    fn set_memory_saving(&mut self, enabled: bool) {
        self.mode = if enabled { BackpropMode::Hybrid } else { BackpropMode::Default };
    }

    fn memory_saving(&self) -> bool {
        self.mode == BackpropMode::Hybrid
    }

    fn layer_type(&self) -> &'static str {
        "quadratic_conv2d"
    }

    fn describe(&self) -> String {
        format!(
            "quadratic_conv2d[{}] {}→{} k{} ({} params, {})",
            self.neuron_type.name(),
            self.in_channels,
            self.out_channels,
            self.kernel,
            self.param_count(),
            self.mode
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quadra_autograd::{check_close, numeric_gradient};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(44)
    }

    const CONV_TYPES: [NeuronType; 6] = [
        NeuronType::T2,
        NeuronType::T3,
        NeuronType::T4,
        NeuronType::T4Identity,
        NeuronType::T2And4,
        NeuronType::Ours,
    ];

    /// Reference forward, one ordinary convolution per branch, with the
    /// branch weights given explicitly (in the layer's `Wa, Wb, Wc` order).
    fn reference_with(layer: &QuadraticConv2d, weights: &[Tensor], x: &Tensor) -> Tensor {
        let p = layer.conv;
        let conv = |input: &Tensor, i: usize| input.conv2d(&weights[i], None, p).unwrap();
        let out = match layer.neuron_type {
            NeuronType::T2 => conv(&x.square(), 0),
            NeuronType::T3 => conv(x, 0).square(),
            NeuronType::T4 => conv(x, 0).mul(&conv(x, 1)).unwrap(),
            NeuronType::T4Identity => conv(x, 0).mul(&conv(x, 1)).unwrap().add(x).unwrap(),
            NeuronType::T2And4 => conv(x, 0).mul(&conv(x, 1)).unwrap().add(&conv(&x.square(), 2)).unwrap(),
            NeuronType::Ours => conv(x, 0).mul(&conv(x, 1)).unwrap().add(&conv(x, 2)).unwrap(),
            _ => unreachable!(),
        };
        let bias = layer.bias.value.reshape(&[1, layer.out_channels, 1, 1]).unwrap();
        out.add(&bias).unwrap()
    }

    /// Reference forward with the layer's own weights.
    fn reference_forward(layer: &QuadraticConv2d, x: &Tensor) -> Tensor {
        let weights: Vec<Tensor> = layer.weights.iter().map(|w| w.value.clone()).collect();
        reference_with(layer, &weights, x)
    }

    /// A layer of type `t` with 4 input and output channels.
    fn layer_4x4(t: NeuronType, stride: usize, groups: usize, r: &mut StdRng) -> QuadraticConv2d {
        let mut layer = QuadraticConv2d::new(t, 4, 4, 3, stride, 1, groups, r);
        // A non-zero bias, so the epilogue's bias term is checked too.
        layer.bias.value = Tensor::randn(&[4], 0.0, 1.0, r);
        layer
    }

    #[test]
    fn forward_matches_reference_for_all_conv_types() {
        let mut r = rng();
        for t in CONV_TYPES {
            for groups in [1, 2] {
                for stride in [1, 2] {
                    if t == NeuronType::T4Identity && stride != 1 {
                        continue; // identity mapping needs a shape-preserving conv
                    }
                    for batch in [1, 3] {
                        let mut layer = layer_4x4(t, stride, groups, &mut r);
                        let x = Tensor::randn(&[batch, 4, 6, 6], 0.0, 1.0, &mut r);
                        let y = layer.forward(&x, false);
                        let case = format!("type {t} groups {groups} stride {stride} batch {batch}");
                        assert!(y.allclose(&reference_forward(&layer, &x), 1e-5), "{case}");
                        assert_eq!(y.shape(), &[batch, 4, 6 / stride, 6 / stride], "{case}");
                        assert_eq!(layer.forward(&x, true).as_slice(), y.as_slice(), "{case}");
                        assert!(layer.flops_last_forward() > 0);
                    }
                }
            }
        }
    }

    #[test]
    fn eval_forward_caches_nothing() {
        let mut r = rng();
        for t in CONV_TYPES {
            for mode in [BackpropMode::Default, BackpropMode::Hybrid] {
                let mut layer = layer_4x4(t, 1, 1, &mut r);
                layer.set_mode(mode);
                let x = Tensor::randn(&[2, 4, 5, 5], 0.0, 1.0, &mut r);
                let _ = layer.forward(&x, true);
                assert!(layer.cached_bytes() >= x.nbytes(), "type {t} {mode}");
                let _ = layer.forward(&x, false);
                assert_eq!(layer.cached_bytes(), 0, "type {t} {mode}");
            }
        }
    }

    #[test]
    fn backward_input_gradcheck_all_conv_types() {
        let mut r = rng();
        for t in CONV_TYPES {
            for groups in [1, 2] {
                let mut layer = layer_4x4(t, 1, groups, &mut r);
                let x = Tensor::randn(&[1, 4, 4, 4], 0.0, 1.0, &mut r);
                let y = layer.forward(&x, true);
                let gin = layer.backward(&Tensor::ones_like(&y));
                let lref = &layer;
                let numeric = numeric_gradient(|xv| reference_forward(lref, xv).sum(), &x, 1e-2);
                let rep = check_close(&gin, &numeric);
                assert!(rep.passes(8e-2), "type {t} groups {groups}: {rep:?}");
            }
        }
    }

    #[test]
    fn backward_weight_gradcheck_all_conv_types() {
        let mut r = rng();
        for t in CONV_TYPES {
            for (stride, groups) in [(1, 1), (2, 2)] {
                if t == NeuronType::T4Identity && stride != 1 {
                    continue;
                }
                let mut layer = layer_4x4(t, stride, groups, &mut r);
                let x = Tensor::randn(&[2, 4, 4, 4], 0.0, 1.0, &mut r);
                let y = layer.forward(&x, true);
                // A random upstream gradient weights every output differently.
                let g = Tensor::randn(y.shape(), 0.0, 1.0, &mut r);
                layer.backward(&g);
                let weights: Vec<Tensor> = layer.weights.iter().map(|w| w.value.clone()).collect();
                for (idx, w) in layer.weights.iter().enumerate() {
                    let f = |wv: &Tensor| {
                        let mut ws = weights.clone();
                        ws[idx] = wv.clone();
                        reference_with(&layer, &ws, &x).mul(&g).unwrap().sum()
                    };
                    let rep = check_close(&w.grad, &numeric_gradient(f, &w.value, 1e-2));
                    assert!(rep.passes(1e-1), "type {t} stride {stride} groups {groups} {}: {rep:?}", w.name);
                }
            }
        }
    }

    #[test]
    fn hybrid_mode_identical_gradients_lower_memory() {
        let mut r = rng();
        let mut d = QuadraticConv2d::conv3x3(NeuronType::Ours, 3, 4, &mut r);
        let mut h = QuadraticConv2d::conv3x3(NeuronType::Ours, 3, 4, &mut r);
        for (pd, ph) in d.params().iter().zip(h.params_mut()) {
            ph.value.copy_from(&pd.value).unwrap();
        }
        h.set_mode(BackpropMode::Hybrid);
        let x = Tensor::randn(&[2, 3, 8, 8], 0.0, 1.0, &mut r);
        let yd = d.forward(&x, true);
        let yh = h.forward(&x, true);
        assert!(yd.allclose(&yh, 1e-5));
        // Default caches x + za + zb; hybrid only x.
        assert_eq!(h.cached_bytes(), x.nbytes());
        assert!(d.cached_bytes() > h.cached_bytes());
        let g = Tensor::randn(yd.shape(), 0.0, 1.0, &mut r);
        let gd = d.backward(&g);
        let gh = h.backward(&g);
        assert!(gd.allclose(&gh, 1e-4));
        for (pd, ph) in d.params().iter().zip(h.params()) {
            assert!(pd.grad.allclose(&ph.grad, 1e-4));
        }
    }

    #[test]
    fn ours_conv_param_count_is_three_first_order_convs() {
        let mut r = rng();
        let layer = QuadraticConv2d::conv3x3(NeuronType::Ours, 16, 32, &mut r);
        let first_order = 32 * 16 * 9;
        assert_eq!(layer.param_count(), 3 * first_order + 32);
        assert_eq!(layer.neuron_type(), NeuronType::Ours);
        assert_eq!(layer.in_channels(), 16);
        assert_eq!(layer.out_channels(), 32);
        assert_eq!(layer.kernel(), 3);
        assert_eq!(layer.layer_type(), "quadratic_conv2d");
        assert!(layer.describe().contains("Ours"));
    }

    #[test]
    fn strided_and_grouped_quadratic_conv() {
        let mut r = rng();
        let mut layer = QuadraticConv2d::new(NeuronType::Ours, 4, 8, 3, 2, 1, 2, &mut r);
        let x = Tensor::randn(&[1, 4, 8, 8], 0.0, 1.0, &mut r);
        let y = layer.forward(&x, true);
        assert_eq!(y.shape(), &[1, 8, 4, 4]);
        let gin = layer.backward(&Tensor::ones_like(&y));
        assert_eq!(gin.shape(), x.shape());
        assert!(!gin.has_non_finite());
        assert_eq!(layer.conv_params().groups, 2);
    }

    #[test]
    #[should_panic(expected = "not supported")]
    fn t1_conv_is_rejected() {
        let mut r = rng();
        let _ = QuadraticConv2d::conv3x3(NeuronType::T1, 2, 2, &mut r);
    }

    #[test]
    #[should_panic]
    fn t4_identity_requires_shape_preserving_config() {
        let mut r = rng();
        let _ = QuadraticConv2d::new(NeuronType::T4Identity, 2, 4, 3, 1, 1, 1, &mut r);
    }

    #[test]
    fn cache_lifecycle() {
        let mut r = rng();
        let mut layer = QuadraticConv2d::conv3x3(NeuronType::T2, 1, 1, &mut r);
        let x = Tensor::randn(&[1, 1, 4, 4], 0.0, 1.0, &mut r);
        let _ = layer.forward(&x, true);
        assert!(layer.cached_bytes() > 0);
        layer.clear_cache();
        assert_eq!(layer.cached_bytes(), 0);
        assert_eq!(layer.mode(), BackpropMode::Default);
    }
}
