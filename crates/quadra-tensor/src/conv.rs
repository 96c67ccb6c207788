//! 2-D convolution (NCHW) via im2col / col2im, with stride, zero-padding and
//! grouped convolution (which covers depth-wise convolution for MobileNetV1).
//!
//! The forward pass and both backward passes (w.r.t. input and weight) are
//! implemented so the layer crates can use closed-form ("symbolic") gradients —
//! the ingredient the paper's hybrid back-propagation scheme relies on.

use crate::error::{Result, TensorError};
use crate::gemm::{gemm_into, gemm_nt_into, gemm_tn_into};
use crate::tensor::Tensor;
use rayon::prelude::*;

/// Configuration of a 2-D convolution: square kernel, stride, padding, groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dParams {
    /// Stride along both spatial axes.
    pub stride: usize,
    /// Zero padding added on every side of both spatial axes.
    pub padding: usize,
    /// Number of groups; `groups == in_channels` gives depth-wise convolution.
    pub groups: usize,
}

impl Default for Conv2dParams {
    fn default() -> Self {
        Conv2dParams { stride: 1, padding: 0, groups: 1 }
    }
}

impl Conv2dParams {
    /// Convenience constructor.
    pub fn new(stride: usize, padding: usize, groups: usize) -> Self {
        Conv2dParams { stride, padding, groups }
    }

    /// Output spatial extent for an input extent `in_size` and kernel extent `k`.
    ///
    /// Returns 0 when the kernel exceeds the padded input (no valid output
    /// position exists); the `+ 1` only applies once the kernel fits.
    pub fn out_size(&self, in_size: usize, k: usize) -> usize {
        let padded = in_size + 2 * self.padding;
        if padded < k {
            return 0;
        }
        (padded - k) / self.stride + 1
    }

    fn validate(&self, in_c: usize, h: usize, w: usize, kh: usize, kw: usize) -> Result<()> {
        if self.stride == 0 {
            return Err(TensorError::InvalidConvConfig { msg: "stride must be >= 1".into() });
        }
        if self.groups == 0 || in_c % self.groups != 0 {
            return Err(TensorError::InvalidConvConfig {
                msg: format!("groups {} must divide input channels {}", self.groups, in_c),
            });
        }
        if h + 2 * self.padding < kh || w + 2 * self.padding < kw {
            return Err(TensorError::InvalidConvConfig {
                msg: format!(
                    "kernel {}x{} larger than padded input {}x{}",
                    kh,
                    kw,
                    h + 2 * self.padding,
                    w + 2 * self.padding
                ),
            });
        }
        Ok(())
    }
}

/// Lower one NCHW image batch into column form.
///
/// Returns a `[n, c*kh*kw, oh*ow]` tensor where each column holds the receptive
/// field of one output location.
pub fn im2col(input: &Tensor, kh: usize, kw: usize, params: Conv2dParams) -> Result<Tensor> {
    if input.ndim() != 4 {
        return Err(TensorError::RankMismatch { op: "im2col", expected: 4, actual: input.ndim() });
    }
    let (n, c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2], input.shape()[3]);
    params.validate(c, h, w, kh, kw)?;
    let oh = params.out_size(h, kh);
    let ow = params.out_size(w, kw);
    let col_rows = c * kh * kw;
    let col_cols = oh * ow;
    let src = input.as_slice();
    let mut out = vec![0.0f32; n * col_rows * col_cols];
    let stride = params.stride;
    let pad = params.padding as isize;

    if col_rows * col_cols == 0 {
        // Zero channels: nothing to lower (par_chunks_mut rejects size 0).
        return Tensor::from_vec(out, &[n, col_rows, col_cols]);
    }
    out.par_chunks_mut(col_rows * col_cols).enumerate().for_each(|(ni, chunk)| {
        let img = &src[ni * c * h * w..(ni + 1) * c * h * w];
        for ci in 0..c {
            for ki in 0..kh {
                for kj in 0..kw {
                    let row = (ci * kh + ki) * kw + kj;
                    let dst_row = &mut chunk[row * col_cols..(row + 1) * col_cols];
                    for ohi in 0..oh {
                        let ih = (ohi * stride) as isize + ki as isize - pad;
                        if ih < 0 || ih >= h as isize {
                            continue;
                        }
                        for owi in 0..ow {
                            let iw = (owi * stride) as isize + kj as isize - pad;
                            if iw < 0 || iw >= w as isize {
                                continue;
                            }
                            dst_row[ohi * ow + owi] = img[(ci * h + ih as usize) * w + iw as usize];
                        }
                    }
                }
            }
        }
    });
    Tensor::from_vec(out, &[n, col_rows, col_cols])
}

/// Inverse of [`im2col`]: scatter-add column form back into an NCHW image batch.
///
/// `cols` must have shape `[n, c*kh*kw, oh*ow]`; the result has shape
/// `[n, c, h, w]`. Overlapping receptive fields accumulate, which is exactly
/// the gradient of im2col.
pub fn col2im(
    cols: &Tensor,
    out_shape: &[usize],
    kh: usize,
    kw: usize,
    params: Conv2dParams,
) -> Result<Tensor> {
    if cols.ndim() != 3 {
        return Err(TensorError::RankMismatch { op: "col2im", expected: 3, actual: cols.ndim() });
    }
    if out_shape.len() != 4 {
        return Err(TensorError::InvalidArgument { msg: "col2im output shape must be NCHW".into() });
    }
    let (n, c, h, w) = (out_shape[0], out_shape[1], out_shape[2], out_shape[3]);
    params.validate(c, h, w, kh, kw)?;
    let oh = params.out_size(h, kh);
    let ow = params.out_size(w, kw);
    let col_rows = c * kh * kw;
    let col_cols = oh * ow;
    if cols.shape() != [n, col_rows, col_cols] {
        return Err(TensorError::IncompatibleShapes {
            op: "col2im",
            lhs: cols.shape().to_vec(),
            rhs: vec![n, col_rows, col_cols],
        });
    }
    let src = cols.as_slice();
    let mut out = vec![0.0f32; n * c * h * w];
    let stride = params.stride;
    let pad = params.padding as isize;

    if c * h * w == 0 {
        // Zero channels / extent: nothing to scatter back.
        return Tensor::from_vec(out, out_shape);
    }
    out.par_chunks_mut(c * h * w).enumerate().for_each(|(ni, img)| {
        let chunk = &src[ni * col_rows * col_cols..(ni + 1) * col_rows * col_cols];
        for ci in 0..c {
            for ki in 0..kh {
                for kj in 0..kw {
                    let row = (ci * kh + ki) * kw + kj;
                    let src_row = &chunk[row * col_cols..(row + 1) * col_cols];
                    for ohi in 0..oh {
                        let ih = (ohi * stride) as isize + ki as isize - pad;
                        if ih < 0 || ih >= h as isize {
                            continue;
                        }
                        for owi in 0..ow {
                            let iw = (owi * stride) as isize + kj as isize - pad;
                            if iw < 0 || iw >= w as isize {
                                continue;
                            }
                            img[(ci * h + ih as usize) * w + iw as usize] += src_row[ohi * ow + owi];
                        }
                    }
                }
            }
        }
    });
    Tensor::from_vec(out, out_shape)
}

/// Stack the weights of convolutions that share one input into one weight.
///
/// Every part is an `[oc, in_c/groups, kh, kw]` weight. The result is
/// `[parts·oc, in_c/groups, kh, kw]`, stacked group-major: group `g` holds
/// the group-`g` rows of each part in turn, `[g][part][oc/groups]`. With the
/// same `groups`, [`Tensor::conv2d`] accepts it unchanged and computes every
/// part in one GEMM per sample and group; output channel
/// `(g·parts + p)·oc/groups + j` is channel `g·oc/groups + j` of part `p`.
pub fn stack_conv_weights(parts: &[&Tensor], groups: usize) -> Result<Tensor> {
    let first = parts.first().ok_or_else(|| TensorError::InvalidArgument {
        msg: "stack_conv_weights needs at least one weight".into(),
    })?;
    if first.ndim() != 4 || groups == 0 || first.shape()[0] % groups != 0 {
        return Err(TensorError::InvalidConvConfig {
            msg: format!("cannot stack weight {:?} in {} groups", first.shape(), groups),
        });
    }
    if let Some(other) = parts.iter().find(|w| w.shape() != first.shape()) {
        return Err(TensorError::IncompatibleShapes {
            op: "stack_conv_weights",
            lhs: first.shape().to_vec(),
            rhs: other.shape().to_vec(),
        });
    }
    let per_group = first.numel() / groups;
    let mut out = Vec::with_capacity(parts.len() * first.numel());
    for gi in 0..groups {
        for w in parts {
            out.extend_from_slice(&w.as_slice()[gi * per_group..(gi + 1) * per_group]);
        }
    }
    let mut shape = first.shape().to_vec();
    shape[0] *= parts.len();
    Tensor::from_vec(out, &shape)
}

impl Tensor {
    /// 2-D convolution of an NCHW input with an `[out_c, in_c/groups, kh, kw]`
    /// weight tensor and optional `[out_c]` bias.
    pub fn conv2d(&self, weight: &Tensor, bias: Option<&Tensor>, params: Conv2dParams) -> Result<Tensor> {
        if self.ndim() != 4 {
            return Err(TensorError::RankMismatch { op: "conv2d", expected: 4, actual: self.ndim() });
        }
        if weight.ndim() != 4 {
            return Err(TensorError::RankMismatch {
                op: "conv2d weight",
                expected: 4,
                actual: weight.ndim(),
            });
        }
        let (n, c, h, w) = (self.shape()[0], self.shape()[1], self.shape()[2], self.shape()[3]);
        let (oc, wc, kh, kw) = (weight.shape()[0], weight.shape()[1], weight.shape()[2], weight.shape()[3]);
        params.validate(c, h, w, kh, kw)?;
        let g = params.groups;
        if wc != c / g || oc % g != 0 {
            return Err(TensorError::IncompatibleShapes {
                op: "conv2d",
                lhs: self.shape().to_vec(),
                rhs: weight.shape().to_vec(),
            });
        }
        if let Some(b) = bias {
            if b.shape() != [oc] {
                return Err(TensorError::IncompatibleShapes {
                    op: "conv2d bias",
                    lhs: vec![oc],
                    rhs: b.shape().to_vec(),
                });
            }
        }
        let oh = params.out_size(h, kh);
        let ow = params.out_size(w, kw);
        let cols = im2col(self, kh, kw, params)?;
        let col_rows = c * kh * kw;
        let col_cols = oh * ow;
        let group_rows = col_rows / g; // (c/g)*kh*kw
        let oc_g = oc / g;
        let wsrc = weight.as_slice();
        let csrc = cols.as_slice();
        let mut out = vec![0.0f32; n * oc * col_cols];

        if oc * col_cols == 0 {
            // Zero output channels: the result is an empty [n, 0, oh, ow].
            return Tensor::from_vec(out, &[n, oc, oh, ow]);
        }
        out.par_chunks_mut(oc * col_cols).enumerate().for_each(|(ni, ochunk)| {
            let col_n = &csrc[ni * col_rows * col_cols..(ni + 1) * col_rows * col_cols];
            for gi in 0..g {
                // weight slice for this group: [oc_g, group_rows]
                let wg = &wsrc[gi * oc_g * group_rows..(gi + 1) * oc_g * group_rows];
                let cg = &col_n[gi * group_rows * col_cols..(gi + 1) * group_rows * col_cols];
                // Row-parallel GEMM only for batch-size-1 calls, where the
                // sample-level loop above has a single chunk to hand out.
                gemm_into(
                    &mut ochunk[gi * oc_g * col_cols..(gi + 1) * oc_g * col_cols],
                    wg,
                    cg,
                    oc_g,
                    group_rows,
                    col_cols,
                    n == 1,
                );
            }
            if let Some(b) = bias {
                let bsrc = b.as_slice();
                for oci in 0..oc {
                    let bval = bsrc[oci];
                    for v in ochunk[oci * col_cols..(oci + 1) * col_cols].iter_mut() {
                        *v += bval;
                    }
                }
            }
        });
        Tensor::from_vec(out, &[n, oc, oh, ow])
    }

    /// Gradient of a conv2d output with respect to its input.
    ///
    /// `grad_out` has shape `[n, oc, oh, ow]`; the result has `input_shape`.
    pub fn conv2d_backward_input(
        grad_out: &Tensor,
        weight: &Tensor,
        input_shape: &[usize],
        params: Conv2dParams,
    ) -> Result<Tensor> {
        if grad_out.ndim() != 4 || weight.ndim() != 4 || input_shape.len() != 4 {
            return Err(TensorError::InvalidArgument {
                msg: "conv2d_backward_input expects NCHW tensors".into(),
            });
        }
        let (n, c, h, w) = (input_shape[0], input_shape[1], input_shape[2], input_shape[3]);
        let (oc, _, kh, kw) = (weight.shape()[0], weight.shape()[1], weight.shape()[2], weight.shape()[3]);
        params.validate(c, h, w, kh, kw)?;
        let g = params.groups;
        let oh = params.out_size(h, kh);
        let ow = params.out_size(w, kw);
        if grad_out.shape() != [n, oc, oh, ow] {
            return Err(TensorError::IncompatibleShapes {
                op: "conv2d_backward_input",
                lhs: grad_out.shape().to_vec(),
                rhs: vec![n, oc, oh, ow],
            });
        }
        let col_rows = c * kh * kw;
        let col_cols = oh * ow;
        let group_rows = col_rows / g;
        let oc_g = oc / g;
        let wsrc = weight.as_slice();
        let gsrc = grad_out.as_slice();

        // grad_cols[n] = Wᵀ · grad_out[n] (per group) — the tn kernel reads the
        // weight with swapped strides, so no transposed copy is materialised.
        let mut grad_cols = vec![0.0f32; n * col_rows * col_cols];
        if col_rows * col_cols == 0 {
            // Zero channels: the input gradient is an empty tensor.
            let grad_cols = Tensor::from_vec(grad_cols, &[n, col_rows, col_cols])?;
            return col2im(&grad_cols, input_shape, kh, kw, params);
        }
        grad_cols.par_chunks_mut(col_rows * col_cols).enumerate().for_each(|(ni, chunk)| {
            let go_n = &gsrc[ni * oc * col_cols..(ni + 1) * oc * col_cols];
            for gi in 0..g {
                let wg = &wsrc[gi * oc_g * group_rows..(gi + 1) * oc_g * group_rows];
                let go_g = &go_n[gi * oc_g * col_cols..(gi + 1) * oc_g * col_cols];
                gemm_tn_into(
                    &mut chunk[gi * group_rows * col_cols..(gi + 1) * group_rows * col_cols],
                    wg,
                    go_g,
                    group_rows,
                    oc_g,
                    col_cols,
                    n == 1,
                );
            }
        });
        let grad_cols = Tensor::from_vec(grad_cols, &[n, col_rows, col_cols])?;
        col2im(&grad_cols, input_shape, kh, kw, params)
    }

    /// Gradient of a conv2d output with respect to its weight.
    ///
    /// Returns a tensor with the same shape as `weight`.
    pub fn conv2d_backward_weight(
        grad_out: &Tensor,
        input: &Tensor,
        weight_shape: &[usize],
        params: Conv2dParams,
    ) -> Result<Tensor> {
        let mut grads = Self::conv2d_backward_weight_stacked(grad_out, input, weight_shape, 1, params)?;
        grads.pop().ok_or_else(|| TensorError::InvalidArgument { msg: "no weight gradient".into() })
    }

    /// Weight gradients of `parts` convolutions of one input, given the
    /// gradient of their stacked output (see [`stack_conv_weights`]).
    ///
    /// `grad_out` has `parts·oc` channels in the stacked group-major order;
    /// the result holds one `weight_shape` gradient per part. The input is
    /// lowered once and the parts are reduced one after another from the
    /// shared columns, so the per-batch partial sums stay one part in size.
    pub fn conv2d_backward_weight_stacked(
        grad_out: &Tensor,
        input: &Tensor,
        weight_shape: &[usize],
        parts: usize,
        params: Conv2dParams,
    ) -> Result<Vec<Tensor>> {
        if grad_out.ndim() != 4 || input.ndim() != 4 || weight_shape.len() != 4 {
            return Err(TensorError::InvalidArgument {
                msg: "conv2d_backward_weight expects NCHW tensors".into(),
            });
        }
        let (n, c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2], input.shape()[3]);
        let (oc, _wc, kh, kw) = (weight_shape[0], weight_shape[1], weight_shape[2], weight_shape[3]);
        params.validate(c, h, w, kh, kw)?;
        let g = params.groups;
        let oh = params.out_size(h, kh);
        let ow = params.out_size(w, kw);
        if grad_out.shape() != [n, parts * oc, oh, ow] {
            return Err(TensorError::IncompatibleShapes {
                op: "conv2d_backward_weight",
                lhs: grad_out.shape().to_vec(),
                rhs: vec![n, parts * oc, oh, ow],
            });
        }
        let cols = im2col(input, kh, kw, params)?;
        let col_rows = c * kh * kw;
        let col_cols = oh * ow;
        let group_rows = col_rows / g;
        let oc_g = oc / g;
        let csrc = cols.as_slice();
        let gsrc = grad_out.as_slice();

        // Parallel reduce over a fixed number of sample batches: each batch
        // folds its samples into one gradient buffer via the accumulating nt
        // kernel (gw_g += grad_out_g · cols_gᵀ, transpose-free), bounding peak
        // extra memory at `batches × oc × group_rows` instead of
        // `n × oc × group_rows`. The batch count is a constant — not the host
        // core count — so the float summation order (and therefore seeded
        // training) is reproducible across machines.
        const WEIGHT_REDUCE_BATCHES: usize = 8;
        let batches = WEIGHT_REDUCE_BATCHES.min(n.max(1));
        let per = n.div_ceil(batches);
        (0..parts)
            .map(|part| {
                let partials: Vec<Vec<f32>> = (0..batches)
                    .into_par_iter()
                    .map(|wi| {
                        let mut gw = vec![0.0f32; oc * group_rows];
                        for ni in wi * per..((wi + 1) * per).min(n) {
                            let col_n = &csrc[ni * col_rows * col_cols..(ni + 1) * col_rows * col_cols];
                            let go_n = &gsrc[ni * parts * oc * col_cols..(ni + 1) * parts * oc * col_cols];
                            for gi in 0..g {
                                let row0 = (gi * parts + part) * oc_g;
                                let go_g = &go_n[row0 * col_cols..(row0 + oc_g) * col_cols];
                                let col_g =
                                    &col_n[gi * group_rows * col_cols..(gi + 1) * group_rows * col_cols];
                                gemm_nt_into(
                                    &mut gw[gi * oc_g * group_rows..(gi + 1) * oc_g * group_rows],
                                    go_g,
                                    col_g,
                                    oc_g,
                                    col_cols,
                                    group_rows,
                                    batches == 1,
                                );
                            }
                        }
                        gw
                    })
                    .collect();
                let mut acc = vec![0.0f32; oc * group_rows];
                for p in partials {
                    for (a, v) in acc.iter_mut().zip(p) {
                        *a += v;
                    }
                }
                Tensor::from_vec(acc, weight_shape)
            })
            .collect()
    }

    /// Gradient of a conv2d output with respect to its bias: sum over batch and
    /// spatial locations, shape `[oc]`.
    pub fn conv2d_backward_bias(grad_out: &Tensor) -> Result<Tensor> {
        if grad_out.ndim() != 4 {
            return Err(TensorError::RankMismatch {
                op: "conv2d_backward_bias",
                expected: 4,
                actual: grad_out.ndim(),
            });
        }
        let (n, oc, oh, ow) =
            (grad_out.shape()[0], grad_out.shape()[1], grad_out.shape()[2], grad_out.shape()[3]);
        let src = grad_out.as_slice();
        let mut out = vec![0.0f32; oc];
        for ni in 0..n {
            for (oci, acc) in out.iter_mut().enumerate() {
                let base = (ni * oc + oci) * oh * ow;
                *acc += src[base..base + oh * ow].iter().sum::<f32>();
            }
        }
        Tensor::from_vec(out, &[oc])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Direct (nested-loop) convolution used as a reference implementation.
    fn naive_conv2d(input: &Tensor, weight: &Tensor, bias: Option<&Tensor>, p: Conv2dParams) -> Tensor {
        let (n, c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2], input.shape()[3]);
        let (oc, _, kh, kw) = (weight.shape()[0], weight.shape()[1], weight.shape()[2], weight.shape()[3]);
        let oh = p.out_size(h, kh);
        let ow = p.out_size(w, kw);
        let g = p.groups;
        let cg = c / g;
        let ocg = oc / g;
        let mut out = Tensor::zeros(&[n, oc, oh, ow]);
        for ni in 0..n {
            for oci in 0..oc {
                let gi = oci / ocg;
                for ohi in 0..oh {
                    for owi in 0..ow {
                        let mut s = bias.map(|b| b.at(&[oci])).unwrap_or(0.0);
                        for ci in 0..cg {
                            for ki in 0..kh {
                                for kj in 0..kw {
                                    let ih = (ohi * p.stride + ki) as isize - p.padding as isize;
                                    let iw = (owi * p.stride + kj) as isize - p.padding as isize;
                                    if ih < 0 || iw < 0 || ih >= h as isize || iw >= w as isize {
                                        continue;
                                    }
                                    s += input.at(&[ni, gi * cg + ci, ih as usize, iw as usize])
                                        * weight.at(&[oci, ci, ki, kj]);
                                }
                            }
                        }
                        out.set(&[ni, oci, ohi, owi], s);
                    }
                }
            }
        }
        out
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    #[test]
    fn im2col_known_values() {
        // 1x1x3x3 input, 2x2 kernel, stride 1, no padding.
        let input = Tensor::arange(0.0, 1.0, 9).reshape(&[1, 1, 3, 3]).unwrap();
        let cols = im2col(&input, 2, 2, Conv2dParams::default()).unwrap();
        assert_eq!(cols.shape(), &[1, 4, 4]);
        // First column is the top-left 2x2 patch [0,1,3,4].
        assert_eq!(cols.at(&[0, 0, 0]), 0.0);
        assert_eq!(cols.at(&[0, 1, 0]), 1.0);
        assert_eq!(cols.at(&[0, 2, 0]), 3.0);
        assert_eq!(cols.at(&[0, 3, 0]), 4.0);
        // Last column is the bottom-right patch [4,5,7,8].
        assert_eq!(cols.at(&[0, 0, 3]), 4.0);
        assert_eq!(cols.at(&[0, 3, 3]), 8.0);
    }

    #[test]
    fn conv2d_matches_naive_basic() {
        let mut r = rng();
        let input = Tensor::randn(&[2, 3, 8, 8], 0.0, 1.0, &mut r);
        let weight = Tensor::randn(&[4, 3, 3, 3], 0.0, 0.5, &mut r);
        let bias = Tensor::randn(&[4], 0.0, 0.5, &mut r);
        let p = Conv2dParams::new(1, 1, 1);
        let fast = input.conv2d(&weight, Some(&bias), p).unwrap();
        let slow = naive_conv2d(&input, &weight, Some(&bias), p);
        assert_eq!(fast.shape(), &[2, 4, 8, 8]);
        assert!(fast.allclose(&slow, 1e-4));
    }

    #[test]
    fn conv2d_matches_naive_stride_and_padding() {
        let mut r = rng();
        let input = Tensor::randn(&[1, 2, 9, 7], 0.0, 1.0, &mut r);
        let weight = Tensor::randn(&[3, 2, 3, 3], 0.0, 0.5, &mut r);
        let p = Conv2dParams::new(2, 1, 1);
        let fast = input.conv2d(&weight, None, p).unwrap();
        let slow = naive_conv2d(&input, &weight, None, p);
        assert_eq!(fast.shape(), slow.shape());
        assert!(fast.allclose(&slow, 1e-4));
    }

    #[test]
    fn depthwise_conv_matches_naive() {
        let mut r = rng();
        let input = Tensor::randn(&[2, 4, 6, 6], 0.0, 1.0, &mut r);
        let weight = Tensor::randn(&[4, 1, 3, 3], 0.0, 0.5, &mut r);
        let p = Conv2dParams::new(1, 1, 4);
        let fast = input.conv2d(&weight, None, p).unwrap();
        let slow = naive_conv2d(&input, &weight, None, p);
        assert!(fast.allclose(&slow, 1e-4));
    }

    #[test]
    fn grouped_conv_multiple_out_per_group() {
        let mut r = rng();
        let input = Tensor::randn(&[1, 4, 5, 5], 0.0, 1.0, &mut r);
        let weight = Tensor::randn(&[6, 2, 3, 3], 0.0, 0.5, &mut r);
        let p = Conv2dParams::new(1, 0, 2);
        let fast = input.conv2d(&weight, None, p).unwrap();
        let slow = naive_conv2d(&input, &weight, None, p);
        assert!(fast.allclose(&slow, 1e-4));
    }

    #[test]
    fn conv_1x1_equals_channel_matmul() {
        let mut r = rng();
        let input = Tensor::randn(&[1, 3, 4, 4], 0.0, 1.0, &mut r);
        let weight = Tensor::randn(&[5, 3, 1, 1], 0.0, 1.0, &mut r);
        let out = input.conv2d(&weight, None, Conv2dParams::default()).unwrap();
        assert_eq!(out.shape(), &[1, 5, 4, 4]);
        // pixel (2,3): out[., oc] = W[oc, :] . input[., :, 2, 3]
        let px: Vec<f32> = (0..3).map(|c| input.at(&[0, c, 2, 3])).collect();
        for oc in 0..5 {
            let wrow: Vec<f32> = (0..3).map(|c| weight.at(&[oc, c, 0, 0])).collect();
            let expect: f32 = px.iter().zip(&wrow).map(|(a, b)| a * b).sum();
            assert!((out.at(&[0, oc, 2, 3]) - expect).abs() < 1e-5);
        }
    }

    #[test]
    fn conv_config_errors() {
        let input = Tensor::zeros(&[1, 3, 4, 4]);
        let weight = Tensor::zeros(&[2, 3, 3, 3]);
        assert!(input.conv2d(&weight, None, Conv2dParams::new(0, 0, 1)).is_err());
        assert!(input.conv2d(&weight, None, Conv2dParams::new(1, 0, 2)).is_err());
        assert!(input.conv2d(&weight, None, Conv2dParams::new(1, 0, 0)).is_err());
        assert!(input.conv2d(&Tensor::zeros(&[2, 3, 9, 9]), None, Conv2dParams::default()).is_err());
        assert!(input.conv2d(&Tensor::zeros(&[2, 2, 3, 3]), None, Conv2dParams::default()).is_err());
        assert!(input.conv2d(&weight, Some(&Tensor::zeros(&[3])), Conv2dParams::new(1, 1, 1)).is_err());
        assert!(Tensor::zeros(&[3, 4, 4]).conv2d(&weight, None, Conv2dParams::default()).is_err());
        assert!(input.conv2d(&Tensor::zeros(&[2, 3, 3]), None, Conv2dParams::default()).is_err());
    }

    #[test]
    fn backward_input_matches_finite_difference() {
        let mut r = rng();
        let input = Tensor::randn(&[1, 2, 5, 5], 0.0, 1.0, &mut r);
        let weight = Tensor::randn(&[3, 2, 3, 3], 0.0, 0.5, &mut r);
        let p = Conv2dParams::new(1, 1, 1);
        let out = input.conv2d(&weight, None, p).unwrap();
        // loss = sum(out); d loss / d out = ones
        let grad_out = Tensor::ones_like(&out);
        let grad_in = Tensor::conv2d_backward_input(&grad_out, &weight, input.shape(), p).unwrap();
        assert_eq!(grad_in.shape(), input.shape());
        let eps = 1e-2;
        for &flat in &[0usize, 7, 24, 33, 49] {
            let mut plus = input.clone();
            plus.as_mut_slice()[flat] += eps;
            let mut minus = input.clone();
            minus.as_mut_slice()[flat] -= eps;
            let fd = (plus.conv2d(&weight, None, p).unwrap().sum()
                - minus.conv2d(&weight, None, p).unwrap().sum())
                / (2.0 * eps);
            assert!(
                (grad_in.as_slice()[flat] - fd).abs() < 1e-2,
                "analytic {} vs fd {}",
                grad_in.as_slice()[flat],
                fd
            );
        }
    }

    #[test]
    fn backward_weight_matches_finite_difference() {
        let mut r = rng();
        let input = Tensor::randn(&[2, 2, 4, 4], 0.0, 1.0, &mut r);
        let weight = Tensor::randn(&[2, 2, 3, 3], 0.0, 0.5, &mut r);
        let p = Conv2dParams::new(1, 1, 1);
        let out = input.conv2d(&weight, None, p).unwrap();
        let grad_out = Tensor::ones_like(&out);
        let grad_w = Tensor::conv2d_backward_weight(&grad_out, &input, weight.shape(), p).unwrap();
        assert_eq!(grad_w.shape(), weight.shape());
        let eps = 1e-2;
        for &flat in &[0usize, 5, 17, 35] {
            let mut plus = weight.clone();
            plus.as_mut_slice()[flat] += eps;
            let mut minus = weight.clone();
            minus.as_mut_slice()[flat] -= eps;
            let fd = (input.conv2d(&plus, None, p).unwrap().sum()
                - input.conv2d(&minus, None, p).unwrap().sum())
                / (2.0 * eps);
            assert!(
                (grad_w.as_slice()[flat] - fd).abs() < 2e-2,
                "analytic {} vs fd {}",
                grad_w.as_slice()[flat],
                fd
            );
        }
    }

    #[test]
    fn backward_bias_sums_spatial_and_batch() {
        let grad_out = Tensor::ones(&[3, 2, 4, 4]);
        let gb = Tensor::conv2d_backward_bias(&grad_out).unwrap();
        assert_eq!(gb.shape(), &[2]);
        assert_eq!(gb.as_slice(), &[48.0, 48.0]);
        assert!(Tensor::conv2d_backward_bias(&Tensor::zeros(&[2, 2])).is_err());
    }

    #[test]
    fn backward_depthwise_gradients_finite_difference() {
        let mut r = rng();
        let input = Tensor::randn(&[1, 3, 4, 4], 0.0, 1.0, &mut r);
        let weight = Tensor::randn(&[3, 1, 3, 3], 0.0, 0.5, &mut r);
        let p = Conv2dParams::new(1, 1, 3);
        let out = input.conv2d(&weight, None, p).unwrap();
        let grad_out = Tensor::ones_like(&out);
        let grad_w = Tensor::conv2d_backward_weight(&grad_out, &input, weight.shape(), p).unwrap();
        let grad_in = Tensor::conv2d_backward_input(&grad_out, &weight, input.shape(), p).unwrap();
        let eps = 1e-2;
        let flat = 10usize;
        let mut plus = weight.clone();
        plus.as_mut_slice()[flat] += eps;
        let mut minus = weight.clone();
        minus.as_mut_slice()[flat] -= eps;
        let fd = (input.conv2d(&plus, None, p).unwrap().sum() - input.conv2d(&minus, None, p).unwrap().sum())
            / (2.0 * eps);
        assert!((grad_w.as_slice()[flat] - fd).abs() < 2e-2);
        let mut iplus = input.clone();
        iplus.as_mut_slice()[flat] += eps;
        let mut iminus = input.clone();
        iminus.as_mut_slice()[flat] -= eps;
        let fd = (iplus.conv2d(&weight, None, p).unwrap().sum()
            - iminus.conv2d(&weight, None, p).unwrap().sum())
            / (2.0 * eps);
        assert!((grad_in.as_slice()[flat] - fd).abs() < 1e-2);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y (adjoint test).
        let mut r = rng();
        let x = Tensor::randn(&[1, 2, 5, 5], 0.0, 1.0, &mut r);
        let p = Conv2dParams::new(2, 1, 1);
        let cols = im2col(&x, 3, 3, p).unwrap();
        let y = Tensor::randn(cols.shape(), 0.0, 1.0, &mut r);
        let lhs: f32 = cols.as_slice().iter().zip(y.as_slice()).map(|(a, b)| a * b).sum();
        let back = col2im(&y, x.shape(), 3, 3, p).unwrap();
        let rhs: f32 = x.as_slice().iter().zip(back.as_slice()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{} vs {}", lhs, rhs);
    }

    #[test]
    fn col2im_shape_errors() {
        let cols = Tensor::zeros(&[1, 8, 4]);
        assert!(col2im(&cols, &[1, 2, 3, 3], 2, 2, Conv2dParams::default()).is_ok());
        assert!(col2im(&cols, &[1, 2, 3], 2, 2, Conv2dParams::default()).is_err());
        assert!(col2im(&Tensor::zeros(&[8, 4]), &[1, 2, 3, 3], 2, 2, Conv2dParams::default()).is_err());
        assert!(col2im(&cols, &[1, 3, 3, 3], 2, 2, Conv2dParams::default()).is_err());
    }

    #[test]
    fn out_size_formula() {
        let p = Conv2dParams::new(2, 1, 1);
        assert_eq!(p.out_size(32, 3), 16);
        let p = Conv2dParams::new(1, 1, 1);
        assert_eq!(p.out_size(32, 3), 32);
        let p = Conv2dParams::new(1, 0, 1);
        assert_eq!(p.out_size(32, 3), 30);
    }

    #[test]
    fn zero_channel_tensors_do_not_panic() {
        // Regression: zero output/input channels pass shape validation but
        // used to hit par_chunks_mut(0), which asserts.
        let p = Conv2dParams::new(1, 1, 1);
        let x = Tensor::zeros(&[1, 2, 4, 4]);
        let w0 = Tensor::zeros(&[0, 2, 3, 3]);
        let out = x.conv2d(&w0, None, p).unwrap();
        assert_eq!(out.shape(), &[1, 0, 4, 4]);

        let xe = Tensor::zeros(&[1, 0, 4, 4]);
        let we = Tensor::zeros(&[0, 0, 3, 3]);
        let oute = xe.conv2d(&we, None, p).unwrap();
        assert_eq!(oute.shape(), &[1, 0, 4, 4]);

        let go = Tensor::zeros(&[1, 0, 4, 4]);
        let gi = Tensor::conv2d_backward_input(&go, &we, &[1, 0, 4, 4], p).unwrap();
        assert_eq!(gi.shape(), &[1, 0, 4, 4]);
        let gw = Tensor::conv2d_backward_weight(&go, &xe, &[0, 0, 3, 3], p).unwrap();
        assert_eq!(gw.shape(), &[0, 0, 3, 3]);
    }

    #[test]
    fn out_size_is_zero_when_kernel_exceeds_padded_input() {
        // Regression: `saturating_sub` used to collapse to 0 and the `+ 1`
        // then reported one phantom output pixel for impossible configs.
        let p = Conv2dParams::new(1, 0, 1);
        assert_eq!(p.out_size(2, 5), 0);
        assert_eq!(p.out_size(0, 1), 0);
        let p = Conv2dParams::new(2, 1, 1);
        assert_eq!(p.out_size(2, 5), 0); // padded 4 < kernel 5
        assert_eq!(p.out_size(3, 5), 1); // padded 5 == kernel 5
                                         // Exact fit still yields one output position.
        let p = Conv2dParams::new(3, 0, 1);
        assert_eq!(p.out_size(4, 4), 1);
    }
}
