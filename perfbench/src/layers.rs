//! Per-layer probes of the traced run: the quadratic ResNet-20 forward split
//! by top-level layer, its first-order twin, a standalone quadratic and
//! first-order convolution, and the im2col + GEMM kernels beneath them.

use crate::models::{self, Served, IMAGE};
use crate::report::Metrics;
use crate::stats::median;
use crate::trace::Recorder;
use quadra_core::{NeuronType, QuadraticConv2d};
use quadra_nn::{Conv2d, Layer, Sequential};
use quadra_tensor::gemm::gemm;
use quadra_tensor::{im2col, Conv2dParams, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Timed repetitions of each probe: at least this many ...
const MIN_REPS: usize = 15;
/// ... and until this much time has passed.
const BUDGET: Duration = Duration::from_millis(250);
/// Untimed calls before timing starts.
const WARMUP: usize = 3;
/// Trace id base of forward spans.
const FORWARD_TRACE: u64 = 1 << 40;
/// Stage-1 shape of the ResNet: 8 channels at full resolution, batch 8.
const STAGE1: [usize; 4] = [8, 8, IMAGE, IMAGE];

/// Median milliseconds of `f` over repeated calls.
fn time_ms(mut f: impl FnMut()) -> f64 {
    for _ in 0..WARMUP {
        f();
    }
    let (start, mut samples) = (Instant::now(), Vec::new());
    while samples.len() < MIN_REPS || start.elapsed() < BUDGET {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64() * 1e3);
    }
    median(&samples)
}

/// Part of the network each top-level layer belongs to: 0 stem, 1–3 the
/// stages (three residual blocks each), 4 head.
fn parts(model: &Sequential) -> Vec<usize> {
    let blocks: Vec<usize> =
        (0..model.len()).filter(|&i| model.layers()[i].layer_type() == "residual").collect();
    let (first, last) = (blocks[0], blocks[blocks.len() - 1]);
    (0..model.len())
        .map(|i| match i {
            i if i < first => 0,
            i if i > last => 4,
            i => 1 + blocks.iter().position(|&b| b == i).map_or(0, |k| k * 3 / blocks.len()),
        })
        .collect()
}

/// One eval forward, timing each top-level layer; adds each layer's time
/// to its part and records a forward span with one child per layer.
fn layered_forward(
    model: &mut Sequential,
    part: &[usize],
    x: &Tensor,
    sums: &mut [f64; 5],
    rec: &mut Recorder,
    trace: u64,
) {
    let origin = Instant::now();
    let mut children = Vec::with_capacity(part.len());
    let mut h = x.clone();
    for (k, layer) in model.layers_mut().iter_mut().enumerate() {
        let a = origin.elapsed().as_nanos() as u64;
        h = layer.forward(&h, false);
        let b = origin.elapsed().as_nanos() as u64;
        sums[part[k]] += (b - a) as f64 / 1e6;
        children.push((layer.layer_type(), a, b));
    }
    black_box(h);
    let end = origin.elapsed().as_nanos() as u64;
    let root = rec.push(trace, None, "forward", 0, end);
    for (name, a, b) in children {
        rec.push(trace, Some(root), name, a, b);
    }
}

pub fn probe(rec: &mut Recorder, m: &mut Metrics) {
    let mut q = models::build(&models::qresnet_config());
    let mut fo = models::build(&models::fo_resnet_config());
    let xs = models::inputs(Served::QResNet, 5, 8);
    let b1 = xs[0].clone();
    let b8 = Tensor::concat(&xs.iter().collect::<Vec<_>>(), 0).expect("same shapes");

    let q_b1 = time_ms(|| drop(black_box(q.forward(&b1, false))));
    let q_b8 = time_ms(|| drop(black_box(q.forward(&b8, false))));
    let flops = q.flops_last_forward() as f64;
    m.add("model.forward_b1_ms", q_b1, "ms", "quadratic ResNet-20, eval forward");
    m.add("model.forward_b8_ms", q_b8, "ms", "");
    m.add("model.gflops_b8", flops / (q_b8 * 1e-3) / 1e9, "GFLOP/s", format!("{flops} flops_last_forward"));
    m.add(
        "model.eval_cached_bytes",
        q.cached_bytes() as f64,
        "bytes",
        "cached_bytes() after an eval forward at b8",
    );

    let part = parts(&q);
    let mut sums = [0.0f64; 5];
    let mut reps = 0;
    let start = Instant::now();
    while reps < MIN_REPS || start.elapsed() < BUDGET {
        layered_forward(&mut q, &part, &b8, &mut sums, rec, FORWARD_TRACE + reps as u64);
        reps += 1;
    }
    for (k, name) in
        ["layer.stem_ms", "layer.stage1_ms", "layer.stage2_ms", "layer.stage3_ms", "layer.head_ms"]
            .into_iter()
            .enumerate()
    {
        m.add(name, sums[k] / reps as f64, "ms", "b8, mean summed time of the part's top-level layers");
    }

    let fo_b1 = time_ms(|| drop(black_box(fo.forward(&b1, false))));
    let fo_b8 = time_ms(|| drop(black_box(fo.forward(&b8, false))));
    m.add("model.fo_forward_b1_ms", fo_b1, "ms", "first-order ResNet-20, same config");
    m.add("model.fo_forward_b8_ms", fo_b8, "ms", "");
    m.add("core.quadratic_overhead_b1", q_b1 / fo_b1, "ratio", "quadratic / first-order forward time");
    m.add("core.quadratic_overhead_b8", q_b8 / fo_b8, "ratio", "");

    let mut rng = StdRng::seed_from_u64(models::MODEL_SEED);
    let x = Tensor::randn(&STAGE1, 0.0, 1.0, &mut rng);
    let mut qconv = QuadraticConv2d::new(NeuronType::Ours, 8, 8, 3, 1, 1, 1, &mut rng);
    let mut conv = Conv2d::new(8, 8, 3, 1, 1, 1, false, &mut rng);
    m.add(
        "core.qconv_fwd_ms",
        time_ms(|| drop(black_box(qconv.forward(&x, false)))),
        "ms",
        "QuadraticConv2d Ours 3x3, [8,8,16,16]",
    );
    m.add(
        "nn.conv_fwd_ms",
        time_ms(|| drop(black_box(conv.forward(&x, false)))),
        "ms",
        "Conv2d 3x3, [8,8,16,16]",
    );

    let params = Conv2dParams::new(1, 1, 1);
    m.add(
        "tensor.im2col_ms",
        time_ms(|| drop(black_box(im2col(&x, 3, 3, params)))),
        "ms",
        "[8,8,16,16] -> [8,72,256]",
    );
    let cols = im2col(&x, 3, 3, params).expect("valid shape");
    let (oc, k, n, batch) = (8, 72, IMAGE * IMAGE, STAGE1[0]);
    let w = Tensor::randn(&[oc, k], 0.0, 1.0, &mut rng);
    let (w, c) = (w.as_slice(), cols.as_slice());
    // The batch-wide variant lays all samples' columns side by side: [k, batch*n].
    let mut wide = vec![0.0f32; k * batch * n];
    for s in 0..batch {
        for r in 0..k {
            wide[r * batch * n + s * n..r * batch * n + (s + 1) * n]
                .copy_from_slice(&c[(s * k + r) * n..(s * k + r + 1) * n]);
        }
    }
    let flops = 2.0 * (oc * k * n * batch) as f64;
    let per_sample = time_ms(|| {
        for s in 0..batch {
            black_box(gemm(w, &c[s * k * n..(s + 1) * k * n], oc, k, n));
        }
    });
    let whole = time_ms(|| drop(black_box(gemm(w, &wide, oc, k, batch * n))));
    let bytes = |calls: usize, cols: usize| (4 * calls * (oc * k + k * cols + oc * cols)) as f64;
    m.add("tensor.gemm_ms_per_sample", per_sample, "ms", format!("{batch} x gemm {oc}x{k}x{n}"));
    m.add("tensor.gemm_gflops_per_sample", flops / (per_sample * 1e-3) / 1e9, "GFLOP/s", "");
    m.add("tensor.gemm_bytes_per_sample", bytes(batch, n), "bytes", "operands + result, from tensor sizes");
    m.add("tensor.gemm_ms_batch", whole, "ms", format!("1 x gemm {oc}x{k}x{}", batch * n));
    m.add("tensor.gemm_gflops_batch", flops / (whole * 1e-3) / 1e9, "GFLOP/s", "");
    m.add("tensor.gemm_bytes_batch", bytes(1, batch * n), "bytes", "operands + result, from tensor sizes");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resnet20_splits_into_stem_three_stages_and_head() {
        let q = models::build(&models::qresnet_config());
        let part = parts(&q);
        for p in 0..5 {
            assert!(part.contains(&p), "part {p} missing in {part:?}");
        }
        for stage in 1..=3 {
            assert_eq!(part.iter().filter(|&&p| p == stage).count(), 3);
        }
        assert!(part.windows(2).all(|w| w[0] <= w[1]));
    }
}
