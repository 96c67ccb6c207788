//! Regression: GEMM scratch buffers must survive re-entrant use.
//!
//! A thread that waits in a pool `join` inside a row-parallel GEMM helps run
//! other queued jobs, which may be another GEMM on the same thread. Holding the
//! thread-local packing buffer borrowed across that wait used to panic with
//! "already borrowed". Two threads share one 2-worker pool here: one loops a
//! row-parallel GEMM, the other loops a batched convolution whose per-sample
//! GEMMs are exactly the jobs the first one steals.

use quadra_tensor::gemm::{gemm, gemm_naive};
use quadra_tensor::{Conv2dParams, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::ThreadPool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Each thread runs at least this many calls ...
const MIN_CALLS: usize = 50;
/// ... and keeps going until this much time has passed.
const BUDGET: Duration = Duration::from_millis(600);

#[test]
fn concurrent_gemm_and_conv_share_the_pool_without_panicking() {
    let pool = Arc::new(ThreadPool::new(2));
    let mut rng = StdRng::seed_from_u64(5);
    let (m, k, n) = (192, 96, 256);
    let a = Tensor::randn(&[m, k], 0.0, 1.0, &mut rng);
    let b = Tensor::randn(&[k, n], 0.0, 1.0, &mut rng);
    let expected = gemm_naive(a.as_slice(), b.as_slice(), m, k, n);
    let x = Tensor::randn(&[4, 8, 16, 16], 0.0, 1.0, &mut rng);
    let w = Tensor::randn(&[24, 8, 3, 3], 0.0, 0.3, &mut rng);
    let params = Conv2dParams::new(1, 1, 1);
    let conv_expected = x.conv2d(&w, None, params).unwrap();

    let gemm_thread = {
        let pool = Arc::clone(&pool);
        std::thread::spawn(move || {
            pool.install(|| {
                let start = Instant::now();
                let mut calls = 0;
                while calls < MIN_CALLS || start.elapsed() < BUDGET {
                    let c = gemm(a.as_slice(), b.as_slice(), m, k, n);
                    for (got, want) in c.iter().zip(&expected) {
                        assert!((got - want).abs() <= 1e-3, "{got} vs {want}");
                    }
                    calls += 1;
                }
            })
        })
    };
    let conv_thread = {
        let pool = Arc::clone(&pool);
        std::thread::spawn(move || {
            pool.install(|| {
                let start = Instant::now();
                let mut calls = 0;
                while calls < MIN_CALLS || start.elapsed() < BUDGET {
                    let y = x.conv2d(&w, None, params).unwrap();
                    assert_eq!(y.as_slice(), conv_expected.as_slice());
                    calls += 1;
                }
            })
        })
    };
    gemm_thread.join().expect("gemm thread panicked");
    conv_thread.join().expect("conv thread panicked");
}
