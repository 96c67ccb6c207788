//! The models under test and the seeded request pools sent to them.

use quadra_core::{build_model, AutoBuilder, ModelConfig, NeuronType};
use quadra_data::ShapeImageDataset;
use quadra_gateway::{encode_frame, Frame, RequestFrame};
use quadra_models::resnet20_config;
use quadra_nn::{Layer, Linear, Relu, Sequential};
use quadra_serve::Priority;
use quadra_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Weight seed of every model; the shipped gateway binary uses the same.
pub const MODEL_SEED: u64 = 11;
/// Image side of the ResNet inputs and of the training set.
pub const IMAGE: usize = 16;
/// Classes of the ResNet head and of the training set.
pub const CLASSES: usize = 10;
/// Distinct inputs a serve workload draws its requests from.
pub const POOL: usize = 64;

/// The paper's quadratic ResNet-20: every convolution becomes a
/// `(Wa·X)∘(Wb·X)+Wc·X` convolution.
pub fn qresnet_config() -> ModelConfig {
    AutoBuilder::new(NeuronType::Ours).convert(&resnet20_config(8, CLASSES, IMAGE))
}

/// The first-order ResNet-20 the quadratic one is converted from.
pub fn fo_resnet_config() -> ModelConfig {
    resnet20_config(8, CLASSES, IMAGE)
}

pub fn build(config: &ModelConfig) -> Sequential {
    build_model(config, &mut StdRng::seed_from_u64(MODEL_SEED))
}

/// A served model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// Quadratic ResNet-20 on `[1, 3, 16, 16]` images.
    QResNet,
    /// `mlp:64x32x10`, built exactly as the shipped gateway binary builds it.
    Mlp,
}

impl Served {
    pub fn endpoint(self) -> &'static str {
        match self {
            Served::QResNet => "qresnet",
            Served::Mlp => "mlp",
        }
    }

    pub fn parse(name: &str) -> Option<Served> {
        [Served::QResNet, Served::Mlp].into_iter().find(|m| m.endpoint() == name)
    }

    pub fn build(self) -> Box<dyn Layer> {
        match self {
            Served::QResNet => Box::new(build(&qresnet_config())),
            Served::Mlp => {
                let mut rng = StdRng::seed_from_u64(MODEL_SEED);
                Box::new(Sequential::new(vec![
                    Box::new(Linear::new(64, 32, true, &mut rng)),
                    Box::new(Relu::new()),
                    Box::new(Linear::new(32, 10, true, &mut rng)),
                ]))
            }
        }
    }
}

/// Seeded request inputs plus, for each, the bits a correct reply carries and
/// its pre-encoded request frame (correlation id patched in per send).
pub struct Pool {
    pub inputs: Vec<Tensor>,
    pub expected: Vec<Vec<u32>>,
    pub frames: Vec<Vec<u8>>,
}

/// Byte range of the correlation id in an encoded request frame: it follows
/// the `u32` length prefix and the kind byte.
pub const CORRELATION_BYTES: std::ops::Range<usize> = 5..13;

/// Copy of `frame` with its correlation id set to `id`.
pub fn with_id(frame: &[u8], id: u64, out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(frame);
    out[CORRELATION_BYTES].copy_from_slice(&id.to_le_bytes());
}

/// Batch-1 samples for `model` drawn from `seed`.
pub fn inputs(model: Served, seed: u64, n: usize) -> Vec<Tensor> {
    match model {
        Served::QResNet => {
            let ds = ShapeImageDataset::generate(n, CLASSES, IMAGE, 3, 0.15, seed);
            (0..n).map(|i| ds.images.narrow(0, i, 1).expect("row in range")).collect()
        }
        Served::Mlp => {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..n).map(|_| Tensor::randn(&[1, 64], 0.0, 1.0, &mut rng)).collect()
        }
    }
}

/// Build the pool: the reference output of each input is a direct
/// `forward(x, false)` at batch 1 of an identically seeded model.
pub fn pool(model: Served, seed: u64) -> Pool {
    let inputs = inputs(model, seed, POOL);
    let mut reference = model.build();
    let expected = inputs
        .iter()
        .map(|x| reference.forward(x, false).as_slice().iter().map(|v| v.to_bits()).collect())
        .collect();
    let frames = inputs
        .iter()
        .map(|x| {
            let frame = Frame::Request(RequestFrame {
                correlation_id: 0,
                priority: Priority::Interactive,
                deadline_ms: 0,
                model: model.endpoint().to_string(),
                tag: None,
                input: x.clone(),
            });
            let mut bytes = Vec::new();
            encode_frame(&frame, &mut bytes).expect("request fits the wire format");
            bytes
        })
        .collect();
    Pool { inputs, expected, frames }
}

/// True when `output` equals the expected bits exactly.
pub fn bitwise_eq(output: &Tensor, expected: &[u32]) -> bool {
    let out = output.as_slice();
    out.len() == expected.len() && out.iter().zip(expected).all(|(v, e)| v.to_bits() == *e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use quadra_gateway::decode_frame;

    #[test]
    fn patched_id_decodes() {
        let p = pool(Served::Mlp, 3);
        let mut buf = Vec::new();
        with_id(&p.frames[5], 0xDEAD_BEEF_0042, &mut buf);
        let (frame, used) = decode_frame(&buf, 1 << 20).unwrap().unwrap();
        assert_eq!(used, buf.len());
        match frame {
            Frame::Request(r) => {
                assert_eq!(r.correlation_id, 0xDEAD_BEEF_0042);
                assert_eq!(r.input, inputs(Served::Mlp, 3, POOL)[5]);
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }

    #[test]
    fn inputs_repeat_for_a_seed() {
        for model in [Served::Mlp, Served::QResNet] {
            assert_eq!(inputs(model, 9, 4), inputs(model, 9, 4));
            assert_ne!(inputs(model, 9, 4), inputs(model, 10, 4));
        }
    }
}
