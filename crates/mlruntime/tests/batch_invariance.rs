//! A row's output is a function of the model and the row alone: inferred
//! by itself or at any position inside a batch of 1..=`vector_size` rows,
//! its fp32 output has the same bits. The kernel plan is fixed when the
//! model is built — one packed-weight GEMM path for every batch size,
//! edge tiles masked rather than run by another kernel — so the rows
//! around a row never change how it is computed. The same holds for the
//! int8 model: activations are quantized per row, the integer sums are
//! exact, and the dequantize epilogue scales each output by its own row
//! and column.
//!
//! The models cover both layer kinds, fp32 and int8, and a width above the
//! kernel's `KC = 512` K slice (a hidden layer whose product spans two
//! slices), and batches long enough to span several of the kernel's row
//! blocks.

use mlruntime::BuiltModel;
use nn::{paper, Activation, ModelBuilder};
use proptest::prelude::*;
use std::sync::OnceLock;
use tensor::{Device, Matrix};

/// Above the kernel's `MC = 256` row block, so long batches hold several
/// M blocks.
const VECTOR_SIZE: usize = 300;

fn models() -> &'static [(&'static str, BuiltModel)] {
    static MODELS: OnceLock<Vec<(&'static str, BuiltModel)>> = OnceLock::new();
    MODELS.get_or_init(|| {
        let multi_feature_lstm =
            ModelBuilder::new(8, 5).lstm(12, 4, 2).dense_biased(3, Activation::Tanh).build();
        [
            ("dense w8", paper::dense_model(8, 3, 1), false),
            ("dense w64", paper::dense_model(64, 3, 2), false),
            ("dense w520", paper::dense_model(520, 2, 3), false),
            ("lstm w16", paper::lstm_model(16, 4), false),
            ("lstm 2 features", multi_feature_lstm, false),
            ("int8 dense w64", paper::dense_model(64, 3, 2), true),
            ("int8 dense w520", paper::dense_model(520, 2, 3), true),
            ("int8 lstm w16", paper::lstm_model(16, 4), true),
        ]
        .into_iter()
        .map(|(name, model, int8)| {
            let built = BuiltModel::from_model(&model, &Device::cpu(), VECTOR_SIZE);
            (name, if int8 { built.quantize() } else { built })
        })
        .collect()
    })
}

/// Input value `(r, c)` of a batch drawn from `seed`, in [-1, 1].
fn input(seed: u64, r: usize, c: usize) -> f32 {
    let x = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((r as u64) << 20 | c as u64)
        .wrapping_mul(0xd1b5_4a32_d192_ed03);
    (x >> 40) as f32 / (1u64 << 23) as f32 - 1.0
}

fn bits(row: &[f32]) -> Vec<u32> {
    row.iter().map(|v| v.to_bits()).collect()
}

/// Batch lengths: short serve-like batches, a full vector, and long
/// batches of several row blocks.
fn batch_rows() -> impl Strategy<Value = usize> {
    prop_oneof![1usize..=40, Just(VECTOR_SIZE), 200usize..=VECTOR_SIZE]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16 })]

    #[test]
    fn a_row_has_the_same_bits_alone_and_in_any_batch(
        rows in batch_rows(),
        position in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let pos = (position % rows as u64) as usize;
        let cpu = Device::cpu();
        for (name, built) in models() {
            let x = Matrix::from_fn(rows, built.input_dim, |r, c| input(seed, r, c));
            let batched = built.infer(&x, &cpu);
            let alone =
                built.infer(&Matrix::from_vec(1, built.input_dim, x.row(pos).to_vec()), &cpu);
            prop_assert_eq!(
                bits(batched.row(pos)),
                bits(alone.row(0)),
                "{}: row {} of {}",
                name,
                pos,
                rows
            );
        }
    }
}
