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
//!
//! A wide model runs a vector depth first, in row blocks fixed at build
//! ([`BuiltModel::block_rows`]); the block tests pin that its rows keep
//! their one-row bits at every batch length around a block boundary.

use mlruntime::BuiltModel;
use nn::{paper, Activation, ModelBuilder};
use proptest::prelude::*;
use std::collections::BTreeMap;
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

/// Wide models whose vectors run as several row blocks: 256 rows at
/// Dense(512,·), 336 (no power of two) at LSTM(128), 248 at Dense(520,·).
fn blocked_models() -> &'static [(String, BuiltModel, usize)] {
    static MODELS: OnceLock<Vec<(String, BuiltModel, usize)>> = OnceLock::new();
    MODELS.get_or_init(|| {
        [
            ("dense w512", paper::dense_model(512, 2, 4), 256),
            ("lstm w128", paper::lstm_model(128, 5), 336),
            ("dense w520", paper::dense_model(520, 2, 6), 248),
        ]
        .into_iter()
        .flat_map(|(name, model, block)| {
            let built = BuiltModel::from_model(&model, &Device::cpu(), 1024);
            let int8 = built.quantize();
            [(name.to_string(), built, block), (format!("int8 {name}"), int8, block)]
        })
        .collect()
    })
}

/// Each batch length around a block boundary, in fp32 and int8: every
/// row at a block edge, the batch's last row and every 13th row (a stride
/// no block size divides, so the samples fall at shifting offsets inside
/// the blocks) has the bits it has inferred alone. One-row passes of the
/// int8 kernel are slow unoptimized, hence the sample.
#[test]
fn blocked_rows_have_their_one_row_bits() {
    let cpu = Device::cpu();
    for (name, built, block) in blocked_models() {
        assert_eq!(built.block_rows(), *block, "{name}: block rows");
        let x = Matrix::from_fn(1024, built.input_dim, |r, c| input(7, r, c));
        let mut alone = BTreeMap::new();
        let b = *block;
        for rows in [1, b - 1, b, b + 1, 2 * b + 3, 1024] {
            let batch = Matrix::from_vec(rows, x.cols(), x.as_slice()[..rows * x.cols()].to_vec());
            let out = built.infer(&batch, &cpu);
            assert_eq!(out.rows(), rows, "{name}: output rows of {rows}");
            let checked = (0..rows).filter(|r| r % b == 0 || r % b == b - 1 || r % 13 == 0);
            for r in checked.chain([rows - 1]) {
                let want = alone.entry(r).or_insert_with(|| {
                    let row = Matrix::from_vec(1, x.cols(), x.row(r).to_vec());
                    bits(built.infer(&row, &cpu).row(0))
                });
                assert_eq!(&bits(out.row(r)), want, "{name}: row {r} of {rows}");
            }
        }
    }
}
