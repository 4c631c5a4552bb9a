//! Served predictions must be **bit-identical** to unbatched inference:
//! batching is a pure throughput optimization, never a numerics change.
//!
//! The oracle is a direct [`build_parallel`] + single-row
//! [`BuiltModel::infer`] per request. Per-row GEMM arithmetic is
//! independent of the number of rows in the batch (the model's kernel
//! plan runs one GEMM path for every batch size, accumulating over `k` in
//! the same order for every row), so the coalesced server batch must
//! reproduce the oracle's f32 bits exactly — for the dense MLP and for
//! the sequential LSTM, at widths 8 (dense) and 6 (LSTM), at width 64
//! with batches of 16 rows and more, and for served batches longer than
//! the vector size the model is built for, which run in vector-size
//! slices.

use model_repr::{load_into_engine, Layout};
use modeljoin::build_parallel;
use nn::paper;
use serve::{Response, ServeConfig, ServeStats, Server};
use std::sync::Arc;
use tensor::{Device, Matrix};
use vector_engine::{Engine, EngineConfig};

#[test]
fn served_predictions_are_bit_identical_to_unbatched_inference() {
    let stats = serve_against_the_oracle(16, 16, (8, 6), 40);
    assert_eq!(stats.batched_rows, 40);
}

/// Width 64, where a coalesced batch's GEMMs run several column panels
/// and a batch of 16 rows or more fills whole row tiles: still bit for bit
/// the single-row answer. Rounds repeat until the mean batch holds at
/// least 16 rows (so at least one batch did).
#[test]
fn wide_served_batches_of_16_rows_and_more_are_bit_identical() {
    for _ in 0..50 {
        let stats = serve_against_the_oracle(64, 64, (64, 64), 96);
        if stats.batched_rows >= 16 * stats.batches {
            return;
        }
    }
    panic!("no round coalesced batches of 16 rows on average in 50 rounds");
}

/// The registration builds at the engine's vector size (4 here), so a
/// coalesced batch of up to 16 rows runs in slices of 4 — bit-identical
/// all the same. Rounds repeat until one batch has held more than 4 rows.
#[test]
fn served_batches_longer_than_the_vector_size_are_bit_identical() {
    for _ in 0..50 {
        let stats = serve_against_the_oracle(4, 16, (8, 6), 40);
        if stats.batched_rows > 4 * stats.batches {
            return;
        }
    }
    panic!("no served batch outgrew the vector size in 50 rounds");
}

/// Serve `requests` interleaved dense and LSTM requests (the dense model
/// `widths.0` units wide, the LSTM `widths.1`) on an engine of `vector_size` with batches of up to
/// `max_batch_rows`, assert every answer bit-identical to the single-row
/// oracle, and return the server's counters.
fn serve_against_the_oracle(
    vector_size: usize,
    max_batch_rows: usize,
    widths: (usize, usize),
    requests: usize,
) -> ServeStats {
    let engine = Arc::new(Engine::new(EngineConfig {
        vector_size,
        partitions: 2,
        parallelism: 2,
        ..Default::default()
    }));

    let dense = paper::dense_model(widths.0, 3, 42);
    let lstm = paper::lstm_model(widths.1, 43);
    let (dense_table, dense_meta) =
        load_into_engine(&engine, "dense_model", &dense, Layout::NodeId).unwrap();
    let (lstm_table, lstm_meta) =
        load_into_engine(&engine, "lstm_model", &lstm, Layout::LayerNode).unwrap();

    let device = Device::cpu();
    let dense_oracle =
        build_parallel(&dense_table, &dense_meta, Layout::NodeId, &device, vector_size, 2).unwrap();
    let lstm_oracle =
        build_parallel(&lstm_table, &lstm_meta, Layout::LayerNode, &device, vector_size, 2)
            .unwrap();

    let server =
        Server::start(Arc::clone(&engine), ServeConfig { queue_depth: 128, max_batch_rows });
    server.register_model(
        "dense",
        "dense_model",
        dense_meta.clone(),
        Layout::NodeId,
        device.clone(),
    );
    server.register_model(
        "lstm",
        "lstm_model",
        lstm_meta.clone(),
        Layout::LayerNode,
        device.clone(),
    );

    // Interleave the two models with varied inputs: each leader takes its
    // own model's requests out of the mixed queue.
    let requests: Vec<(&str, Vec<f32>)> = (0..requests)
        .map(|i| {
            let x = i as f32;
            if i % 2 == 0 {
                ("dense", vec![0.1 * x, 0.5 - 0.01 * x, x.sin(), 1.0 / (x + 1.0)])
            } else {
                ("lstm", vec![0.2 * x, -0.03 * x, (0.1 * x).cos()])
            }
        })
        .collect();

    let handles: Vec<_> = requests
        .iter()
        .map(|(model, input)| server.submit_predict(model, input.clone()).unwrap())
        .collect();

    for ((model, input), handle) in requests.iter().zip(handles) {
        let Response::Prediction(served) = handle.wait().unwrap() else {
            panic!("predict request must return a prediction")
        };
        let (oracle, dim) = match *model {
            "dense" => (&dense_oracle, dense_meta.input_dim),
            _ => (&lstm_oracle, lstm_meta.input_dim),
        };
        let single = Matrix::from_vec(1, dim, input.clone());
        let expected = oracle.infer(&single, &device);
        assert_eq!(expected.cols(), served.len());
        for (j, (&e, &s)) in expected.row(0).iter().zip(&served).enumerate() {
            assert_eq!(
                e.to_bits(),
                s.to_bits(),
                "{model} output {j} diverged: oracle {e} vs served {s} for input {input:?}"
            );
        }
    }

    // Sanity: batching actually happened (requests were not all singleton
    // batches), so the equality above compared batched against unbatched.
    let stats = server.stats();
    assert!(stats.batches < stats.batched_rows, "expected at least one coalesced batch: {stats:?}");
    stats
}
