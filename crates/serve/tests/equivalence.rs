//! Served predictions must be **bit-identical** to unbatched inference:
//! batching is a pure throughput optimization, never a numerics change.
//!
//! The oracle is a direct [`build_parallel`] + single-row
//! [`BuiltModel::infer`] per request. Per-row GEMM arithmetic is
//! independent of the number of rows in the batch (the i-k-j kernel
//! accumulates over `k` in the same order for every row), so the coalesced
//! server batch must reproduce the oracle's f32 bits exactly — for the
//! dense MLP and for the sequential LSTM.

use model_repr::{load_into_engine, Layout};
use modeljoin::build_parallel;
use nn::paper;
use serve::{Response, ServeConfig, Server};
use std::sync::Arc;
use tensor::{Device, Matrix};
use vector_engine::{Engine, EngineConfig};

#[test]
fn served_predictions_are_bit_identical_to_unbatched_inference() {
    let engine = Arc::new(Engine::new(EngineConfig {
        vector_size: 16,
        partitions: 2,
        parallelism: 2,
        ..Default::default()
    }));

    // Small models on purpose: both the coalesced batches and the
    // single-row oracle stay below the blocked-GEMM dispatch threshold,
    // exercising the same kernel (see tensor::blas dispatch rules).
    let dense = paper::dense_model(8, 3, 42);
    let lstm = paper::lstm_model(6, 43);
    let (dense_table, dense_meta) =
        load_into_engine(&engine, "dense_model", &dense, Layout::NodeId).unwrap();
    let (lstm_table, lstm_meta) =
        load_into_engine(&engine, "lstm_model", &lstm, Layout::LayerNode).unwrap();

    let device = Device::cpu();
    let dense_oracle =
        build_parallel(&dense_table, &dense_meta, Layout::NodeId, &device, 16, 2).unwrap();
    let lstm_oracle =
        build_parallel(&lstm_table, &lstm_meta, Layout::LayerNode, &device, 16, 2).unwrap();

    let server = Server::start(
        Arc::clone(&engine),
        ServeConfig {
            workers: 2,
            queue_depth: 128,
            batch_flush_us: 1_000,
            max_batch_rows: 16,
            batching: true,
            model_cache: true,
            default_timeout_ms: 0,
        },
    );
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

    // ~40 requests, interleaving the two models with varied inputs so the
    // batcher coalesces different subsets per flush.
    let requests: Vec<(&str, Vec<f32>)> = (0..40)
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
    assert_eq!(stats.batched_rows, 40);
}
