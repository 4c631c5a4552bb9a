//! Serving over persistent storage: a model table recovered from disk
//! must serve predictions bit-identical to in-memory serving, and predict
//! batches read through storage snapshots, so concurrent DML neither
//! blocks nor perturbs in-flight inference.

use model_repr::{load_into_engine, Layout};
use nn::paper;
use serve::{Response, ServeConfig, Server};
use std::sync::Arc;
use tensor::Device;
use vector_engine::{ColumnVector, Engine, EngineConfig};

fn predict_all(server: &Server, requests: &[Vec<f32>]) -> Vec<Vec<u32>> {
    let handles: Vec<_> =
        requests.iter().map(|x| server.submit_predict("m", x.clone()).unwrap()).collect();
    handles
        .into_iter()
        .map(|h| {
            let Response::Prediction(p) = h.wait().unwrap() else {
                panic!("predict request must return a prediction")
            };
            p.iter().map(|f| f.to_bits()).collect()
        })
        .collect()
}

#[test]
fn recovered_model_table_serves_bit_identical_predictions() {
    let dir = std::env::temp_dir().join(format!("idb-serve-persist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = EngineConfig {
        vector_size: 16,
        partitions: 2,
        parallelism: 2,
        data_dir: Some(dir.to_str().unwrap().to_string()),
        buffer_pool_pages: 32,
        wal_fsync: false,
        ..Default::default()
    };
    let model = paper::dense_model(8, 3, 7);
    let device = Device::cpu();

    // The in-memory reference server.
    let mem = Arc::new(Engine::new(EngineConfig { data_dir: None, ..cfg.clone() }));
    let (_t, meta) = load_into_engine(&mem, "weights", &model, Layout::NodeId).unwrap();

    // Load the same model into a persistent engine, then crash-restart it
    // (drop without checkpoint: recovery comes purely from the WAL).
    {
        let e = Engine::open(cfg.clone()).unwrap();
        load_into_engine(&e, "weights", &model, Layout::NodeId).unwrap();
    }
    let recovered = Arc::new(Engine::open(cfg).unwrap());

    let requests: Vec<Vec<f32>> = (0..24)
        .map(|i| {
            let x = i as f32;
            vec![0.1 * x, 0.5 - 0.01 * x, x.sin(), 1.0 / (x + 1.0)]
        })
        .collect();

    let mem_server = Server::start(Arc::clone(&mem), ServeConfig::default());
    mem_server.register_model("m", "weights", meta.clone(), Layout::NodeId, device.clone());
    let expected = predict_all(&mem_server, &requests);
    mem_server.shutdown();

    let server = Server::start(Arc::clone(&recovered), ServeConfig::default());
    server.register_model("m", "weights", meta, Layout::NodeId, device);
    // Concurrent DML on the same engine while predict batches are in
    // flight: appends go to a separate fact table, and the model reads are
    // snapshot-pinned, so serving must neither block nor change bits.
    recovered.execute("CREATE TABLE clicks (id INT)").unwrap();
    let served = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            for i in 0..50i64 {
                recovered.insert_columns("clicks", vec![ColumnVector::Int(vec![i])]).unwrap();
            }
        });
        let served = predict_all(&server, &requests);
        writer.join().unwrap();
        served
    });
    server.shutdown();
    assert_eq!(served, expected, "recovered persistent serving diverged from in-memory bits");
    assert_eq!(recovered.execute("SELECT COUNT(*) AS n FROM clicks").unwrap().num_rows(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}
