//! Regression tests for the serving layer's failure paths and for the
//! observability counters that make those paths visible.
//!
//! The poisoning scenario: before the fix, a panic inside `infer` (a
//! malformed model is enough) unwound through a worker while it held the
//! batch queue / slot mutexes, poisoning them. Every later request — and
//! `shutdown()` itself — then panicked on `.lock().expect(..)`, turning
//! one bad model into a dead server. The fix catches the panic per batch
//! (requests complete with [`ServeError::Internal`]) and recovers
//! poisoned locks via `into_inner`, counting both events.

use model_repr::{load_into_engine, Layout, SlotKind};
use nn::paper;
use serve::{Response, ServeConfig, ServeError, Server};
use std::sync::Arc;
use tensor::Device;
use vector_engine::{Engine, EngineConfig, Value};

fn engine() -> Arc<Engine> {
    Arc::new(Engine::new(EngineConfig {
        vector_size: 16,
        partitions: 2,
        parallelism: 2,
        ..Default::default()
    }))
}

fn config() -> ServeConfig {
    ServeConfig {
        workers: 1,
        queue_depth: 64,
        batch_flush_us: 200,
        max_batch_rows: 16,
        batching: true,
        model_cache: true,
        default_timeout_ms: 0,
    }
}

fn register_dense(server: &Server, e: &Engine, name: &str) {
    let model = paper::dense_model(4, 2, 7);
    let (_, meta) = load_into_engine(e, &format!("{name}_table"), &model, Layout::NodeId).unwrap();
    server.register_model(name, &format!("{name}_table"), meta, Layout::NodeId, Device::cpu());
}

/// A model whose metadata claims one more LSTM timestep than its input
/// carries. The build phase never reads `timesteps` beyond copying it, so
/// registration and model build succeed; the first `infer` then slices
/// `input.row(r)[t*features..]` past the packed input width and panics —
/// a deterministic stand-in for any malformed-model panic inside a worker.
fn register_panicking_lstm(server: &Server, e: &Engine, name: &str) -> usize {
    let lstm = paper::lstm_model(6, 43);
    let (_, mut meta) =
        load_into_engine(e, &format!("{name}_table"), &lstm, Layout::LayerNode).unwrap();
    let kernel = meta
        .slots
        .iter()
        .position(|s| matches!(s.kind, SlotKind::LstmKernel))
        .expect("lstm model has a kernel slot");
    meta.slots[kernel].timesteps += 1;
    let dim = meta.input_dim;
    server.register_model(name, &format!("{name}_table"), meta, Layout::LayerNode, Device::cpu());
    dim
}

#[test]
fn panicking_model_leaves_server_serving() {
    let e = engine();
    let server = Server::start(Arc::clone(&e), config());
    register_dense(&server, &e, "good");
    let bad_dim = register_panicking_lstm(&server, &e, "bad");

    let before_caught = obs::snapshot().counter("serve.panics_caught");

    // The malformed model panics inside the worker; the request must
    // complete with an explicit Internal error, not hang or kill the pool.
    let h = server.submit_predict("bad", vec![0.1; bad_dim]).unwrap();
    match h.wait() {
        Err(ServeError::Internal(msg)) => {
            assert!(!msg.is_empty(), "panic message must be surfaced");
        }
        other => panic!("expected Internal error from panicking model, got {other:?}"),
    }
    assert!(
        obs::snapshot().counter("serve.panics_caught") > before_caught,
        "caught panic must be counted"
    );

    // The SAME server keeps serving: predictions on the healthy model...
    let h = server.submit_predict("good", vec![0.1; 4]).unwrap();
    let Response::Prediction(row) = h.wait().unwrap() else { panic!("prediction expected") };
    assert_eq!(row.len(), 1);
    assert!(row[0].is_finite());

    // ...and SQL requests still flow.
    e.execute("CREATE TABLE alive (id INT)").unwrap();
    e.execute("INSERT INTO alive VALUES (7)").unwrap();
    let Response::Rows(q) = server.submit_sql("SELECT id FROM alive").unwrap().wait().unwrap()
    else {
        panic!("rows expected")
    };
    assert_eq!(q.row(0)[0], Value::Int(7));

    // A second panicking request is likewise contained.
    let h = server.submit_predict("bad", vec![0.2; bad_dim]).unwrap();
    assert!(matches!(h.wait(), Err(ServeError::Internal(_))));

    // Shutdown must drain cleanly — before the fix this panicked on the
    // poisoned queue mutex.
    server.shutdown();
    let stats = server.stats();
    assert_eq!(stats.submitted, stats.completed, "every request completed exactly once");
}

#[test]
fn plan_and_model_cache_hits_are_counted() {
    let e = engine();
    e.execute("CREATE TABLE t (id INT)").unwrap();
    e.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
    // Batching off: every predict is its own batch, so model-cache hits
    // are observable per request.
    let server = Server::start(Arc::clone(&e), ServeConfig { batching: false, ..config() });
    register_dense(&server, &e, "m");

    let before = obs::snapshot();
    for _ in 0..3 {
        let Response::Rows(q) =
            server.submit_sql("SELECT COUNT(*) AS n FROM t").unwrap().wait().unwrap()
        else {
            panic!("rows expected")
        };
        assert_eq!(q.row(0)[0], Value::Int(3));
        server.submit_predict("m", vec![0.1; 4]).unwrap().wait().unwrap();
    }
    let after = obs::snapshot();

    // Delta assertions (>=): the obs counters are process-global and other
    // tests in this binary run concurrently.
    assert!(
        after.counter("exec.plan_cache.hits") - before.counter("exec.plan_cache.hits") >= 2,
        "repeat SQL must hit the plan cache"
    );
    assert!(
        after.counter("modeljoin.cache.hits") - before.counter("modeljoin.cache.hits") >= 2,
        "repeat predicts must hit the model cache"
    );

    // Both report surfaces render the full catalog.
    let report = server.metrics_report();
    for name in
        ["exec.plan_cache.hits", "modeljoin.cache.hits", "serve.batch.rows", "exec.scan.rows"]
    {
        assert!(report.contains(name), "metrics report missing {name}:\n{report}");
    }
    assert!(e.metrics_report().contains("tensor.gemm.calls"));
    server.shutdown();
}

#[test]
fn expired_deadline_at_submit_completes_with_timeout() {
    // Zero workers: nothing ever dequeues, so only the submit-time check
    // can complete the request. Before the fix the handle hung until
    // shutdown and the outcome with workers was racy.
    let e = engine();
    let server = Server::start(Arc::clone(&e), ServeConfig { workers: 0, ..config() });
    register_dense(&server, &e, "m");

    let before = obs::snapshot().counter("serve.deadline.missed_at_submit");
    let h = server
        .submit_predict_with_timeout("m", vec![0.0; 4], Some(std::time::Duration::ZERO))
        .unwrap();
    match h.wait_timeout(std::time::Duration::ZERO) {
        Some(Err(ServeError::Timeout)) => {}
        other => panic!("expected immediate deterministic Timeout, got {other:?}"),
    }
    assert!(
        obs::snapshot().counter("serve.deadline.missed_at_submit") > before,
        "missed-at-submit deadline must be counted"
    );
    server.shutdown();
}
