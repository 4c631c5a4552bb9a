//! `PREDICT(model, input, args…)`: inference as a plan node. The SQL form,
//! the `execute_model_join` wrapper, a registered C-API session and the
//! `nn` oracle agree; a filter never changes a row's prediction, and
//! pushed below the inference it matches the unoptimized plan; an alias
//! renames the output without changing the plan; a
//! filtered `PREDICT` over a persistent table reads
//! only the pages of the columns it uses; an empty answer keeps its types;
//! bad calls are errors; a re-registered model is never replayed from a
//! cached plan; a model served by `serve::Server` is the registration
//! `PREDICT` runs, built once for both; and a served runtime registration
//! (a C-API session, a pool of UDF hosts) answers what its `PREDICT` does.
//!
//! The buffer-pool counters are process-global: only
//! `filtered_predict_fetches_only_its_columns_pages` reads them, and it is
//! the only test here with a persistent engine (it also reopens it).

mod common;

use indb_ml::mlruntime::{RowModel, Session};
use indb_ml::model_repr::{load_into_engine, Layout, ModelMeta};
use indb_ml::modeljoin::operator::execute_model_join;
use indb_ml::modeljoin::{register_model, register_runtime, ModelDtype, SharedModel};
use indb_ml::nn::{paper, serial, Activation, Model, ModelBuilder};
use indb_ml::pybridge::UdfPool;
use indb_ml::serve::{RequestHandle, Response, ServeConfig, ServeError, Server};
use indb_ml::tensor::Device;
use shard::{ShardedEngine, ShardedServer};
use std::sync::Arc;
use vector_engine::{
    Batch, ColumnVector, DataType, Engine, EngineConfig, EngineError, QueryResult,
};

const INPUTS: [&str; 4] = ["c0", "c1", "c2", "c3"];
const PREDICT: &str = "SELECT id, prediction FROM PREDICT(m, facts, c0, c1, c2, c3)";
const CAPI: &str = "SELECT id, prediction FROM PREDICT(capi, facts, c0, c1, c2, c3)";

/// Feature `k` of row `i`: varied, and the same in every engine.
fn feature(i: i64, k: i64) -> f64 {
    ((i * 4 + k) as f64 * 0.37).sin()
}

/// `id` then `c0..c{width-1}` of `rows` rows.
fn columns(rows: i64, width: i64) -> Vec<ColumnVector> {
    let mut columns = vec![ColumnVector::Int((0..rows).collect())];
    columns.extend(
        (0..width).map(|k| ColumnVector::Float((0..rows).map(|i| feature(i, k)).collect())),
    );
    columns
}

/// An engine holding `facts (id INT, c0..c3 FLOAT)` of `rows` rows, and
/// `model` loaded as table `m` and registered as `m`.
fn engine(config: EngineConfig, rows: i64, model: &Model) -> (Engine, ModelMeta) {
    let engine = Engine::new(config);
    engine.execute("CREATE TABLE facts (id INT, c0 FLOAT, c1 FLOAT, c2 FLOAT, c3 FLOAT)").unwrap();
    engine.insert_columns("facts", columns(rows, 4)).unwrap();
    let (_, meta) = load_into_engine(&engine, "m", model, Layout::NodeId).unwrap();
    register_model(&engine, "m", "m", meta.clone(), Layout::NodeId, Device::cpu());
    (engine, meta)
}

/// `(id, prediction bits)` per row of `(id, prediction)` batches, in order.
fn rows(batches: &[Batch]) -> Vec<(i64, u64)> {
    let pairs = |b: &Batch| -> Vec<(i64, u64)> {
        let (ids, preds) = (b.column(0).as_int().unwrap(), b.column(1).as_float().unwrap());
        ids.iter().zip(preds).map(|(&id, p)| (id, p.to_bits())).collect()
    };
    batches.iter().flat_map(pairs).collect()
}

fn result_rows(r: QueryResult) -> Vec<(i64, u64)> {
    rows(&[Batch::new(r.columns)])
}

/// `PREDICT` and the `execute_model_join` wrapper run one plan: the same
/// bits in the same row order at every partition × parallelism shape, in
/// both dtypes, within tolerance of the `nn` oracle. A runtime session
/// registered for `PREDICT` runs the same plan, bit-identical to fp32, on
/// the CPU and on the simulated GPU, whose device model times it.
#[test]
fn predict_matches_the_wrapper_and_the_oracle() {
    let model = paper::dense_model(16, 2, 7);
    let n = 700;
    for partitions in [1, 4] {
        for parallelism in [1, 4] {
            for quantized in [false, true] {
                let case = format!("{partitions} partitions x {parallelism}, int8 {quantized}");
                let config = EngineConfig {
                    vector_size: 64,
                    partitions,
                    parallelism,
                    quantized_inference: quantized,
                    ..Default::default()
                };
                let (e, meta) = engine(config, n, &model);
                let sql = result_rows(e.execute(PREDICT).unwrap());
                let table = e.table("m").unwrap();
                let shared = SharedModel::new(table, meta, Layout::NodeId, Device::cpu(), 64, 1);
                let wrapper = execute_model_join(&e, "facts", &INPUTS, &["id"], &shared, 1);
                assert_eq!(sql, rows(&wrapper.unwrap()), "{case}");
                assert_eq!(sql.len(), n as usize, "{case}");
                let tolerance = if quantized { 5e-2 } else { 1e-4 };
                for &(id, bits) in &sql {
                    let x: Vec<f32> = (0..4).map(|k| feature(id, k) as f32).collect();
                    let want = model.predict_row(&x)[0] as f64;
                    assert!((f64::from_bits(bits) - want).abs() < tolerance, "{case}: id {id}");
                }
                if !quantized {
                    for device in [Device::cpu(), Device::gpu()] {
                        let session = Session::from_model("capi", &model, device.clone());
                        register_runtime(&e, "capi", Arc::new(session));
                        device.reset();
                        let capi = e.execute(CAPI).unwrap();
                        assert_eq!(
                            result_rows(capi),
                            sql,
                            "{case}: C-API on {}",
                            device.kind().label()
                        );
                        let modeled = device.report().device_modeled;
                        assert_eq!(modeled.is_zero(), !device.is_gpu(), "{case}: device model");
                    }
                }
            }
        }
    }
}

/// A filter changes the batches under the model, never a row's answer:
/// `WHERE id < k` over `PREDICT` returns, per id, the bits of the
/// unfiltered statement, at 1 and 4 partitions.
#[test]
fn a_filter_never_changes_a_rows_prediction() {
    let model = paper::dense_model(64, 3, 9);
    for partitions in [1, 4] {
        let config = EngineConfig {
            vector_size: 64,
            partitions,
            parallelism: partitions,
            ..Default::default()
        };
        let (e, _) = engine(config, 700, &model);
        let all: std::collections::HashMap<i64, u64> =
            result_rows(e.execute(PREDICT).unwrap()).into_iter().collect();
        assert_eq!(all.len(), 700);
        for k in [1, 17, 64, 300, 699] {
            let filtered = result_rows(e.execute(&format!("{PREDICT} WHERE id < {k}")).unwrap());
            assert_eq!(filtered.len(), k as usize, "{partitions} partitions, id < {k}");
            for (id, bits) in filtered {
                assert_eq!(bits, all[&id], "{partitions} partitions, id < {k}: id {id}");
            }
        }
    }
}

/// The optimizer pushes a filter on input columns below `Infer` and
/// narrows its input: the same rows and prediction bits as the binder's
/// unoptimized plan, which infers every row and filters above, at 1 and 4
/// partitions.
#[test]
fn predict_pushdown_matches_the_unoptimized_plan() {
    let model = paper::dense_model(16, 2, 5);
    let sql = format!("{PREDICT} WHERE c0 > 0.25 AND c2 <= 0.5");
    for partitions in [1, 4] {
        let config = EngineConfig {
            vector_size: 64,
            partitions,
            parallelism: partitions,
            ..Default::default()
        };
        let (e, _) = engine(config, 700, &model);
        let plan = e.plan(&sql).unwrap().display_indent();
        let (infer, filter) = (plan.find("Infer").unwrap(), plan.find("Filter").unwrap());
        assert!(infer < filter, "the filter sits below the inference: {plan}");
        let got = common::assert_matches_unoptimized(&e, &sql);
        assert!((1..700).contains(&got.num_rows()), "{partitions} partitions");
    }
}

/// `PREDICT(…) [AS] p` names its output columns `p.…`. A `WHERE p.id < k`
/// over it returns the bits of the unaliased statement, and the alias
/// adds no plan node: both statements optimize to the same plan, the
/// filter below the inference, at every partition × parallelism shape.
#[test]
fn an_aliased_predict_matches_the_unaliased_one() {
    let model = paper::dense_model(16, 2, 3);
    for partitions in [1, 4] {
        for parallelism in [1, 4] {
            let config =
                EngineConfig { vector_size: 64, partitions, parallelism, ..Default::default() };
            let (e, _) = engine(config, 700, &model);
            for k in [1, 300, 700] {
                let case = format!("{partitions} partitions x {parallelism}, id < {k}");
                let plain = format!("{PREDICT} WHERE id < {k}");
                let want = result_rows(e.execute(&plain).unwrap());
                assert_eq!(want.len(), k as usize, "{case}");
                let plan = e.plan(&plain).unwrap().display_indent();
                for as_kw in ["", "AS "] {
                    let aliased = format!(
                        "SELECT p.id, p.prediction FROM PREDICT(m, facts, c0, c1, c2, c3) \
                         {as_kw}p WHERE p.id < {k}"
                    );
                    assert_eq!(result_rows(e.execute(&aliased).unwrap()), want, "{case}");
                    assert_eq!(e.plan(&aliased).unwrap().display_indent(), plan, "{case}");
                }
            }
        }
    }
}

/// On a persistent 9-column table, a filtered `PREDICT` fetches the pages
/// of its payload, argument and filter columns only: 6 per block that
/// survives SMA pruning. `id BETWEEN` skips blocks the same way. The
/// answers are bit-identical to an in-memory engine's, also after the
/// table is reopened at a smaller vector size than its stored blocks.
#[test]
fn filtered_predict_fetches_only_its_columns_pages() {
    const ROWS: i64 = 1536;
    const VECTOR: i64 = 64;
    let dir = std::env::temp_dir().join(format!("idb-predict-pages-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = |data_dir| EngineConfig {
        vector_size: VECTOR as usize,
        partitions: 3,
        parallelism: 2,
        data_dir,
        buffer_pool_pages: 64,
        wal_fsync: false,
        ..Default::default()
    };
    let paged = Engine::open(config(Some(dir.to_string_lossy().into_owned()))).unwrap();
    let memory = Engine::new(config(None));
    let model = paper::dense_model(8, 2, 5);
    let mut meta = None;
    for e in [&paged, &memory] {
        let ddl: Vec<String> = (0..8).map(|k| format!("c{k} FLOAT")).collect();
        e.execute(&format!("CREATE TABLE wide (id INT, {})", ddl.join(", "))).unwrap();
        // c7 rises with the row, so `c7 > x` prunes whole blocks by SMA.
        let mut wide = columns(ROWS, 7);
        wide.push(ColumnVector::Float((0..ROWS).map(|i| i as f64).collect()));
        e.insert_columns("wide", wide).unwrap();
        let (_, m) = load_into_engine(e, "model", &model, Layout::NodeId).unwrap();
        register_model(e, "m", "model", m.clone(), Layout::NodeId, Device::cpu());
        meta = Some(m);
    }
    let fetches = |sql: &str| {
        let count =
            || obs::metrics::STORAGE_POOL_HITS.get() + obs::metrics::STORAGE_POOL_MISSES.get();
        let before = count();
        let rows = result_rows(paged.execute(sql).unwrap());
        (count() - before, rows)
    };
    // Block b holds rows 64b..64b+63.
    let blocks = |keep: &dyn Fn(i64, i64) -> bool| {
        (0..ROWS / VECTOR).filter(|b| keep(b * VECTOR, b * VECTOR + VECTOR - 1)).count() as u64
    };
    let (x, lo, hi) = (1000.5, 330, 515);
    let select = "SELECT id, prediction FROM PREDICT(m, wide, c0, c1, c2, c3)";
    let cases = [
        (format!("{select} WHERE c7 > {x}"), 6 * blocks(&|_, last| last as f64 > x)),
        (
            format!("{select} WHERE id BETWEEN {lo} AND {hi}"),
            5 * blocks(&|first, last| last >= lo && first <= hi),
        ),
    ];
    for (sql, want) in &cases {
        // The first run builds the model, reading the model table's pages.
        paged.execute(sql).unwrap();
        let (pages, got) = fetches(sql);
        assert!(*want > 0 && *want < 6 * (ROWS / VECTOR) as u64, "{sql}: pruning is exercised");
        assert_eq!(pages, *want, "{sql}: page fetches");
        assert_eq!(got, result_rows(memory.execute(sql).unwrap()), "{sql}: paged vs in-memory");
    }
    // Reopened at vector size 16, the table keeps its 64-row blocks and the
    // model, built for 16 rows, infers each block in slices.
    drop(paged);
    let meta = meta.expect("loaded above");
    let sql = format!("{select} WHERE c7 > {x}");
    for parallelism in [1, 2] {
        let data_dir = Some(dir.to_string_lossy().into_owned());
        let reopened =
            Engine::open(EngineConfig { vector_size: 16, parallelism, ..config(data_dir) });
        let reopened = reopened.unwrap();
        register_model(&reopened, "m", "model", meta.clone(), Layout::NodeId, Device::cpu());
        let got = result_rows(reopened.execute(&sql).unwrap());
        assert_eq!(got, result_rows(memory.execute(&sql).unwrap()), "reopened x{parallelism}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A predicate that rejects every batch still returns the node's typed
/// columns; a two-output model names them `prediction_0`, `prediction_1`.
#[test]
fn empty_predict_keeps_its_names_and_types() {
    let model = ModelBuilder::new(4, 11)
        .dense_biased(8, Activation::Relu)
        .dense_biased(2, Activation::Linear)
        .build();
    let (e, _) = engine(EngineConfig::test_small(), 100, &model);
    let r = e.execute("SELECT * FROM PREDICT(m, facts, c0, c1, c2, c3) WHERE c0 > 5").unwrap();
    assert_eq!(r.num_rows(), 0);
    assert_eq!(r.names, ["id", "c0", "c1", "c2", "c3", "prediction_0", "prediction_1"]);
    let types: Vec<DataType> = r.columns.iter().map(ColumnVector::data_type).collect();
    let (int, float) = (DataType::Int, DataType::Float);
    assert_eq!(types, [int, float, float, float, float, float, float]);
}

/// An unknown model, a wrong arity, a non-column argument and a string
/// input are errors, not panics.
#[test]
fn bad_predict_calls_are_errors() {
    let (e, _) = engine(EngineConfig::test_small(), 10, &paper::dense_model(8, 2, 3));
    e.execute("CREATE TABLE labeled (id INT, c0 FLOAT, c1 FLOAT, c2 FLOAT, s VARCHAR)").unwrap();
    let err = |sql: &str| e.execute(sql).unwrap_err();
    let unknown = err("SELECT * FROM PREDICT(nosuch, facts, c0, c1, c2, c3)");
    assert!(matches!(unknown, EngineError::Catalog(_)), "{unknown:?}");
    let arity = err("SELECT * FROM PREDICT(m, facts, c0, c1)");
    assert!(matches!(arity, EngineError::Plan(_)), "{arity:?}");
    let computed = err("SELECT * FROM PREDICT(m, facts, c0 + 1, c1, c2, c3)");
    assert!(matches!(computed, EngineError::Plan(_)), "{computed:?}");
    let string = err("SELECT * FROM PREDICT(m, labeled, c0, c1, c2, s)");
    assert!(matches!(string, EngineError::Type(_)), "{string:?}");
    let function = err("SELECT * FROM SCORE(m, facts, c0, c1, c2, c3)");
    assert!(matches!(function, EngineError::Parse(_)), "{function:?}");
}

/// Registering a name again moves the catalog epoch, so `execute_cached`
/// never replays a plan that holds the old model.
#[test]
fn reregistering_a_model_invalidates_cached_plans() {
    let (e, _) = engine(EngineConfig::test_small(), 50, &paper::dense_model(8, 2, 3));
    let (_, other) =
        load_into_engine(&e, "m2", &paper::dense_model(8, 2, 4), Layout::NodeId).unwrap();
    let first = e.execute_cached(PREDICT).unwrap().rows();
    assert_eq!(e.execute_cached(PREDICT).unwrap().rows(), first);
    assert_eq!(e.plan_cache_stats().hits, 1, "the second run replays the cached plan");
    let epoch = e.catalog().version();
    register_model(&e, "m", "m2", other, Layout::NodeId, Device::cpu());
    assert!(e.catalog().version() > epoch, "registration moves the epoch");
    let again = e.execute_cached(PREDICT).unwrap().rows();
    assert_eq!(e.plan_cache_stats().invalidations, 1);
    assert_ne!(again, first, "the old model was replayed");
    assert_eq!(again, e.execute(PREDICT).unwrap().rows());
}

/// The served prediction bits of every id of `rows`, in order: every
/// request is submitted before the first wait, so batches can coalesce.
fn served(
    rows: &[(i64, u64)],
    submit: impl Fn(Vec<f32>) -> Result<RequestHandle, ServeError>,
) -> Vec<(i64, u64)> {
    let input = |id| (0..4).map(|k| feature(id, k) as f32).collect();
    let handles: Vec<_> = rows.iter().map(|&(id, _)| (id, submit(input(id)).unwrap())).collect();
    let bits = |h: RequestHandle| match h.wait().unwrap() {
        Response::Prediction(p) => (p[0] as f64).to_bits(),
        other => panic!("expected a prediction, got {other:?}"),
    };
    handles.into_iter().map(|(id, h)| (id, bits(h))).collect()
}

/// One config for the shared-build tests: 16-row vectors over two
/// partitions, so `PREDICT` runs several batches while served predicts
/// coalesce into others; a row's fp32 output is the same in any batch, so
/// their bits can be compared.
fn small_config() -> EngineConfig {
    EngineConfig { vector_size: 16, partitions: 2, parallelism: 2, ..Default::default() }
}

/// A model registered once with `Server::register_model` is the one
/// `PREDICT` runs: SQL and served predicts build it once (one cache miss;
/// every served batch is a hit on the same cache) and agree bit for bit.
#[test]
fn served_predicts_and_predict_share_one_build() {
    let model = paper::dense_model(4, 2, 7);
    let engine = Arc::new(Engine::new(small_config()));
    engine.execute("CREATE TABLE facts (id INT, c0 FLOAT, c1 FLOAT, c2 FLOAT, c3 FLOAT)").unwrap();
    engine.insert_columns("facts", columns(40, 4)).unwrap();
    let (_, meta) = load_into_engine(&engine, "m", &model, Layout::NodeId).unwrap();
    let server = Server::start(Arc::clone(&engine), ServeConfig::from_engine(engine.config()));
    let cache = server.register_model("m", "m", meta, Layout::NodeId, Device::cpu());
    let sql = result_rows(engine.execute(&format!("{PREDICT} ORDER BY id")).unwrap());
    assert_eq!(sql.len(), 40);
    assert_eq!(served(&sql, |x| server.submit_predict("m", x)), sql);
    assert_eq!(cache.stats(ModelDtype::F32), (server.stats().batches, 1), "one build");
}

/// Through the shard adaptors the same holds: one engine, one registration
/// (`ShardedServer::register_model`), so `PREDICT` over a hash-placed table
/// and served predicts build the model once.
#[test]
fn sharded_served_predicts_and_predict_build_the_model_once() {
    let model = paper::dense_model(4, 2, 7);
    let engine = Arc::new(ShardedEngine::with_shards(small_config(), 2));
    engine.execute("CREATE TABLE facts (id INT, c0 FLOAT, c1 FLOAT, c2 FLOAT, c3 FLOAT)").unwrap();
    engine.declare_sharded("facts", "id").unwrap();
    engine.insert_columns("facts", columns(40, 4)).unwrap();
    let (_, meta) = load_into_engine(engine.shard(0), "m", &model, Layout::NodeId).unwrap();
    let config = ServeConfig::from_engine(engine.config());
    let server = ShardedServer::start(Arc::clone(&engine), config);
    let cache = server.register_model("m", "m", meta, Layout::NodeId, &Device::cpu());
    let sql = result_rows(engine.execute(&format!("{PREDICT} ORDER BY id")).unwrap());
    assert_eq!(sql.len(), 40);
    assert_eq!(served(&sql, |x| server.submit_predict("m", x)), sql);
    assert_eq!(cache.stats(ModelDtype::F32), (server.stats().batches, 1), "one build");
}

/// A runtime registration is served the same way: a C-API session on the
/// CPU and a pool of two UDF hosts, each registered with
/// `register_runtime`, answer `Server::submit_predict` with the bits their
/// `PREDICT` returns.
#[test]
fn served_runtime_registrations_match_their_predict() {
    let model = paper::dense_model(4, 2, 7);
    let engine = Arc::new(Engine::new(small_config()));
    engine.execute("CREATE TABLE facts (id INT, c0 FLOAT, c1 FLOAT, c2 FLOAT, c3 FLOAT)").unwrap();
    engine.insert_columns("facts", columns(40, 4)).unwrap();
    let server = Server::start(Arc::clone(&engine), ServeConfig::from_engine(engine.config()));
    let udf = UdfPool::spawn(&serial::to_string(&model), Device::cpu(), 2).unwrap();
    let runtimes: [(&str, Arc<dyn RowModel>); 2] = [
        ("capi", Arc::new(Session::from_model("capi", &model, Device::cpu()))),
        ("udf", Arc::new(udf)),
    ];
    for (name, runtime) in runtimes {
        register_runtime(&engine, name, runtime);
        let sql = format!("SELECT id, prediction FROM PREDICT({name}, facts, c0, c1, c2, c3)");
        let sql = result_rows(engine.execute(&format!("{sql} ORDER BY id")).unwrap());
        assert_eq!(sql.len(), 40, "{name}");
        assert_eq!(served(&sql, |x| server.submit_predict(name, x)), sql, "{name}");
    }
}
