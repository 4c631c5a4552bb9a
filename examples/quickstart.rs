//! Quickstart: push neural-network inference into the database with the
//! native ModelJoin operator.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use indb_ml::engine::{ColumnVector, Engine, EngineConfig};
use indb_ml::model_repr::{load_into_engine, Layout};
use indb_ml::modeljoin::register_model;
use indb_ml::nn::{Activation, ModelBuilder};
use indb_ml::tensor::Device;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A database engine with the paper's configuration (vector size
    //    1024, 12 partitions, parallelism 12).
    let engine = Engine::new(EngineConfig::default());

    // 2. A fact table with two feature columns — in practice this is your
    //    existing data.
    engine.execute("CREATE TABLE measurements (id INT, temp FLOAT, pressure FLOAT)")?;
    let n = 10_000i64;
    engine.insert_columns(
        "measurements",
        vec![
            ColumnVector::Int((0..n).collect()),
            ColumnVector::Float((0..n).map(|i| (i as f64 * 0.01).sin()).collect()),
            ColumnVector::Float((0..n).map(|i| (i as f64 * 0.02).cos()).collect()),
        ],
    )?;

    // 3. A (pre-trained, here randomly initialized) neural network.
    let model = ModelBuilder::new(2, 7)
        .dense_biased(16, Activation::Relu)
        .dense_biased(1, Activation::Sigmoid)
        .build();
    println!("model: {}", model.summary());

    // 4. Store the model relationally — one tuple per edge, the paper's
    //    Sec. 4.1 representation with unique node IDs.
    let (model_table, meta) = load_into_engine(&engine, "model_table", &model, Layout::NodeId)?;
    println!(
        "model table: {} edge tuples in {} partitions",
        model_table.row_count(),
        model_table.partition_count()
    );

    // 5. SELECT * FROM measurements MODEL JOIN model_table — the native
    //    operator as a plan node: register the model once, then query it
    //    like a table (parallel shared build, vectorized BLAS inference).
    register_model(&engine, "scorer", "model_table", meta, Layout::NodeId, Device::cpu());
    let result = engine.execute(
        "SELECT id, prediction FROM PREDICT(scorer, measurements, temp, pressure) ORDER BY id",
    )?;

    println!("inferred {} tuples; first five predictions:", result.num_rows());
    let (ids, preds) = (result.column("id")?.as_int()?, result.column("prediction")?.as_float()?);
    for (id, pred) in ids.iter().zip(preds).take(5) {
        println!("  id {id} -> {pred}");
    }
    Ok(())
}
