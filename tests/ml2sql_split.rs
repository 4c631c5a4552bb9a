//! ML-To-SQL under the partition split: a generated statement gives
//! bit-identical predictions whether it runs serially or split into
//! morsels, for each way the fact table's id can be proved a key of the
//! morsel list, and it runs serially when the id cannot be proved one.
//!
//! The plan-path counters are process-global, so this file holds one test:
//! no other test in its binary can move them mid-measurement.

use indb_ml::ml2sql::{GenOptions, SqlGenerator};
use indb_ml::model_repr::{load_into_engine, Layout};
use indb_ml::nn::{paper, Activation, Model, ModelBuilder};
use obs::metrics as om;
use vector_engine::{ColumnVector, Engine, EngineConfig};

const ROWS: i64 = 128;
/// Four blocks: at most one per partition, so with sequential ids every
/// morsel holds one contiguous id range.
const VECTOR_SIZE: usize = 32;

/// How the fact table's ids are laid out and declared.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Ids {
    /// `0..ROWS` in load order, not declared unique: the SMA proof.
    Sequential,
    /// A permutation of `0..ROWS`, declared unique: the unique proof.
    ShuffledUnique,
    /// The same permutation, not declared unique: no proof, serial.
    Shuffled,
}

/// `(id, prediction bits)` per output row, in result order.
type Rows = Vec<(i64, Vec<u64>)>;

/// The `exec.plans.*` and `exec.split_key.*` counters a run moves.
fn counters() -> [u64; 4] {
    [
        om::EXEC_PLANS_SERIAL.get(),
        om::EXEC_PLANS_PARTITIONED.get(),
        om::EXEC_SPLIT_KEY_UNIQUE.get(),
        om::EXEC_SPLIT_KEY_SMA.get(),
    ]
}

/// Load `facts` (`id` + one FLOAT column per model input) and the model,
/// run the generated statement once, and return its rows plus the counter
/// deltas of that run.
fn run(model: &Model, ids: Ids, partitions: usize, parallelism: usize) -> (Rows, [u64; 4]) {
    let config =
        EngineConfig { vector_size: VECTOR_SIZE, partitions, parallelism, ..Default::default() };
    let engine = Engine::new(config);
    let dim = model.input_dim();
    let inputs: Vec<String> = (0..dim).map(|c| format!("c{c}")).collect();
    let ddl: Vec<String> = inputs.iter().map(|c| format!("{c} FLOAT")).collect();
    engine.execute(&format!("CREATE TABLE facts (id INT, {})", ddl.join(", "))).unwrap();
    // 37 is coprime to ROWS, so `r * 37 % ROWS` is a permutation that puts
    // ids from the whole range into every block.
    let id = |r: i64| if ids == Ids::Sequential { r } else { r * 37 % ROWS };
    let mut columns = vec![ColumnVector::Int((0..ROWS).map(id).collect())];
    for c in 0..dim as i64 {
        let value = |r: i64| ((id(r) * dim as i64 + c) as f64 * 0.37).sin();
        columns.push(ColumnVector::Float((0..ROWS).map(value).collect()));
    }
    engine.insert_columns("facts", columns).unwrap();
    if ids == Ids::ShuffledUnique {
        engine.table("facts").unwrap().declare_unique("id").unwrap();
    }
    let (_, meta) = load_into_engine(&engine, "model", model, Layout::NodeId).unwrap();
    let refs: Vec<&str> = inputs.iter().map(String::as_str).collect();
    let sql = SqlGenerator::new(&meta, "model", "facts", "id", &refs, &[], GenOptions::default())
        .unwrap()
        .generate()
        .unwrap();

    let before = counters();
    let result = engine.execute(&sql).unwrap();
    let after = counters();
    let names: Vec<String> = match model.output_dim() {
        1 => vec!["prediction".into()],
        n => (0..n).map(|j| format!("prediction_{j}")).collect(),
    };
    let ids = result.column("id").unwrap().as_int().unwrap();
    let preds: Vec<&[f64]> =
        names.iter().map(|n| result.column(n).unwrap().as_float().unwrap()).collect();
    let rows = (0..result.num_rows())
        .map(|r| (ids[r], preds.iter().map(|p| p[r].to_bits()).collect()))
        .collect();
    (rows, std::array::from_fn(|i| after[i] - before[i]))
}

#[test]
fn ml2sql_predictions_are_bit_identical_under_the_partition_split() {
    let models = [
        ("Dense(32,2)", paper::dense_model(32, 2, 7)),
        (
            "two-output dense",
            ModelBuilder::new(4, 11)
                .dense_biased(8, Activation::Relu)
                .dense_biased(2, Activation::Linear)
                .build(),
        ),
        ("LSTM(4)", paper::lstm_model(4, 5)),
    ];
    for (name, model) in &models {
        for ids in [Ids::Sequential, Ids::ShuffledUnique, Ids::Shuffled] {
            for partitions in [4, 12] {
                let (serial, _) = run(model, ids, partitions, 1);
                assert_eq!(serial.len(), ROWS as usize, "{name}, {ids:?}");
                for parallelism in [2, 12] {
                    let case = format!("{name}, {ids:?}, {partitions} partitions x {parallelism}");
                    let (split, [serial_runs, split_runs, unique, sma]) =
                        run(model, ids, partitions, parallelism);
                    match ids {
                        Ids::Sequential => {
                            assert_eq!((split_runs, sma), (1, 1), "{case}: split by SMA");
                            // The same order, too: morsels gather in scan order.
                            assert_eq!(split, serial, "{case}");
                        }
                        Ids::ShuffledUnique => {
                            assert_eq!((split_runs, unique), (1, 1), "{case}: split by unique");
                        }
                        Ids::Shuffled => {
                            assert_eq!((serial_runs, split_runs), (1, 0), "{case}: serial");
                        }
                    }
                    let sorted = |mut rows: Rows| {
                        rows.sort_by_key(|r| r.0);
                        rows
                    };
                    assert_eq!(sorted(split), sorted(serial.clone()), "{case}");
                }
            }
        }
    }
}
