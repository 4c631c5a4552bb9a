//! Model tables that SQL can write. A registered model table takes any row
//! an `INSERT` gives it, and the build reads it through the one model-table
//! reader: a row that routes into no weight leaves every prediction
//! bit-identical, a copy of a weight edge fails `PREDICT` with the named
//! count error whichever partition it lands in, and a table missing a weight
//! edge fails the build and the import alike. Every case runs at partitions
//! {1, 4} in both layouts.

use model_repr::import::import_from_table;
use model_repr::{export_columns, import_model, load_into_engine, model_table_schema, Layout};
use modeljoin::{build_parallel, register_model, BuiltModel};
use nn::{paper, Activation, Model, ModelBuilder};
use tensor::{Device, Matrix};
use vector_engine::{ColumnVector, Engine, EngineConfig, QueryResult, Result};

const PREDICT: &str = "SELECT id, prediction FROM PREDICT(m, facts, c0, c1, c2, c3)";
const LAYOUTS: [Layout; 2] = [Layout::LayerNode, Layout::NodeId];

/// 4 → 8 → 8 → 1. NodeIds: slot 0 is 0..4, slot 1 4..12, slot 2 12..20,
/// the output 20.
fn model() -> Model {
    paper::dense_model(8, 2, 17)
}

/// An engine holding `facts (id, c0..c3)` of 50 rows and an empty table `m`
/// of `layout`, registered as model `m`.
fn engine(layout: Layout, partitions: usize) -> Engine {
    let config = EngineConfig { vector_size: 16, partitions, ..Default::default() };
    let engine = Engine::new(config);
    engine.execute("CREATE TABLE facts (id INT, c0 FLOAT, c1 FLOAT, c2 FLOAT, c3 FLOAT)").unwrap();
    let mut facts = vec![ColumnVector::Int((0..50).collect())];
    let feature =
        |k| ColumnVector::Float((0..50).map(|i| ((i * 4 + k) as f64 * 0.37).sin()).collect());
    facts.extend((0..4).map(feature));
    engine.insert_columns("facts", facts).unwrap();
    engine.create_table("m", model_table_schema(layout)).unwrap();
    let (_, meta) = export_columns(&model(), layout);
    register_model(&engine, "m", "m", meta, layout, Device::cpu());
    engine
}

/// [`engine`] with the whole model loaded into `m`.
fn loaded(layout: Layout, partitions: usize) -> Engine {
    let engine = engine(layout, partitions);
    engine.table("m").unwrap().append(export_columns(&model(), layout).0).unwrap();
    engine
}

fn prediction_bits(result: Result<QueryResult>) -> Vec<u64> {
    let result = result.unwrap();
    let predictions = result.columns[1].as_float().unwrap();
    predictions.iter().map(|p| p.to_bits()).collect()
}

/// `INSERT INTO m` of one row: `endpoints`, then 1.5 in every weight column.
fn insert(engine: &Engine, endpoints: &[i64]) {
    let mut values: Vec<String> = endpoints.iter().map(i64::to_string).collect();
    values.extend(std::iter::repeat_n("1.5".to_string(), 12));
    engine.execute(&format!("INSERT INTO m VALUES ({})", values.join(", "))).unwrap();
}

/// Rows that route into no weight: their target is the input slot, their
/// source is not a node of the slot feeding the target, or a relative index
/// falls outside the target's buffer.
fn stray_rows(layout: Layout) -> Vec<Vec<i64>> {
    match layout {
        Layout::LayerNode => vec![
            vec![0, 1_000_000_000, 1, 0], // source node far past layer 0
            vec![2, 3, 7, 0],             // target layer past the last slot
            vec![2, 0, 1, 0],             // source layer 2 does not feed layer 1
            vec![0, 0, 1, -1],            // negative target node
            vec![1, 2, 2, 8],             // target node past layer 2's 8 nodes
            vec![-1, -1, 0, 2],           // an input distribution edge
        ],
        Layout::NodeId => vec![
            vec![11, 11], // a hidden node feeding its own slot
            vec![20, 4],  // the output node feeding slot 1
            vec![-5, 4],  // a source below slot 0
            vec![0, 21],  // a target past the last slot
            vec![-1, 2],  // an input distribution edge
        ],
    }
}

#[test]
fn rows_routing_into_no_weight_leave_predictions_bit_identical() {
    for layout in LAYOUTS {
        for partitions in [1, 4] {
            let engine = loaded(layout, partitions);
            let clean = prediction_bits(engine.execute(PREDICT));
            assert_eq!(clean.len(), 50);
            for row in stray_rows(layout) {
                insert(&engine, &row);
                let got = prediction_bits(engine.execute(PREDICT));
                assert_eq!(got, clean, "{layout:?} at {partitions} partitions after {row:?}");
            }
        }
    }
}

/// The partition holding each row count of `m`, so the one that grew after
/// an insert names where the row landed.
fn partition_rows(engine: &Engine) -> Vec<usize> {
    let table = engine.table("m").unwrap();
    let rows = |p| {
        let mut n = 0;
        table
            .for_each_block(p, &[0], |b| {
                n += b.num_rows();
                Ok(())
            })
            .unwrap();
        n
    };
    (0..table.partition_count()).map(rows).collect()
}

#[test]
fn a_copied_weight_edge_fails_predict_in_every_partition() {
    // (edge, its layer's message): a source node 0 edge also writes a bias.
    let copies = |layout| match layout {
        Layout::LayerNode => [
            (
                "layer_in = 0 AND node_in = 0 AND layer = 1 AND node = 3",
                "layer 1: expected 32 edges, found 33",
            ),
            (
                "layer_in = 1 AND node_in = 5 AND layer = 2 AND node = 6",
                "layer 2: expected 64 edges, found 65",
            ),
        ],
        Layout::NodeId => [
            ("node_in = 0 AND node = 7", "layer 1: expected 32 edges, found 33"),
            ("node_in = 9 AND node = 18", "layer 2: expected 64 edges, found 65"),
        ],
    };
    for layout in LAYOUTS {
        for partitions in [1, 4] {
            for (edge, message) in copies(layout) {
                let mut landed = Vec::new();
                // k stray rows first move the round-robin cursor, so the
                // copy lands in each partition once.
                for k in 0..partitions {
                    let engine = loaded(layout, partitions);
                    for row in stray_rows(layout).iter().cycle().take(k) {
                        insert(&engine, row);
                    }
                    let copy = engine.execute(&format!("SELECT * FROM m WHERE {edge}")).unwrap();
                    let values: Vec<String> =
                        copy.rows()[0].iter().map(|v| v.to_string()).collect();
                    let before = partition_rows(&engine);
                    engine
                        .execute(&format!("INSERT INTO m VALUES ({})", values.join(", ")))
                        .unwrap();
                    let after = partition_rows(&engine);
                    landed.extend((0..partitions).filter(|&p| after[p] > before[p]));
                    let err = engine.execute(PREDICT).unwrap_err().to_string();
                    assert!(err.contains(message), "{layout:?} {edge}: {err}");
                }
                landed.sort();
                assert_eq!(landed, (0..partitions).collect::<Vec<_>>(), "{layout:?} {edge}");
            }
        }
    }
}

#[test]
fn a_missing_weight_edge_fails_the_build_and_the_import_alike() {
    let message = "catalog error: layer 1: expected 32 edges, found 31";
    for layout in LAYOUTS {
        for partitions in [1, 4] {
            let (columns, meta) = export_columns(&model(), layout);
            // Row 4 is the first weight edge, (input node 0 → hidden node 0).
            let keep: Vec<usize> = (0..columns[0].len()).filter(|&r| r != 4).collect();
            let columns: Vec<_> = columns.iter().map(|c| c.take(&keep)).collect();
            let engine = engine(layout, partitions);
            let table = engine.table("m").unwrap();
            table.append(columns.clone()).unwrap();
            let errors = [
                engine.execute(PREDICT).unwrap_err(),
                build_parallel(&table, &meta, layout, &Device::cpu(), 16, 1).err().unwrap(),
                import_from_table(&table, &meta, layout).unwrap_err(),
                import_model(&columns, &meta, layout).unwrap_err(),
            ];
            for err in errors {
                assert_eq!(err.to_string(), message, "{layout:?} at {partitions} partitions");
            }
        }
    }
}

/// Multi-feature LSTMs, which `paper::lstm_model` (one feature) does not
/// reach: the table build equals the runtime's own build of the model, bit
/// for bit, and the import returns the model.
#[test]
fn multi_feature_lstm_builds_equal_the_model() {
    let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for (units, timesteps, features) in [(3, 2, 2), (5, 3, 3)] {
        let model = ModelBuilder::new(timesteps * features, 9)
            .lstm(units, timesteps, features)
            .dense_biased(1, Activation::Linear)
            .build();
        let x = Matrix::from_fn(7, model.input_dim(), |r, c| ((r * 5 + c) as f32 * 0.3).sin());
        let direct = BuiltModel::from_model(&model, &Device::cpu(), 16);
        for layout in LAYOUTS {
            for partitions in [1, 4] {
                let config = EngineConfig { vector_size: 4, partitions, ..Default::default() };
                let engine = Engine::new(config);
                let (table, meta) = load_into_engine(&engine, "m", &model, layout).unwrap();
                let built = build_parallel(&table, &meta, layout, &Device::cpu(), 16, 1).unwrap();
                let case = format!("{units}x{timesteps}x{features} {layout:?} at {partitions}");
                let cpu = Device::cpu();
                assert_eq!(bits(&built.infer(&x, &cpu)), bits(&direct.infer(&x, &cpu)), "{case}");
                assert_eq!(import_from_table(&table, &meta, layout).unwrap(), model, "{case}");
            }
        }
    }
}
