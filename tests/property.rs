//! Property-based tests over the core invariants:
//!
//! * every inference approach agrees with the reference model on random
//!   models and random data;
//! * the relational model representation round-trips losslessly;
//! * the wire protocol round-trips arbitrary floats;
//! * SQL expression evaluation agrees between vectorized and row-at-a-time
//!   interpretation;
//! * the optimizer's rewrites never change query results.

mod common;

use common::assert_matches_unoptimized;
use indb_ml::core::{Approach, Experiment, ExperimentConfig, Workload};
use indb_ml::model_repr::{export_columns, import_model, Layout};
use indb_ml::nn::{Activation, ModelBuilder};
use indb_ml::pybridge::wire::{WireEvent, WireReader, WireWriter};
use proptest::prelude::*;
use vector_engine::{Batch, ColumnVector, Engine, EngineConfig};

fn arb_activation() -> impl Strategy<Value = Activation> {
    prop_oneof![
        Just(Activation::Linear),
        Just(Activation::Relu),
        Just(Activation::Sigmoid),
        Just(Activation::Tanh),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12 })]

    #[test]
    fn random_dense_models_agree_across_key_approaches(
        width in 1usize..10,
        depth in 1usize..4,
        rows in 1usize..60,
        seed in 0u64..10_000,
        act in arb_activation(),
    ) {
        let model = {
            let mut b = ModelBuilder::new(4, seed);
            for _ in 0..depth {
                b = b.dense_biased(width, act);
            }
            b.dense_biased(1, Activation::Sigmoid).build()
        };
        let config = ExperimentConfig {
            engine: EngineConfig { vector_size: 16, partitions: 2, parallelism: 2, ..Default::default() },
            seed,
            ..ExperimentConfig::new(Workload::Dense { width, depth }, rows)
        };
        let ex = Experiment::with_model(config, model).unwrap();
        let oracle = ex.oracle_predictions().unwrap();
        let approaches = [Approach::Ml2Sql, Approach::ModelJoinCpu, Approach::TfCapiCpu, Approach::Udf];
        for approach in approaches {
            let preds = ex.run(approach, true).unwrap().predictions.unwrap();
            prop_assert_eq!(preds.len(), rows);
            for ((_, p), (_, o)) in preds.iter().zip(&oracle) {
                prop_assert!((p - o).abs() < 1e-3, "{approach} ({act:?}): {p} vs {o}");
            }
        }
    }

    #[test]
    fn model_table_round_trip_any_shape(
        width in 1usize..12,
        depth in 1usize..4,
        seed in 0u64..1_000,
    ) {
        let mut b = ModelBuilder::new(3, seed);
        for _ in 0..depth {
            b = b.dense_biased(width, Activation::Tanh);
        }
        let model = b.build();
        for layout in [Layout::LayerNode, Layout::NodeId] {
            let (cols, meta) = export_columns(&model, layout);
            let back = import_model(&cols, &meta, layout).unwrap();
            prop_assert_eq!(&model, &back);
        }
    }

    #[test]
    fn lstm_round_trip_any_shape(
        units in 1usize..8,
        timesteps in 1usize..5,
        features in 1usize..3,
        seed in 0u64..1_000,
    ) {
        let model = ModelBuilder::new(timesteps * features, seed)
            .lstm(units, timesteps, features)
            .dense_biased(1, Activation::Linear)
            .build();
        for layout in [Layout::LayerNode, Layout::NodeId] {
            let (cols, meta) = export_columns(&model, layout);
            let back = import_model(&cols, &meta, layout).unwrap();
            prop_assert_eq!(&model, &back);
        }
    }

    #[test]
    fn wire_round_trips_arbitrary_floats(
        rows in proptest::collection::vec(
            proptest::collection::vec(
                prop_oneof![
                    any::<f64>().prop_filter("finite", |v| v.is_finite()),
                    Just(0.0),
                    Just(-0.0),
                    Just(f64::MIN_POSITIVE),
                ],
                3,
            ),
            0..20,
        )
    ) {
        let mut w = WireWriter::new(3);
        for r in &rows {
            w.write_row(r);
        }
        let bytes = w.finish();
        let mut reader = WireReader::new();
        reader.feed(&bytes);
        let mut got = Vec::new();
        while let Some(event) = reader.next_event().unwrap() {
            match event {
                WireEvent::Row(v) => got.push(v),
                WireEvent::End => break,
                WireEvent::Header { .. } => {}
            }
        }
        prop_assert_eq!(got, rows);
    }

    #[test]
    fn sorting_is_a_permutation_and_ordered(
        values in proptest::collection::vec(-1000i64..1000, 1..200)
    ) {
        let e = Engine::new(EngineConfig::test_small());
        e.execute("CREATE TABLE t (v INT)").unwrap();
        e.insert_columns("t", vec![ColumnVector::Int(values.clone())]).unwrap();
        let q = e.execute("SELECT v FROM t ORDER BY v").unwrap();
        let got = q.columns[0].as_int().unwrap().to_vec();
        let mut expected = values.clone();
        expected.sort();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn optimizer_rewrites_are_invisible(
        values in proptest::collection::vec(-50i64..50, 1..150),
        lo in -60i64..60,
        span in 0i64..40,
        offset in -3i64..4,
    ) {
        // Pruning and pushdown on a range; hash-join extraction on a
        // computed key, with a filter pushed through a subquery
        // projection; column pruning throughout.
        let hi = lo + span;
        let e = Engine::new(EngineConfig {
            vector_size: 7,
            partitions: 3,
            parallelism: 2,
            ..Default::default()
        });
        e.execute("CREATE TABLE t (v INT, w FLOAT)").unwrap();
        let ws = values.iter().map(|&v| v as f64 * 0.1).collect();
        e.insert_columns("t", vec![ColumnVector::Int(values.clone()), ColumnVector::Float(ws)])
            .unwrap();
        for sql in [
            format!("SELECT COUNT(*) AS n, SUM(v) AS s, SUM(w) AS sw FROM t \
                     WHERE v >= {lo} AND v <= {hi}"),
            format!("SELECT q.v2, COUNT(*) AS n, SUM(b.w) AS s \
                     FROM (SELECT v * 2 AS v2, v FROM t) AS q, t AS b \
                     WHERE q.v = b.v + {offset} AND q.v2 >= {lo} \
                     GROUP BY q.v2 ORDER BY q.v2"),
        ] {
            assert_matches_unoptimized(&e, &sql);
        }
    }

    #[test]
    fn expression_eval_matches_rowwise_interpretation(
        xs in proptest::collection::vec(-100i64..100, 1..64),
        a in -5i64..5,
        b in 1i64..5,
    ) {
        // (x * a + b) % b and comparisons, vector vs per-row evaluation.
        use vector_engine::expr::{BinaryOp, Expr};
        use vector_engine::Value;
        let batch = Batch::new(vec![ColumnVector::Int(xs.clone())]);
        let expr = Expr::binary(
            BinaryOp::Mod,
            Expr::binary(
                BinaryOp::Add,
                Expr::binary(BinaryOp::Mul, Expr::col(0), Expr::lit(Value::Int(a))),
                Expr::lit(Value::Int(b)),
            ),
            Expr::lit(Value::Int(b)),
        );
        let vectorized = expr.eval(&batch).unwrap();
        for (i, &x) in xs.iter().enumerate() {
            let single = Batch::new(vec![ColumnVector::Int(vec![x])]);
            let row_result = expr.eval(&single).unwrap();
            prop_assert_eq!(vectorized.value(i), row_result.value(0));
        }
    }
}
