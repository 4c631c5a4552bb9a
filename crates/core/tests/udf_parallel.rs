//! The UDF runs at the engine's parallelism: registered as a pool of UDF
//! hosts, one per scheduler thread when `parallelism > 1`, and run as a
//! `PREDICT` plan node over every partition task. At every partition ×
//! parallelism shape its `(id, prediction bits)` equal ModelJoin_CPU's and
//! a serial one-host loop's, a filtered `PREDICT` returns exactly the
//! filtered rows with ModelJoin_CPU's bits, and the host count stays at
//! the pool size: no batch spawns a host and a replaced registration joins
//! its hosts.
//!
//! A filter on `id` runs below the model, so the filtered query infers
//! shorter batches. The kernel picks its GEMM path by shape, so those rows
//! are pinned to ModelJoin_CPU under the same filter, not to the full run.
//!
//! The host counters are process-wide, so this file holds one test.

use indbml_core::{Approach, Experiment, ExperimentConfig, Workload};
use mlruntime::{InferScratch, RowModel};
use pybridge::udf::{hosts_live, hosts_spawned};
use pybridge::UdfPool;
use tensor::{Device, Matrix};
use vector_engine::EngineConfig;

const ROWS: usize = 3_000;

/// `(id, prediction bits)` sorted by id.
fn bits(preds: &[(i64, f64)]) -> Vec<(i64, u64)> {
    preds.iter().map(|&(id, p)| (id, p.to_bits())).collect()
}

/// The serial UDF: one host invoked once per scanned vector on the
/// calling thread.
fn serial_udf(ex: &Experiment) -> Vec<(i64, u64)> {
    let saved = nn::serial::to_string(&ex.model);
    let host = UdfPool::spawn(&saved, Device::cpu(), 1).unwrap();
    let mut scan = ex.engine.scan_table("facts").unwrap();
    scan.open().unwrap();
    let (mut out, mut scratch) = (Vec::new(), InferScratch::default());
    while let Some(batch) = scan.next().unwrap() {
        let ids = batch.column(0).as_int().unwrap();
        let dim = batch.num_columns() - 1;
        let mut rows = Vec::with_capacity(ids.len() * dim);
        for r in 0..ids.len() {
            rows.extend((1..=dim).map(|c| batch.column(c).value(r).as_f64().unwrap() as f32));
        }
        let rows = Matrix::from_vec(ids.len(), dim, rows);
        let preds = host.run(&rows, &mut scratch).unwrap();
        out.extend(ids.iter().zip(preds.iter()).map(|(&id, &p)| (id, (p as f64).to_bits())));
    }
    scan.close();
    out.sort_unstable();
    out
}

#[test]
fn udf_runs_at_the_engines_parallelism() {
    let workload = Workload::Dense { width: 32, depth: 2 };
    let filtered = |ex: &Experiment, model: &str, k: usize| -> Vec<(i64, u64)> {
        let sql = format!("SELECT id, prediction FROM PREDICT({model}, facts, c0, c1, c2, c3)");
        let got = ex.engine.execute(&format!("{sql} WHERE id < {k}")).unwrap();
        let (ids, preds) = (got.columns[0].as_int().unwrap(), got.columns[1].as_float().unwrap());
        let mut got: Vec<(i64, u64)> =
            ids.iter().zip(preds).map(|(&id, p)| (id, p.to_bits())).collect();
        got.sort_unstable();
        got
    };
    for partitions in [1, 4, 12] {
        for parallelism in [1, 2, 12] {
            let case = format!("{partitions} partitions x {parallelism}");
            let engine =
                EngineConfig { vector_size: 64, partitions, parallelism, ..Default::default() };
            // One host per pool worker: the pool has one per core.
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            let hosts = if parallelism > 1 { cores } else { 1 };
            let config = ExperimentConfig { engine, ..ExperimentConfig::new(workload, ROWS) };
            let ex = Experiment::build(config).unwrap();
            let serial = serial_udf(&ex);
            assert_eq!(hosts_live(), 0, "{case}: the serial host is joined");
            let native = bits(&ex.run(Approach::ModelJoinCpu, true).unwrap().predictions.unwrap());
            assert_eq!(native.len(), ROWS, "{case}");

            let spawned = hosts_spawned();
            let udf = bits(&ex.run(Approach::Udf, true).unwrap().predictions.unwrap());
            assert_eq!(udf, native, "{case}: UDF vs ModelJoin_CPU");
            assert_eq!(udf, serial, "{case}: UDF vs the serial UDF");
            assert_eq!((hosts_spawned() - spawned, hosts_live()), (hosts, hosts), "{case}");

            for run in 0..10 {
                let k = (run * 331 + 17) % ROWS;
                let got = filtered(&ex, "UDF", k);
                let ids: Vec<i64> = got.iter().map(|r| r.0).collect();
                assert_eq!(ids, (0..k as i64).collect::<Vec<_>>(), "{case}: WHERE id < {k}");
                assert_eq!(got, filtered(&ex, "ModelJoin_CPU", k), "{case}: WHERE id < {k}");
                let counts = (hosts_spawned() - spawned, hosts_live());
                assert_eq!(counts, (hosts, hosts), "{case}: a query spawned a host");
            }

            // Re-registering spawns a new pool and joins the old one.
            assert_eq!(bits(&ex.run(Approach::Udf, true).unwrap().predictions.unwrap()), udf);
            assert_eq!((hosts_spawned() - spawned, hosts_live()), (2 * hosts, hosts), "{case}");
            drop(ex);
            assert_eq!(hosts_live(), 0, "{case}: dropping the engine joins the hosts");
        }
    }
}
