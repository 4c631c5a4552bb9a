//! Ablation of the ModelJoin build phase (paper Sec. 5.2): serial vs.
//! partition-parallel shared model building, on a mid-sized model table.
//! The fill fans out one scheduler task per model-table partition, so the
//! serial cell is the one-partition table.

use criterion::{criterion_group, criterion_main, Criterion};
use model_repr::{load_into_engine, Layout};
use modeljoin::build::build_parallel;
use tensor::Device;
use vector_engine::{Engine, EngineConfig};

fn build_phase(c: &mut Criterion) {
    let model = nn::paper::dense_model(128, 4, 7);
    let mut group = c.benchmark_group("modeljoin_build_dense_w128_d4");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    for partitions in [1usize, 4, 12] {
        let engine = Engine::new(EngineConfig { partitions, ..Default::default() });
        let (table, meta) =
            load_into_engine(&engine, "model_table", &model, Layout::NodeId).expect("load");
        group.bench_function(format!("partitions_{partitions}"), |b| {
            b.iter(|| {
                build_parallel(&table, &meta, Layout::NodeId, &Device::cpu(), 1024, 0)
                    .expect("build")
            });
        });
    }
    group.finish();
}

criterion_group!(benches, build_phase);
criterion_main!(benches);
