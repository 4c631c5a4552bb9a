//! [`ShardedServer`]: one [`Server`] over the [`ShardedEngine`]'s engine.
//! Predicts from every client share its batcher and its one model
//! registration; SQL skips the predict queue and runs on the scheduler
//! pool, as on any [`Server`].

use std::sync::Arc;

use model_repr::{Layout, ModelMeta};
use modeljoin::ModelCache;
use serve::{RequestHandle, ServeConfig, ServeError, ServeStats, Server};
use tensor::Device;

use crate::engine::ShardedEngine;

/// One server, addressed the way the multi-server facade was.
pub struct ShardedServer {
    server: Server,
}

impl ShardedServer {
    pub fn start(engine: Arc<ShardedEngine>, cfg: ServeConfig) -> ShardedServer {
        ShardedServer { server: Server::start(Arc::clone(engine.shard(0)), cfg) }
    }

    /// [`Server::register_model`]: one registration, one cache.
    pub fn register_model(
        &self,
        name: &str,
        table: &str,
        meta: ModelMeta,
        layout: Layout,
        device: &Device,
    ) -> Arc<ModelCache> {
        self.server.register_model(name, table, meta, layout, device.clone())
    }

    pub fn submit_predict(
        &self,
        model: &str,
        input: Vec<f32>,
    ) -> Result<RequestHandle, ServeError> {
        self.server.submit_predict(model, input)
    }

    pub fn submit_sql(&self, sql: &str) -> Result<RequestHandle, ServeError> {
        self.server.submit_sql(sql)
    }

    pub fn stats(&self) -> ServeStats {
        self.server.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serve::Response;
    use vector_engine::{ColumnVector, EngineConfig, QueryResult, Value};

    fn sharded() -> Arc<ShardedEngine> {
        let cfg = EngineConfig { partitions: 4, parallelism: 2, ..Default::default() };
        let e = ShardedEngine::with_shards(cfg, 4);
        e.execute("CREATE TABLE facts (id INT, v FLOAT)").unwrap();
        e.declare_sharded("facts", "id").unwrap();
        let n = 64i64;
        let v = ColumnVector::Float((0..n).map(|i| i as f64 * 0.5).collect());
        e.insert_columns("facts", vec![ColumnVector::Int((0..n).collect()), v]).unwrap();
        Arc::new(e)
    }

    fn rows(h: RequestHandle) -> QueryResult {
        match h.wait().unwrap() {
            Response::Rows(r) => r,
            other => panic!("expected rows, got {other:?}"),
        }
    }

    #[test]
    fn routed_point_sql_is_served_by_the_owning_shard() {
        let server = ShardedServer::start(sharded(), ServeConfig::default());
        for id in [3i64, 17, 42] {
            let h = server.submit_sql(&format!("SELECT v FROM facts WHERE id = {id}")).unwrap();
            assert_eq!(rows(h).row(0), vec![Value::Float(id as f64 * 0.5)]);
        }
        let stats = server.stats();
        assert_eq!((stats.submitted, stats.completed), (3, 3));
    }

    #[test]
    fn scatter_sql_is_queued_on_the_one_server() {
        let server = ShardedServer::start(sharded(), ServeConfig::default());
        let h = server.submit_sql("SELECT COUNT(*) AS n FROM facts").unwrap();
        assert_eq!(rows(h).row(0), vec![Value::Int(64)]);
        assert_eq!(server.stats().submitted, 1);
    }
}
