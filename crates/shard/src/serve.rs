//! Shard-aware serving: one inner [`Server`] per engine shard behind a
//! [`ShardedServer`] facade.
//!
//! Routing rules:
//! * `submit_predict` — models are replicated (every shard holds the
//!   model table), so predict traffic round-robins across the shard
//!   servers; each request is served entirely by one shard.
//! * `submit_sql` — the shard planner classifies the statement.
//!   Replicated and pinned statements enqueue on the owning shard's
//!   server (admission control, batching, and the plan cache all apply
//!   as usual); scatter statements run inline on the caller through
//!   [`ShardedEngine::execute_cached`] and complete their handle
//!   immediately, so callers see one uniform handle-based API.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use model_repr::{Layout, ModelMeta};
use serve::{RequestHandle, Response, ServeConfig, ServeError, ServeStats, Server};
use tensor::Device;

use crate::engine::{Route, ShardedEngine};

/// Per-shard servers plus the scatter-gather SQL router.
pub struct ShardedServer {
    engine: Arc<ShardedEngine>,
    servers: Vec<Server>,
    next: AtomicUsize,
}

impl ShardedServer {
    /// Start one inner server per shard, each with `cfg`'s worker count
    /// and queue depth (admission control is per shard).
    pub fn start(engine: Arc<ShardedEngine>, cfg: ServeConfig) -> ShardedServer {
        let servers =
            engine.shards().iter().map(|s| Server::start(Arc::clone(s), cfg.clone())).collect();
        ShardedServer { engine, servers, next: AtomicUsize::new(0) }
    }

    pub fn engine(&self) -> &Arc<ShardedEngine> {
        &self.engine
    }

    pub fn servers(&self) -> &[Server] {
        &self.servers
    }

    /// Register a (replicated) model table on every shard server.
    pub fn register_model(
        &self,
        name: &str,
        table: &str,
        meta: ModelMeta,
        layout: Layout,
        device: &Device,
    ) {
        for s in &self.servers {
            s.register_model(name, table, meta.clone(), layout, device.clone());
        }
    }

    /// Round-robin an inference request onto one shard's server.
    pub fn submit_predict(
        &self,
        model: &str,
        input: Vec<f32>,
    ) -> Result<RequestHandle, ServeError> {
        let i = self.next.fetch_add(1, Ordering::Relaxed) % self.servers.len();
        self.servers[i].submit_predict(model, input)
    }

    /// Route a SQL statement: pinned/replicated statements enqueue on the
    /// owning shard, scatter statements run inline and return a completed
    /// handle.
    pub fn submit_sql(&self, sql: &str) -> Result<RequestHandle, ServeError> {
        match self.engine.route(sql) {
            Ok(Route::Replicated) => {
                // Any shard holds the full answer; spread the load.
                let i = self.next.fetch_add(1, Ordering::Relaxed) % self.servers.len();
                self.servers[i].submit_sql(sql)
            }
            Ok(Route::Single(t)) => self.servers[t].submit_sql(sql),
            Ok(_) => {
                let result =
                    self.engine.execute_cached(sql).map(Response::Rows).map_err(ServeError::from);
                Ok(RequestHandle::ready(result))
            }
            Err(e) => Err(ServeError::from(e)),
        }
    }

    /// Summed serving counters across the shard servers (inline scatter
    /// statements are not queued and so are not counted here).
    pub fn stats(&self) -> ServeStats {
        let mut total = ServeStats::default();
        for s in &self.servers {
            let st = s.stats();
            total.submitted += st.submitted;
            total.completed += st.completed;
            total.rejected += st.rejected;
            total.timeouts += st.timeouts;
            total.batches += st.batches;
            total.batched_rows += st.batched_rows;
        }
        total
    }

    /// Drain and stop every shard server.
    pub fn shutdown(&self) {
        for s in &self.servers {
            s.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vector_engine::{ColumnVector, EngineConfig, Value};

    fn sharded(shards: usize) -> Arc<ShardedEngine> {
        let cfg = EngineConfig { partitions: 2, parallelism: 2, ..Default::default() };
        let e = ShardedEngine::with_shards(cfg, shards);
        e.execute("CREATE TABLE facts (id INT, v FLOAT)").unwrap();
        e.declare_sharded("facts", "id").unwrap();
        e.declare_unique("facts", "id").unwrap();
        let n = 64i64;
        e.insert_columns(
            "facts",
            vec![
                ColumnVector::Int((0..n).collect()),
                ColumnVector::Float((0..n).map(|i| i as f64 * 0.5).collect()),
            ],
        )
        .unwrap();
        Arc::new(e)
    }

    #[test]
    fn routed_point_sql_is_served_by_the_owning_shard() {
        let engine = sharded(4);
        let server = ShardedServer::start(Arc::clone(&engine), ServeConfig::default());
        for id in [3i64, 17, 42] {
            let h = server.submit_sql(&format!("SELECT v FROM facts WHERE id = {id}")).unwrap();
            match h.wait().unwrap() {
                Response::Rows(r) => {
                    assert_eq!(r.row(0), vec![Value::Float(id as f64 * 0.5)]);
                }
                other => panic!("expected rows, got {other:?}"),
            }
        }
        let stats = server.stats();
        assert_eq!(stats.submitted, 3);
        assert_eq!(stats.completed, 3);
        server.shutdown();
    }

    #[test]
    fn scatter_sql_completes_inline_with_a_ready_handle() {
        let engine = sharded(3);
        let server = ShardedServer::start(Arc::clone(&engine), ServeConfig::default());
        let h = server.submit_sql("SELECT COUNT(*) AS n FROM facts").unwrap();
        match h.wait().unwrap() {
            Response::Rows(r) => assert_eq!(r.row(0), vec![Value::Int(64)]),
            other => panic!("expected rows, got {other:?}"),
        }
        // Inline scatter requests bypass the queues entirely.
        assert_eq!(server.stats().submitted, 0);
        server.shutdown();
    }
}
