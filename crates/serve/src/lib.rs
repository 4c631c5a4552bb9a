//! Concurrent inference serving layer over the vectorized engine.
//!
//! The paper evaluates in-database inference one query at a time; this
//! crate adds the piece a production deployment needs on top: a
//! multi-threaded server that owns an [`Engine`](vector_engine::Engine)
//! and serves many concurrent clients. Its throughput comes from the same
//! observation that powers the ModelJoin (Sec. 5): inference cost is
//! dominated by per-call overhead — model build, plan, dispatch — unless
//! rows are pushed through the kernels a vector at a time. So the server:
//!
//! * **batches dynamically** — concurrent single-row requests against the
//!   same model coalesce into one `rows x n` matrix (up to
//!   `max_batch_rows`), amortizing one build + one BLAS dispatch over the
//!   whole batch. A waiting client leads its model's batch on its own
//!   thread, and requests that arrive meanwhile form the next one, so the
//!   server owns no thread and no batch waits on a timer;
//! * **serves the catalog's models** — a served model is the engine's
//!   `PREDICT` registration, so SQL and served predicts share one build
//!   per model table and dtype, valid for that table at its data version
//!   (DML to the model table, or dropping and reloading it, invalidates
//!   exactly that model — [`modeljoin::ModelCache`]);
//! * **caches SQL plans** by routing SQL requests through the engine's
//!   catalog-epoch-stamped plan cache
//!   ([`Engine::execute_cached`](vector_engine::Engine::execute_cached));
//! * **controls admission** — a bounded queue rejects overload explicitly,
//!   per-request deadlines are enforced, shutdown answers every admitted
//!   request, and every failure is counted by its reason.

pub mod config;
pub mod error;
pub mod server;

pub use config::ServeConfig;
pub use error::ServeError;
pub use server::{RequestHandle, Response, ServeStats, Server};
