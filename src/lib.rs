//! Umbrella crate for the EDBT 2023 "Exploration of Approaches for
//! In-Database ML" reproduction.
//!
//! Re-exports every subsystem so examples and integration tests can reach the
//! full public surface through one dependency. See the individual crates for
//! the actual implementations:
//!
//! - [`engine`] — the columnar, vectorized SQL engine substrate
//! - [`tensor`] — BLAS-like kernels and the CPU / simulated-GPU devices
//! - [`nn`] — neural network models and the reference inference oracle
//! - [`model_repr`] — the relational (edge-table) model representation
//! - [`ml2sql`] — the ML-To-SQL query generator
//! - [`modeljoin`] — the inference operator: the native ModelJoin, and the
//!   C-API session and UDF hosts registered into it
//! - [`mlruntime`] — the forward pass and the external ML runtime stand-in
//! - [`pybridge`] — the client-Python and Python-UDF baselines
//! - [`serve`] — the concurrent inference serving layer (batching, caches,
//!   admission control)
//! - [`core`] — approaches, datasets, measurement harness

pub use indbml_core as core;
pub use ml2sql;
pub use mlruntime;
pub use model_repr;
pub use modeljoin;
pub use nn;
pub use pybridge;
pub use serve;
pub use tensor;
pub use vector_engine as engine;
