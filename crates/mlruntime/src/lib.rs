//! The ML runtime: the one batched forward pass every approach but
//! ML-To-SQL runs, and an external-runtime stand-in ("TensorFlow") with a
//! C-API-style session interface over it.
//!
//! *The runtime runs models, ModelJoin builds them from a table, and the
//! C-API builds them from a model file.*
//!
//! * [`forward`] — [`BuiltModel`]: a kernel plan per GEMM fixed at build
//!   time (fp32 weights packed once with the bias and activation fused
//!   into the GEMM, or int8) and one layer loop over a `rows x input_dim`
//!   batch on a [`tensor::Device`] (CPU or
//!   simulated GPU), with a reusable [`InferScratch`] arena;
//! * [`session::Session`] — a model file built into a [`BuiltModel`] at
//!   the paper's vector size of 1,024 rows (load → run → drop), and
//!   [`RowModel`], the row-major `run` an engine operator calls on a
//!   session or on a pool of UDF hosts;
//! * [`capi`] — the C-style surface: opaque integer handles, status codes,
//!   `tf_new_session` / `tf_session_run` / `tf_delete_session`.
//!
//! The paper's Raven-like operator integrates TensorFlow into the engine
//! through its C-API (Sec. 6.1): models are loaded into opaque sessions,
//! inference consumes **row-major** `f32` tensors, and the caller pays the
//! columnar↔row-major conversion at the boundary. The native ModelJoin
//! and the C-API therefore run the same forward pass over the same
//! `tensor` BLAS routines, as the paper explains "native ≈ C-API": what
//! differs is where the model comes from and the data conversion at the
//! API boundary.

pub mod capi;
pub mod forward;
pub mod session;

pub use capi::{tf_delete_session, tf_new_session, tf_session_run, TfDeviceKind, TfStatus};
pub use forward::{BuiltModel, InferScratch};
pub use session::{RowModel, Session};
