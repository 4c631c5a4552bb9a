//! The ML runtime: the one batched forward pass every approach but
//! ML-To-SQL runs, and an external-runtime stand-in ("TensorFlow") whose
//! loaded sessions an engine runs through the row-major [`RowModel`]
//! interface.
//!
//! *The runtime runs models, ModelJoin builds them from a table, and the
//! C-API builds them from a model file.*
//!
//! * [`forward`] — [`BuiltModel`]: a kernel plan fixed at build time
//!   (fp32 weights packed once with the bias and activation fused into
//!   the GEMM, or int8, and the CPU row block) and one layer loop over a
//!   `rows x input_dim` batch on a [`tensor::Device`] (CPU, block by
//!   block, or simulated GPU, vector by vector), with a reusable
//!   [`InferScratch`] arena;
//! * [`session::Session`] — a model object or a saved model file built
//!   into a [`BuiltModel`] at the paper's vector size of 1,024 rows, and
//!   [`RowModel`], the row-major `run` an engine operator calls on a
//!   session or on a pool of UDF hosts.
//!
//! The paper's Raven-like operator integrates TensorFlow into the engine
//! through its C-API (Sec. 6.1): models are loaded into sessions,
//! inference consumes **row-major** `f32` tensors, and the caller pays the
//! columnar↔row-major conversion at the boundary. The native ModelJoin
//! and the C-API therefore run the same forward pass over the same
//! `tensor` BLAS routines, as the paper explains "native ≈ C-API": what
//! differs is where the model comes from and the data conversion at the
//! API boundary. The engine registers a session for `PREDICT` through
//! `modeljoin::register_runtime`.

pub mod forward;
pub mod session;

pub use forward::{BuiltModel, InferScratch};
pub use session::{RowModel, Session};
