//! The native ModelJoin query operator (paper Sec. 5) and the Raven-like
//! C-API operator it is compared against.
//!
//! *The runtime runs models, ModelJoin builds them from a table, and the
//! C-API builds them from a model file.* The forward pass both operators
//! run is [`mlruntime::BuiltModel`]; this crate builds it from the
//! relational model representation and runs it inside the engine.
//!
//! The ModelJoin is a two-phase operator in the Volcano model (Fig. 5):
//!
//! * **Build phase** (Sec. 5.2, [`build`]): on the first `next()` call the
//!   partitioned model table is consumed and all execution threads fill a
//!   *shared* set of weight and bias buffers without synchronization
//!   (partitions are disjoint, so writes never collide), followed by a
//!   single barrier. The runtime then assembles the model from them:
//!   bias vectors are replicated to `vectorsize x m` matrices so bias
//!   addition becomes one large pre-copied `C` in the `sgemm` call
//!   (Sec. 5.4), and on the GPU variant the finished model is moved to
//!   device memory in one transfer.
//!
//! * **Inference phase** (Sec. 5.3/5.4, [`operator`]): every `next()` pulls
//!   one vector of input columns, packs them into a `vectorsize x n` input
//!   matrix (Fig. 7), runs the model's dense / LSTM layer-forward
//!   functions, and unpacks the result matrix back into prediction column
//!   vectors appended to the pass-through payload columns. The operator
//!   pipelines: it never materializes the full input, so it is not a
//!   pipeline breaker.
//!
//! One model type serves both precisions: [`BuiltModel::quantize`] turns
//! the fp32 build into an int8 [`BuiltModel`] whose GEMM operands are
//! per-channel quantized [`mlruntime::forward::Weights`], and the same
//! layer loop runs it. [`ModelDtype::for_engine`] is the one place that
//! picks the dtype (int8 only for `EngineConfig::quantized_inference` on a
//! CPU-resident model); [`ModelCache`] keeps one entry per (model table,
//! dtype).
//!
//! [`capi_op`] implements the competing approach: the same operator shape,
//! but delegating inference to an `mlruntime` session through its C-API,
//! paying the columnar → row-major → columnar conversion at the boundary.

pub mod build;
pub mod cache;
pub mod capi_op;
pub mod operator;

pub use build::{build_parallel, ModelDtype, SharedModel};
pub use cache::ModelCache;
pub use capi_op::CapiInferenceOp;
pub use mlruntime::{BuiltModel, InferScratch};
pub use operator::ModelJoinOp;
