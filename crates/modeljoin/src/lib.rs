//! The native ModelJoin query operator (paper Sec. 5), and the Raven-like
//! C-API approach it is compared against, as one inference operator.
//!
//! *The runtime runs models, ModelJoin builds them from a table, and the
//! C-API builds them from a model file.* The forward pass both approaches
//! run is [`mlruntime::BuiltModel`]; this crate builds it from the
//! relational model representation and runs it inside the engine.
//!
//! Inference runs inside the engine's one planner, as the physical
//! operator of a `LogicalPlan::Infer` node (`vector_engine::plan::InferModel`
//! is the seam). [`register_model`] names a model table for SQL —
//! `SELECT id, prediction FROM PREDICT(model, facts, c0, c1) WHERE …` —
//! and for `serve::Server`, whose batches run the seam's row-major
//! `infer_rows` on the same registration; [`register_runtime`] names a
//! loaded [`mlruntime::RowModel`] (a C-API session, or a pool of UDF
//! hosts) the same way. [`operator::execute_model_join`] runs the plan
//! `Project(Infer(Scan))` over a handle of its own. Either way the
//! partition split, the shard router, column pruning and SMA pruning treat
//! the node as a projection that passes its input columns through, and
//! `EngineConfig::parallelism` decides the fan-out.
//!
//! The ModelJoin is a two-phase operator in the Volcano model (Fig. 5):
//!
//! * **Build phase** (Sec. 5.2, [`build`]): on the first batch any of a
//!   query's operators infers, the partitioned model table is consumed and
//!   all execution threads fill a *shared* set of weight and bias buffers
//!   without locks, followed by a single barrier. They fill through the
//!   model table's one reader, [`model_repr::Router`], which checks every
//!   edge: it bounds every write (the stores are relaxed atomics), skips
//!   the edges that carry no weight of the model, and fails the build
//!   unless each buffer received exactly one write per element. The
//!   runtime then assembles the model from them into its kernel plan:
//!   weights packed once, each bias a vector the GEMM's epilogue adds
//!   (where Sec. 5.4 pre-copies a replicated bias matrix into `C`, with
//!   the same bits), and on the GPU variant the finished model is moved
//!   to device memory in one transfer.
//!
//! * **Inference phase** (Sec. 5.3/5.4, [`operator`]): every `next()` pulls
//!   one vector of input columns, packs them into a `vectorsize x n` input
//!   matrix (Fig. 7), runs the model's dense / LSTM layer-forward
//!   functions, and unpacks the result matrix back into prediction column
//!   vectors appended to the input columns, which pass through. A longer
//!   batch (a stored block of a table reopened at a smaller vector size)
//!   runs in vector-size slices. The operator pipelines: it never
//!   materializes the full input, so it is not a pipeline breaker.
//!
//! One model type serves both precisions: [`BuiltModel::quantize`] turns
//! the fp32 build into an int8 [`BuiltModel`] whose GEMM operands are
//! per-channel quantized [`mlruntime::forward::Weights`], and the same
//! layer loop runs it. [`ModelDtype::for_engine`] is the one place that
//! picks the dtype (int8 only for `EngineConfig::quantized_inference` on a
//! CPU-resident model). Every [`SharedModel`] looks its model up in a
//! [`ModelCache`], its registration's or a private one, which keeps one
//! entry per dtype and builds a cold entry once.
//!
//! [`capi_op`] registers the competing approaches: a C-API session or UDF
//! hosts run under the same operator, which only swaps the run call, so
//! they pay the same columnar → row-major → columnar conversion at the
//! boundary.

pub mod build;
pub mod cache;
pub mod capi_op;
pub mod operator;

pub use build::{build_parallel, ModelDtype, SharedModel};
pub use cache::ModelCache;
pub use capi_op::register_runtime;
pub use mlruntime::{BuiltModel, InferScratch};
pub use operator::register_model;
