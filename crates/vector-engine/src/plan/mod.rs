//! Logical planning: name binding and rule-based optimization.

pub mod binder;
pub mod logical;
pub mod optimizer;

pub use binder::Binder;
pub use logical::{AggFunc, AggSpec, InferModel, LogicalPlan, PlanField, PlanSchema};
pub use optimizer::optimize;
