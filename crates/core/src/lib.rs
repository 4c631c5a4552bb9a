//! Experiment infrastructure for the reproduction: the five approach
//! classes under one interface, the paper's datasets, peak-memory
//! accounting, and the qualitative comparison.
//!
//! The central type is [`experiment::Experiment`]: it stands up the engine
//! with a loaded fact table and model table and runs any
//! [`approach::Approach`] over it, returning wall-clock (GPU variants:
//! device-model-adjusted) runtime and, on request, the predictions for
//! cross-approach verification.

pub mod approach;
pub mod data;
pub mod experiment;
pub mod memtrack;
pub mod qualitative;

pub use approach::Approach;
pub use experiment::{Experiment, ExperimentConfig, RunOutcome, Workload};
