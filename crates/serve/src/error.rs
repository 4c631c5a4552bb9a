//! Serving-layer errors. Every failure mode is explicit: an overloaded
//! server rejects at submission, a timed-out request completes with
//! [`ServeError::Timeout`], a draining server refuses new work — requests
//! are never silently dropped. Every error a submit returns or a request
//! completes with is counted under its variant's `obs` counter
//! ([`ServeError::count`]).

use obs::metrics as om;
use std::fmt;
use vector_engine::EngineError;

#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// Admission control rejected the request: the bounded queue already
    /// holds `depth` requests. The caller decides whether to retry,
    /// back off, or shed the request.
    Overloaded { depth: usize },
    /// The server is shutting down and admits no new work. Only a submit
    /// returns it: shutdown answers every request admitted before it.
    ShuttingDown,
    /// The request's deadline passed before its batch ran.
    Timeout,
    /// No model registered under that name.
    UnknownModel(String),
    /// The request was malformed (e.g. input width does not match the
    /// model's input dimension) — rejected at submission.
    BadRequest(String),
    /// The underlying engine failed while executing the request.
    Engine(String),
    /// Inference panicked. The panic is caught per batch (every request
    /// of the batch completes with this error) and the server keeps
    /// serving — one poisoned model never takes down the queue.
    Internal(String),
}

impl ServeError {
    /// Count one failure under its variant's counter: `serve.rejected`,
    /// `serve.timeouts`, `serve.panics_caught` (`Internal`) or
    /// `serve.failed.{unknown_model,bad_request,engine,shutting_down}`.
    pub(crate) fn count(&self) {
        let counter = match self {
            ServeError::Overloaded { .. } => &om::SERVE_REJECTED,
            ServeError::ShuttingDown => &om::SERVE_FAILED_SHUTTING_DOWN,
            ServeError::Timeout => &om::SERVE_TIMEOUTS,
            ServeError::UnknownModel(_) => &om::SERVE_FAILED_UNKNOWN_MODEL,
            ServeError::BadRequest(_) => &om::SERVE_FAILED_BAD_REQUEST,
            ServeError::Engine(_) => &om::SERVE_FAILED_ENGINE,
            ServeError::Internal(_) => &om::SERVE_PANICS_CAUGHT,
        };
        counter.add(1);
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded { depth } => {
                write!(f, "server overloaded: queue is at capacity ({depth})")
            }
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::Timeout => write!(f, "request timed out before execution"),
            ServeError::UnknownModel(name) => write!(f, "no model registered as {name:?}"),
            ServeError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServeError::Engine(msg) => write!(f, "engine error: {msg}"),
            ServeError::Internal(msg) => write!(f, "internal serving error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<EngineError> for ServeError {
    fn from(e: EngineError) -> ServeError {
        ServeError::Engine(e.to_string())
    }
}
