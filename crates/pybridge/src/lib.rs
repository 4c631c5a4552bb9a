//! The Python-environment baselines of the paper's evaluation, simulated
//! with *real executed work* (DESIGN.md §2):
//!
//! * [`client`] — "Tensorflow in Python": rows leave the database over an
//!   ODBC-like text wire protocol ([`wire`]), are parsed and boxed into
//!   dynamically-typed [`pyobject`] values on the client (the Python object
//!   representation), converted to a contiguous ndarray-style buffer and
//!   batch-inferred through the external runtime. The paper observes this
//!   baseline "mainly suffers from the overhead of data transport over
//!   ODBC" (Sec. 6.2.1) — exactly the costs executed here.
//!
//! * [`udf`] — the parallel, vectorized Python UDF variant: each UDF host
//!   lives on its own thread (a real context switch per call, like Actian
//!   Vector's out-of-process Python UDFs), and a [`UdfPool`] holds one
//!   host per engine thread; each engine vector is serialized across the
//!   boundary to an idle host, boxed, inferred, and the predictions
//!   serialized back.
//!
//! No virtual time is charged anywhere in this crate: serialization,
//! framing, parsing, boxing and thread handoffs all run for real.

pub mod client;
pub mod pyobject;
pub mod udf;
pub mod wire;

pub use client::run_client_inference;
pub use udf::UdfPool;
