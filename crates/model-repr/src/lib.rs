//! The relational representation of neural networks (paper Sec. 4.1/4.3).
//!
//! A model is stored as one relation holding **one tuple per edge** of the
//! (internal representation of the) model graph. Each tuple carries the
//! 12-element weight vector of Sec. 4.3 — kernel weights `W_i W_f W_c W_o`,
//! recurrent kernel weights `U_i U_f U_c U_o` and bias weights
//! `b_i b_f b_c b_o` — plus the edge endpoints. Two layouts are supported:
//!
//! * [`Layout::LayerNode`] — the basic representation of Sec. 4.1: a node is
//!   identified by the pair `(Layer, Node)`, an edge by
//!   `(Layer_in, Node_in, Layer, Node)`; 16 columns total.
//! * [`Layout::NodeId`] — the Sec. 4.4 optimization: a unique integer node
//!   ID assigned by traversing the graph (the artificial input node gets ID
//!   -1), shrinking the table to 14 columns and reducing join predicates to
//!   one column plus an offset computation.
//!
//! The graph follows the paper's internal representation (Fig. 4): an
//! artificial single-node input layer, an input distribution layer with one
//! node per fact-table input column (edge weight `W_i = 1`), then the model
//! layers. Bias weights are replicated onto every incoming edge of a node
//! so no extra join is needed. An LSTM layer is split into a "kernel"
//! sublayer and a "recurrent kernel" sublayer, each stored once
//! (Sec. 4.3.3).
//!
//! [`Router`] is the one reader of a model table: it checks every edge,
//! routes it into the layers' weight and bias buffers and assembles the
//! layers from them. [`import_model`] fills it serially and ModelJoin's
//! build phase from all partitions at once.

pub mod export;
pub mod import;
pub mod meta;
pub mod schema;

pub use export::{export_columns, load_into_engine};
pub use import::{import_model, Router};
pub use meta::{ModelMeta, SlotInfo, SlotKind};
pub use schema::{model_table_schema, Layout, WEIGHT_COLUMNS};
