//! Model table layouts and schemas.

use vector_engine::{ColumnDef, DataType, Schema};

/// The 12 weight columns of the relational representation, in storage
/// order: kernel `w_*`, recurrent kernel `u_*`, bias `b_*` for the gates
/// `i, f, c, o` (paper Sec. 4.1).
pub const WEIGHT_COLUMNS: [&str; 12] =
    ["w_i", "w_f", "w_c", "w_o", "u_i", "u_f", "u_c", "u_o", "b_i", "b_f", "b_c", "b_o"];

/// Ordinals within [`WEIGHT_COLUMNS`] of gate `i`'s kernel, recurrent
/// kernel and bias column; gate `g` of `i, f, c, o` adds `g`.
pub const W_I: usize = 0;
pub const U_I: usize = 4;
pub const B_I: usize = 8;

/// How edges are addressed in the model table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    /// Basic representation (Sec. 4.1): nodes as `(Layer, Node)` pairs,
    /// 16 columns.
    LayerNode,
    /// Unique-node-ID optimization (Sec. 4.4): 14 columns, range predicates
    /// instead of layer filters.
    NodeId,
}

impl Layout {
    pub fn name(self) -> &'static str {
        match self {
            Layout::LayerNode => "layer_node",
            Layout::NodeId => "node_id",
        }
    }

    /// Number of columns of the model table in this layout.
    pub fn column_count(self) -> usize {
        match self {
            Layout::LayerNode => 16,
            Layout::NodeId => 14,
        }
    }
}

/// The model table schema for a layout.
pub fn model_table_schema(layout: Layout) -> Schema {
    let mut cols = Vec::with_capacity(layout.column_count());
    match layout {
        Layout::LayerNode => {
            cols.push(ColumnDef::new("layer_in", DataType::Int));
            cols.push(ColumnDef::new("node_in", DataType::Int));
            cols.push(ColumnDef::new("layer", DataType::Int));
            cols.push(ColumnDef::new("node", DataType::Int));
        }
        Layout::NodeId => {
            cols.push(ColumnDef::new("node_in", DataType::Int));
            cols.push(ColumnDef::new("node", DataType::Int));
        }
    }
    for w in WEIGHT_COLUMNS {
        cols.push(ColumnDef::new(w, DataType::Float));
    }
    Schema::new(cols).expect("static column names are distinct")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schemas_have_the_papers_column_counts() {
        // "the model table is defined to have 16 columns" (Sec. 4.1)
        assert_eq!(model_table_schema(Layout::LayerNode).len(), 16);
        assert_eq!(model_table_schema(Layout::NodeId).len(), 14);
    }

    #[test]
    fn weight_columns_are_float_and_ordered() {
        let s = model_table_schema(Layout::LayerNode);
        assert_eq!(s.index_of("w_i"), Some(4));
        assert_eq!(s.index_of("b_o"), Some(15));
        for w in WEIGHT_COLUMNS {
            let idx = s.index_of(w).unwrap();
            assert_eq!(s.column(idx).dtype, DataType::Float);
        }
    }

    #[test]
    fn node_id_layout_drops_layer_columns() {
        let s = model_table_schema(Layout::NodeId);
        assert_eq!(s.index_of("layer"), None);
        assert_eq!(s.index_of("layer_in"), None);
        assert_eq!(s.index_of("node_in"), Some(0));
        assert_eq!(s.index_of("node"), Some(1));
    }
}
