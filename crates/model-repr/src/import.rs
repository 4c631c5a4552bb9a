//! Relational table → model import (the inverse of [`crate::export`]).
//!
//! Reconstructing a model from its edge relation requires the structural
//! metadata (dimensions, layer kinds, activations) that the paper keeps
//! outside the table (Sec. 5.5); pass the [`ModelMeta`] alongside.

use crate::meta::{LayerMeta, ModelMeta, SlotInfo};
use crate::schema::Layout;
use nn::{DenseLayer, Layer, LstmLayer, Model};
use tensor::Matrix;
use vector_engine::{ColumnVector, EngineError, Result, Table};

struct Edges<'a> {
    layout: Layout,
    /// LayerNode: (layer_in, node_in, layer, node); NodeId: (node_in, node).
    endpoints: Vec<&'a [i64]>,
    weights: Vec<&'a [f64]>,
}

impl<'a> Edges<'a> {
    fn from_columns(columns: &'a [ColumnVector], layout: Layout) -> Result<Edges<'a>> {
        if columns.len() != layout.column_count() {
            return Err(EngineError::Catalog(format!(
                "model table in {} layout must have {} columns, found {}",
                layout.name(),
                layout.column_count(),
                columns.len()
            )));
        }
        let nend = layout.column_count() - 12;
        let endpoints: Result<Vec<&[i64]>> = columns[..nend].iter().map(|c| c.as_int()).collect();
        let weights: Result<Vec<&[f64]>> = columns[nend..].iter().map(|c| c.as_float()).collect();
        Ok(Edges { layout, endpoints: endpoints?, weights: weights? })
    }

    fn len(&self) -> usize {
        self.endpoints[0].len()
    }

    /// Edge endpoints of row `e` as slot-relative `(node_in, node)` given
    /// the source and target slots.
    fn relative(&self, e: usize, src: &SlotInfo, dst: &SlotInfo) -> Option<(usize, usize)> {
        match self.layout {
            Layout::LayerNode => {
                let (li, ni, l, n) = (
                    self.endpoints[0][e],
                    self.endpoints[1][e],
                    self.endpoints[2][e],
                    self.endpoints[3][e],
                );
                if li == src.layer && l == dst.layer {
                    Some((ni as usize, n as usize))
                } else {
                    None
                }
            }
            Layout::NodeId => {
                let (ni, n) = (self.endpoints[0][e], self.endpoints[1][e]);
                let src_range = src.node_base..src.node_base + src.dim as i64;
                let dst_range = dst.node_base..dst.node_base + dst.dim as i64;
                if src_range.contains(&ni) && dst_range.contains(&n) {
                    Some(((ni - src.node_base) as usize, (n - dst.node_base) as usize))
                } else {
                    None
                }
            }
        }
    }
}

/// Reconstruct a model from model-table columns plus its metadata.
pub fn import_model(columns: &[ColumnVector], meta: &ModelMeta, layout: Layout) -> Result<Model> {
    let edges = Edges::from_columns(columns, layout)?;
    let mut layers = Vec::with_capacity(meta.layers.len());
    let mut prev_slot = 0usize;
    let mut slot = 1usize;
    for lm in &meta.layers {
        match lm {
            LayerMeta::Dense { input, units, activation } => {
                let src = &meta.slots[prev_slot];
                let dst = &meta.slots[slot];
                let mut weights = Matrix::zeros(*input, *units);
                let mut bias = vec![0.0f32; *units];
                let mut found = 0usize;
                for e in 0..edges.len() {
                    if let Some((i, j)) = edges.relative(e, src, dst) {
                        weights.set(i, j, edges.weights[0][e] as f32);
                        bias[j] = edges.weights[8][e] as f32;
                        found += 1;
                    }
                }
                if found != input * units {
                    return Err(EngineError::Catalog(format!(
                        "dense layer at slot {slot}: expected {} edges, found {found}",
                        input * units
                    )));
                }
                layers.push(Layer::Dense(DenseLayer { weights, bias, activation: *activation }));
                prev_slot = slot;
                slot += 1;
            }
            LayerMeta::Lstm { features, timesteps, units } => {
                let src = &meta.slots[prev_slot];
                let kernel_slot = &meta.slots[slot];
                let rec_slot = &meta.slots[slot + 1];
                let mut kernel = [0, 1, 2, 3].map(|_| Matrix::zeros(*features, *units));
                let mut recurrent = [0, 1, 2, 3].map(|_| Matrix::zeros(*units, *units));
                let mut bias = [0, 1, 2, 3].map(|_| vec![0.0f32; *units]);
                let mut kernel_found = 0usize;
                let mut rec_found = 0usize;
                for e in 0..edges.len() {
                    if let Some((f, j)) = edges.relative(e, src, kernel_slot) {
                        for g in 0..4 {
                            kernel[g].set(f, j, edges.weights[g][e] as f32);
                            bias[g][j] = edges.weights[8 + g][e] as f32;
                        }
                        kernel_found += 1;
                    } else if let Some((h, j)) = edges.relative(e, kernel_slot, rec_slot) {
                        for (g, rec) in recurrent.iter_mut().enumerate() {
                            rec.set(h, j, edges.weights[4 + g][e] as f32);
                        }
                        rec_found += 1;
                    }
                }
                if kernel_found != features * units || rec_found != units * units {
                    return Err(EngineError::Catalog(format!(
                        "lstm layer at slot {slot}: found {kernel_found} kernel / {rec_found} \
                         recurrent edges, expected {} / {}",
                        features * units,
                        units * units
                    )));
                }
                layers.push(Layer::Lstm(LstmLayer {
                    input_features: *features,
                    timesteps: *timesteps,
                    kernel,
                    recurrent,
                    bias,
                }));
                prev_slot = slot + 1;
                slot += 2;
            }
        }
    }
    Model::new(layers).map_err(EngineError::Catalog)
}

/// Import from a stored engine table, appending each block straight into
/// one set of columns.
pub fn import_from_table(table: &Table, meta: &ModelMeta, layout: Layout) -> Result<Model> {
    let schema = table.schema();
    let all: Vec<usize> = (0..schema.len()).collect();
    let mut columns: Vec<ColumnVector> =
        schema.columns().iter().map(|c| ColumnVector::empty(c.dtype)).collect();
    for p in 0..table.partition_count() {
        table.for_each_block(p, &all, |batch| {
            for (dst, src) in columns.iter_mut().zip(batch.columns()) {
                dst.append(src);
            }
            Ok(())
        })?;
    }
    import_model(&columns, meta, layout)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::export_columns;
    use nn::paper;

    #[test]
    fn dense_round_trip_both_layouts() {
        let model = paper::dense_model(8, 3, 11);
        for layout in [Layout::LayerNode, Layout::NodeId] {
            let (cols, meta) = export_columns(&model, layout);
            let back = import_model(&cols, &meta, layout).unwrap();
            assert_eq!(model, back, "layout {layout:?}");
        }
    }

    #[test]
    fn lstm_round_trip_both_layouts() {
        let model = paper::lstm_model(8, 23);
        for layout in [Layout::LayerNode, Layout::NodeId] {
            let (cols, meta) = export_columns(&model, layout);
            let back = import_model(&cols, &meta, layout).unwrap();
            assert_eq!(model, back, "layout {layout:?}");
        }
    }

    #[test]
    fn wrong_column_count_rejected() {
        let model = paper::dense_model(4, 2, 0);
        let (cols, meta) = export_columns(&model, Layout::NodeId);
        assert!(import_model(&cols, &meta, Layout::LayerNode).is_err());
    }

    #[test]
    fn missing_edges_detected() {
        let model = paper::dense_model(4, 2, 0);
        let (cols, meta) = export_columns(&model, Layout::NodeId);
        // Drop the last edge of every column.
        let truncated: Vec<ColumnVector> = cols.iter().map(|c| c.slice(0, c.len() - 1)).collect();
        assert!(import_model(&truncated, &meta, Layout::NodeId).is_err());
    }

    #[test]
    fn round_trip_through_engine_table() {
        use vector_engine::{Engine, EngineConfig};
        for model in [paper::lstm_model(4, 3), paper::dense_model(15, 3, 4)] {
            let engine = Engine::new(EngineConfig::test_small());
            let (table, meta) =
                crate::export::load_into_engine(&engine, "m", &model, Layout::NodeId).unwrap();
            let back = import_from_table(&table, &meta, Layout::NodeId).unwrap();
            assert_eq!(model, back);
        }
    }
}
