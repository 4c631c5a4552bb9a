//! Model table → model: the one reader of the relational representation
//! (the inverse of [`crate::export`]).
//!
//! Reconstructing a model from its edge relation requires the structural
//! metadata (dimensions, layer kinds, activations) that the paper keeps
//! outside the table (Sec. 5.5); pass the [`ModelMeta`] alongside.
//! [`Router`] is the only decoder of a model table: [`import_model`] and
//! [`import_from_table`] fill its buffers serially, ModelJoin's build phase
//! fills them from every partition at once, and both check every edge by
//! the same rules and assemble the layers the same way.

use crate::meta::{ModelMeta, SlotInfo, SlotKind};
use crate::schema::{Layout, B_I, U_I, W_I};
use nn::{DenseLayer, Layer, LstmLayer, Model};
use tensor::Matrix;
use vector_engine::{ColumnVector, EngineError, Result, Table};

/// Routes model-table edges into the flat row-major weight and bias
/// buffers of a model's layers, then assembles the layers from them.
///
/// Every edge is checked. An edge into the input slot (LayerNode
/// `layer <= 0`, NodeId a node of slot 0) carries no learnable weight and
/// is skipped. An edge into a weight slot writes only if its source is a
/// node of the slot feeding it (always the slot before: the previous
/// output for a Dense or LSTM-kernel slot, the kernel for a recurrent
/// one) and both relative node indices lie inside the buffer's shape;
/// every other edge is skipped too, as ML-To-SQL's joins skip it. The
/// writes are counted per buffer, and [`Router::assemble`] accepts only
/// buffers that received exactly one write per element.
pub struct Router<'a> {
    meta: &'a ModelMeta,
    layout: Layout,
    /// Per slot: its first buffer index.
    slot_buffers: Vec<usize>,
    /// `(rows, cols)` of each buffer, in slot order: a Dense slot's `W`
    /// and bias, an LSTM kernel slot's `K_i..K_o` and `b_i..b_o`, a
    /// recurrent slot's `U_i..U_o`.
    shapes: Vec<(usize, usize)>,
    /// The weight columns (ordinals within the 12) the slots read: `w_i`
    /// and `b_i` while every slot is Dense, all 12 once one is LSTM.
    weights: Vec<usize>,
}

impl<'a> Router<'a> {
    /// The reader of a model table of `columns` columns in `layout`.
    pub fn new(meta: &'a ModelMeta, layout: Layout, columns: usize) -> Result<Router<'a>> {
        if columns != layout.column_count() {
            return Err(EngineError::Catalog(format!(
                "model table in {} layout must have {} columns, found {columns}",
                layout.name(),
                layout.column_count(),
            )));
        }
        let mut shapes = Vec::new();
        let mut slot_buffers = Vec::new();
        let mut prev_dim = meta.input_dim;
        for slot in &meta.slots {
            slot_buffers.push(shapes.len());
            match slot.kind {
                SlotKind::Input => {}
                SlotKind::Dense(_) => {
                    shapes.extend([(prev_dim, slot.dim), (1, slot.dim)]);
                    prev_dim = slot.dim;
                }
                SlotKind::LstmKernel => {
                    shapes.extend([(slot.features, slot.dim); 4]);
                    shapes.extend([(1, slot.dim); 4]);
                }
                SlotKind::LstmRecurrent => {
                    shapes.extend([(slot.dim, slot.dim); 4]);
                    prev_dim = slot.dim;
                }
            }
        }
        let weights = if meta.is_recurrent() { (0..12).collect() } else { vec![W_I, B_I] };
        Ok(Router { meta, layout, slot_buffers, shapes, weights })
    }

    /// Table ordinals of the columns the reader reads: the endpoint
    /// columns, then the routed weight columns.
    pub fn read_columns(&self) -> Vec<usize> {
        let nend = self.layout.column_count() - 12;
        (0..nend).chain(self.weights.iter().map(|w| nend + w)).collect()
    }

    /// The element count of each buffer to fill, in buffer order.
    pub fn buffer_lens(&self) -> impl Iterator<Item = usize> + '_ {
        self.shapes.iter().map(|&(rows, cols)| rows * cols)
    }

    /// Route every edge of one block, given as its
    /// [`read_columns`](Router::read_columns) in that order: each write
    /// calls `write(buffer, offset, value)` and counts one in
    /// `counts[buffer]`.
    pub fn fill<'c>(
        &self,
        columns: impl IntoIterator<Item = &'c ColumnVector>,
        counts: &mut [usize],
        mut write: impl FnMut(usize, usize, f32),
    ) -> Result<()> {
        let nend = self.layout.column_count() - 12;
        let mut columns = columns.into_iter();
        let ends: Vec<&[i64]> =
            columns.by_ref().take(nend).map(ColumnVector::as_int).collect::<Result<_>>()?;
        // Unread weight columns stay empty: routing never names them.
        let mut weight_cols: [&[f64]; 12] = [&[]; 12];
        for (&w, column) in self.weights.iter().zip(columns) {
            weight_cols[w] = column.as_float()?;
        }
        let mut endpoints = [0i64; 4];
        for row in 0..ends[0].len() {
            for (e, col) in endpoints.iter_mut().zip(&ends) {
                *e = col[row];
            }
            self.route(endpoints, |buf, offset, wcol| {
                counts[buf] += 1;
                write(buf, offset, weight_cols[wcol][row] as f32);
            });
        }
        Ok(())
    }

    /// Resolve an edge (by its endpoint columns) and call `write` with
    /// every (buffer index, offset, weight-column ordinal) it fills; none
    /// for an edge the rules skip.
    #[inline]
    fn route(&self, endpoints: [i64; 4], mut write: impl FnMut(usize, usize, usize)) {
        let slots = &self.meta.slots;
        // The edge in LayerNode terms, node indices relative to their slot.
        let [layer_in, node_in, layer, node] = match self.layout {
            Layout::LayerNode => endpoints,
            Layout::NodeId => {
                // Slots hold consecutive ID ranges: an ID below slot 0 is
                // a negative index into slot 0, which the shape check
                // skips; an ID past the last slot is in no slot.
                let slot_of = |id| {
                    let end = |s: &SlotInfo| s.node_base + s.dim as i64;
                    slots.iter().position(|s| id < end(s)).unwrap_or(slots.len())
                };
                let [src, dst] = [endpoints[0], endpoints[1]].map(slot_of);
                let base = |s: usize| slots.get(s).map_or(0, |s| s.node_base);
                let rel = |id: i64, s| id.saturating_sub(base(s));
                [src as i64, rel(endpoints[0], src), dst as i64, rel(endpoints[1], dst)]
            }
        };
        if layer <= 0 || layer as usize >= slots.len() || layer_in != layer - 1 {
            return;
        }
        let slot = &slots[layer as usize];
        let base = self.slot_buffers[layer as usize];
        let Some(&(rows, cols)) = self.shapes.get(base) else {
            return;
        };
        let (Ok(i), Ok(j)) = (usize::try_from(node_in), usize::try_from(node)) else {
            return;
        };
        if i >= rows || j >= cols {
            return;
        }
        let at = i * cols + j;
        // A bias is replicated on every incoming edge; exactly one edge
        // (node_in == 0) writes it.
        match slot.kind {
            SlotKind::Input => {}
            SlotKind::Dense(_) => {
                write(base, at, W_I);
                if i == 0 {
                    write(base + 1, j, B_I);
                }
            }
            SlotKind::LstmKernel => {
                for g in 0..4 {
                    write(base + g, at, W_I + g);
                }
                if i == 0 {
                    for g in 0..4 {
                        write(base + 4 + g, j, B_I + g);
                    }
                }
            }
            SlotKind::LstmRecurrent => {
                for g in 0..4 {
                    write(base + g, at, U_I + g);
                }
            }
        }
    }

    /// The layers from the filled buffers, after checking that every
    /// buffer received exactly its length in writes (`counts`, summed over
    /// all fills): a missing edge leaves a hole, a duplicate one an extra
    /// write.
    pub fn assemble(&self, buffers: Vec<Vec<f32>>, counts: &[usize]) -> Result<Vec<Layer>> {
        for (b, (len, &found)) in self.buffer_lens().zip(counts).enumerate() {
            if found != len {
                let layer = self.slot_buffers.partition_point(|&first| first <= b) - 1;
                return Err(EngineError::Catalog(format!(
                    "layer {layer}: expected {len} edges, found {found}"
                )));
            }
        }
        let mut mats = buffers
            .into_iter()
            .zip(&self.shapes)
            .map(|(buf, &(rows, cols))| Matrix::from_vec(rows, cols, buf));
        let mut next = || mats.next().expect("one buffer per routed weight vector");
        let mut layers = Vec::new();
        for slot in &self.meta.slots {
            match slot.kind {
                SlotKind::Input | SlotKind::LstmRecurrent => {}
                SlotKind::Dense(activation) => {
                    let weights = next();
                    let bias = next().into_vec();
                    layers.push(Layer::Dense(DenseLayer { weights, bias, activation }));
                }
                SlotKind::LstmKernel => {
                    // Buffer order: this slot's K_i..K_o and b_i..b_o, then
                    // the U_i..U_o of the recurrent slot that always
                    // follows it.
                    let kernel = std::array::from_fn(|_| next());
                    let bias = std::array::from_fn(|_| next().into_vec());
                    let recurrent = std::array::from_fn(|_| next());
                    let (input_features, timesteps) = (slot.features, slot.timesteps);
                    layers.push(Layer::Lstm(LstmLayer {
                        input_features,
                        timesteps,
                        kernel,
                        recurrent,
                        bias,
                    }));
                }
            }
        }
        Ok(layers)
    }
}

/// Reconstruct a model from model-table columns plus its metadata.
pub fn import_model(columns: &[ColumnVector], meta: &ModelMeta, layout: Layout) -> Result<Model> {
    let router = Router::new(meta, layout, columns.len())?;
    let mut buffers: Vec<Vec<f32>> = router.buffer_lens().map(|n| vec![0.0; n]).collect();
    let mut counts = vec![0; buffers.len()];
    let read = router.read_columns().into_iter().map(|c| &columns[c]);
    router.fill(read, &mut counts, |b, at, v| buffers[b][at] = v)?;
    Model::new(router.assemble(buffers, &counts)?).map_err(EngineError::Catalog)
}

/// Import from a stored engine table, block by block, reading only the
/// routed columns.
pub fn import_from_table(table: &Table, meta: &ModelMeta, layout: Layout) -> Result<Model> {
    let router = Router::new(meta, layout, table.schema().len())?;
    let mut buffers: Vec<Vec<f32>> = router.buffer_lens().map(|n| vec![0.0; n]).collect();
    let mut counts = vec![0; buffers.len()];
    let read = router.read_columns();
    for p in 0..table.partition_count() {
        table.for_each_block(p, &read, |batch| {
            router.fill(batch.columns(), &mut counts, |b, at, v| buffers[b][at] = v)
        })?;
    }
    Model::new(router.assemble(buffers, &counts)?).map_err(EngineError::Catalog)
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

    /// `cols` plus one edge per `endpoints` row, 1.5 in every weight column.
    fn with_edges(cols: &[ColumnVector], rows: &[&[i64]]) -> Vec<ColumnVector> {
        let mut cols = cols.to_vec();
        for &row in rows {
            for (c, col) in cols.iter_mut().enumerate() {
                let edge = if c < row.len() {
                    ColumnVector::Int(vec![row[c]])
                } else {
                    ColumnVector::Float(vec![1.5])
                };
                col.append(&edge);
            }
        }
        cols
    }

    /// LSTM edges the rules skip: a source in the wrong slot (the input
    /// feeding the recurrent slot, the recurrent slot feeding the kernel,
    /// the kernel feeding the output) or a source index past the kernel's
    /// one feature.
    #[test]
    fn lstm_edges_outside_the_rules_are_skipped() {
        let model = paper::lstm_model(4, 5); // slots: input 0..3, kernel 3..7, recurrent 7..11, output 11
        let stray: [(Layout, &[&[i64]]); 2] = [
            (Layout::LayerNode, &[&[0, 0, 2, 0], &[2, 0, 1, 0], &[1, 0, 3, 0], &[0, 1, 1, 0]]),
            (Layout::NodeId, &[&[0, 7], &[7, 3], &[3, 11], &[1, 3]]),
        ];
        for (layout, rows) in stray {
            let (cols, meta) = export_columns(&model, layout);
            let back = import_model(&with_edges(&cols, rows), &meta, layout).unwrap();
            assert_eq!(model, back, "layout {layout:?}");
        }
    }

    /// A copy of a recurrent edge is one write too many for its slot.
    #[test]
    fn duplicate_edges_detected() {
        let model = paper::lstm_model(4, 5);
        let (cols, meta) = export_columns(&model, Layout::NodeId);
        let err = import_model(&with_edges(&cols, &[&[3, 8]]), &meta, Layout::NodeId).unwrap_err();
        assert_eq!(err.to_string(), "catalog error: layer 2: expected 16 edges, found 17");
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
