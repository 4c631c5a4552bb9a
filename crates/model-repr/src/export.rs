//! Model → relational table export.

use crate::meta::{ModelMeta, SlotKind};
use crate::schema::{model_table_schema, Layout, B_I, U_I, W_I};
use nn::{Layer, Model};
use vector_engine::{ColumnVector, Engine, Result, Table};

/// Collects edges in columnar form and hands them to `out` every
/// `handoff` edges; [`Sink::flush`] hands off the rest.
struct Sink<F> {
    layout: Layout,
    handoff: usize,
    out: F,
    layer_in: Vec<i64>,
    node_in: Vec<i64>,
    layer: Vec<i64>,
    node: Vec<i64>,
    weights: Vec<Vec<f64>>,
}

impl<F: FnMut(Vec<ColumnVector>) -> Result<()>> Sink<F> {
    fn new(layout: Layout, handoff: usize, out: F) -> Sink<F> {
        Sink {
            layout,
            handoff,
            out,
            layer_in: Vec::new(),
            node_in: Vec::new(),
            layer: Vec::new(),
            node: Vec::new(),
            weights: (0..12).map(|_| Vec::new()).collect(),
        }
    }

    /// Emit one edge. Endpoints are given in LayerNode terms plus the
    /// NodeId-layout IDs; the sink stores whichever the layout needs.
    #[allow(clippy::too_many_arguments)]
    fn edge(
        &mut self,
        layer_in: i64,
        node_in_pair: i64,
        layer: i64,
        node_pair: i64,
        node_in_id: i64,
        node_id: i64,
        w: [f64; 12],
    ) -> Result<()> {
        match self.layout {
            Layout::LayerNode => {
                self.layer_in.push(layer_in);
                self.node_in.push(node_in_pair);
                self.layer.push(layer);
                self.node.push(node_pair);
            }
            Layout::NodeId => {
                self.node_in.push(node_in_id);
                self.node.push(node_id);
            }
        }
        for (col, v) in self.weights.iter_mut().zip(w) {
            col.push(v);
        }
        if self.node.len() == self.handoff {
            self.flush()?;
        }
        Ok(())
    }

    /// Hand the edges collected so far to `out` as model-table columns.
    fn flush(&mut self) -> Result<()> {
        let endpoints = match self.layout {
            Layout::LayerNode => {
                vec![&mut self.layer_in, &mut self.node_in, &mut self.layer, &mut self.node]
            }
            Layout::NodeId => vec![&mut self.node_in, &mut self.node],
        };
        let mut cols: Vec<ColumnVector> =
            endpoints.into_iter().map(|v| ColumnVector::Int(std::mem::take(v))).collect();
        cols.extend(self.weights.iter_mut().map(|w| ColumnVector::Float(std::mem::take(w))));
        (self.out)(cols)
    }
}

/// Export a model's edges as model-table columns in the given layout.
/// Returns the columns together with the metadata describing them.
pub fn export_columns(model: &Model, layout: Layout) -> (Vec<ColumnVector>, ModelMeta) {
    let meta = ModelMeta::of(model);
    let mut columns = Vec::new();
    let sink = Sink::new(layout, usize::MAX, |cols| {
        columns = cols;
        Ok(())
    });
    export_edges(model, &meta, sink).expect("collecting edges in memory cannot fail");
    (columns, meta)
}

/// Emit every edge of `model` into `sink`, in the model table's row order.
fn export_edges<F>(model: &Model, meta: &ModelMeta, mut sink: Sink<F>) -> Result<()>
where
    F: FnMut(Vec<ColumnVector>) -> Result<()>,
{
    // 1. Artificial input node → input distribution layer, weight W_i = 1
    //    (paper Sec. 4.3.1). The artificial node is (layer -1, node -1) /
    //    node ID -1.
    let input_slot = &meta.slots[0];
    for i in 0..input_slot.dim {
        let mut w = [0.0; 12];
        w[W_I] = 1.0;
        sink.edge(-1, -1, input_slot.layer, i as i64, -1, input_slot.node_base + i as i64, w)?;
    }

    // 2. Model layers. `prev` tracks the slot feeding the current layer.
    let mut prev = 0usize;
    let mut slot = 1usize;
    for layer in model.layers() {
        match layer {
            Layer::Dense(d) => {
                let s = &meta.slots[slot];
                let p = &meta.slots[prev];
                debug_assert_eq!(p.dim, d.input_dim());
                for i in 0..d.input_dim() {
                    for j in 0..d.units() {
                        let mut w = [0.0; 12];
                        w[W_I] = d.weights.get(i, j) as f64;
                        // Bias replicated to every incoming edge (Sec. 4.3).
                        w[B_I] = d.bias[j] as f64;
                        sink.edge(
                            p.layer,
                            i as i64,
                            s.layer,
                            j as i64,
                            p.node_base + i as i64,
                            s.node_base + j as i64,
                            w,
                        )?;
                    }
                }
                prev = slot;
                slot += 1;
            }
            Layer::Lstm(l) => {
                let kernel_slot = &meta.slots[slot];
                let rec_slot = &meta.slots[slot + 1];
                let p = &meta.slots[prev];
                debug_assert_eq!(kernel_slot.kind, SlotKind::LstmKernel);
                debug_assert_eq!(rec_slot.kind, SlotKind::LstmRecurrent);
                // Kernel sublayer: per feature (stored once — "weight
                // matrices are equal for every time step", Sec. 4.3.3),
                // with biases.
                for f in 0..l.input_features {
                    for j in 0..l.units() {
                        let mut w = [0.0; 12];
                        for g in 0..4 {
                            w[W_I + g] = l.kernel[g].get(f, j) as f64;
                            w[B_I + g] = l.bias[g][j] as f64;
                        }
                        sink.edge(
                            p.layer,
                            f as i64,
                            kernel_slot.layer,
                            j as i64,
                            p.node_base + f as i64,
                            kernel_slot.node_base + j as i64,
                            w,
                        )?;
                    }
                }
                // Recurrent-kernel sublayer.
                for h in 0..l.units() {
                    for j in 0..l.units() {
                        let mut w = [0.0; 12];
                        for g in 0..4 {
                            w[U_I + g] = l.recurrent[g].get(h, j) as f64;
                        }
                        sink.edge(
                            kernel_slot.layer,
                            h as i64,
                            rec_slot.layer,
                            j as i64,
                            kernel_slot.node_base + h as i64,
                            rec_slot.node_base + j as i64,
                            w,
                        )?;
                    }
                }
                prev = slot + 1;
                slot += 2;
            }
        }
    }
    sink.flush()
}

/// Model-table blocks per hand-off of [`load_into_engine`]'s stream.
const HANDOFF_BLOCKS: usize = 64;

/// Create the model table in an engine and bulk-load the edges; returns the
/// table and metadata. This is the Rust analogue of ML-To-SQL's
/// "automatically load a Python model object into the relational table
/// representation" (Sec. 4.1).
///
/// The export streams into an in-memory table: every 64 × `vector_size`
/// edges go in as one append, a whole number of blocks, so block
/// boundaries and partition placement are those of one big append and no
/// full-size copy of the table ever exists. A persistent table logs every
/// append as one durable statement, so it takes the whole export in one
/// append: a crash must not leave a prefix of a model behind.
pub fn load_into_engine(
    engine: &Engine,
    table_name: &str,
    model: &Model,
    layout: Layout,
) -> Result<(std::sync::Arc<Table>, ModelMeta)> {
    let table = engine.create_table(table_name, model_table_schema(layout))?;
    let meta = ModelMeta::of(model);
    let handoff = match engine.storage_env() {
        Some(_) => usize::MAX,
        None => HANDOFF_BLOCKS * table.vector_size(),
    };
    export_edges(model, &meta, Sink::new(layout, handoff, |cols| table.append(cols)))?;
    Ok((table, meta))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nn::paper;
    use vector_engine::EngineConfig;

    #[test]
    fn edge_count_matches_parameter_structure() {
        // dense(width w, depth d): input edges (4) + 4*w + (d-1)*w^2 + w.
        let (w_, d_) = (8usize, 3usize);
        let model = paper::dense_model(w_, d_, 1);
        let (cols, _) = export_columns(&model, Layout::LayerNode);
        let expected = 4 + paper::dense_weight_count(w_, d_);
        assert_eq!(cols[0].len(), expected);
        assert_eq!(cols.len(), 16);
    }

    #[test]
    fn lstm_edge_count() {
        let model = paper::lstm_model(4, 1);
        let (cols, meta) = export_columns(&model, Layout::NodeId);
        // input edges (3) + kernel (1*4) + recurrent (4*4) + output dense (4).
        assert_eq!(cols[0].len(), 3 + 4 + 16 + 4);
        assert_eq!(cols.len(), 14);
        assert_eq!(meta.node_count(), 3 + 4 + 4 + 1);
    }

    #[test]
    fn input_edges_have_unit_weight_and_id_minus_one() {
        let model = paper::dense_model(4, 2, 1);
        let (cols, _) = export_columns(&model, Layout::NodeId);
        let node_in = cols[0].as_int().unwrap();
        let w_i = cols[2].as_float().unwrap();
        for i in 0..4 {
            assert_eq!(node_in[i], -1);
            assert_eq!(w_i[i], 1.0);
        }
    }

    #[test]
    fn bias_is_replicated_per_incoming_edge() {
        let model = paper::dense_model(4, 2, 7);
        let (cols, meta) = export_columns(&model, Layout::NodeId);
        let node = cols[1].as_int().unwrap();
        // NodeId layout: 2 endpoint columns, then w_i..w_o u_i..u_o b_i..b_o;
        // b_i sits at ordinal 10.
        let b_col = cols[10].as_float().unwrap();
        // All edges into the same node carry the same bias.
        let target = meta.slots[1].node_base; // first hidden node
        let biases: Vec<f64> =
            node.iter().zip(b_col).filter(|(n, _)| **n == target).map(|(_, b)| *b).collect();
        assert_eq!(biases.len(), 4);
        assert!(biases.windows(2).all(|w| w[0] == w[1]));
    }

    /// The streamed load lays the table out exactly as one append of the
    /// whole export: same blocks per partition, same rows, same bits in the
    /// same scan order. At vector size 4 a hand-off is 256 edges; both
    /// models span two hand-offs plus a tail that ends mid-block.
    #[test]
    fn streamed_load_equals_one_append() {
        let bits = |t: &Table| -> Vec<Vec<u64>> {
            let batches = t.all_batches().unwrap();
            let cell = |c: &ColumnVector, r: usize| match c {
                ColumnVector::Int(v) => v[r] as u64,
                ColumnVector::Float(v) => v[r].to_bits(),
                other => panic!("model tables hold no {:?} columns", other.data_type()),
            };
            batches
                .iter()
                .flat_map(|b| {
                    (0..b.num_rows())
                        .map(|r| b.columns().iter().map(|c| cell(c, r)).collect::<Vec<_>>())
                        .collect::<Vec<_>>()
                })
                .collect()
        };
        // Per partition, the rows of each block.
        let blocks = |t: &Table| -> Vec<Vec<usize>> {
            (0..t.partition_count())
                .map(|p| {
                    let mut lens = Vec::new();
                    t.for_each_block(p, &[0], |b| {
                        lens.push(b.num_rows());
                        Ok(())
                    })
                    .unwrap();
                    lens
                })
                .collect()
        };
        // 4 + 4·15 + 2·15² + 15 = 529 = 2·256 + 17 edges; 3 + 24 + 24² + 24
        // = 627 = 2·256 + 115.
        for model in [paper::dense_model(15, 3, 4), paper::lstm_model(24, 9)] {
            for layout in [Layout::NodeId, Layout::LayerNode] {
                let streamed = Engine::new(EngineConfig::test_small());
                let (table, _) = load_into_engine(&streamed, "m", &model, layout).unwrap();
                let whole = Engine::new(EngineConfig::test_small());
                let oracle = whole.create_table("m", model_table_schema(layout)).unwrap();
                let (columns, _) = export_columns(&model, layout);
                assert!(columns[0].len() > 512 && columns[0].len() % 4 != 0);
                oracle.append(columns).unwrap();
                assert_eq!(blocks(&table), blocks(&oracle), "{layout:?}");
                assert_eq!(bits(&table), bits(&oracle), "{layout:?}");
            }
        }
    }

    #[test]
    fn loads_into_engine_with_row_count() {
        let engine = Engine::new(EngineConfig::test_small());
        let model = paper::dense_model(4, 2, 1);
        let (table, meta) = load_into_engine(&engine, "m", &model, Layout::LayerNode).unwrap();
        assert_eq!(table.row_count(), 4 + paper::dense_weight_count(4, 2));
        assert_eq!(meta.slots.len(), 4);
        // Queryable via SQL.
        let q = engine.execute("SELECT COUNT(*) AS n FROM m WHERE layer_in = -1").unwrap();
        assert_eq!(q.rows()[0][0], vector_engine::Value::Int(4));
    }
}
