//! Model metadata: the layer/slot structure shared by all consumers of the
//! relational representation.
//!
//! The paper notes (Sec. 5.5) that calling the ModelJoin "requires passing
//! meta information about the model, i.e. the layer dimensions, the layer
//! types and the layer activation functions" — [`ModelMeta`] is exactly
//! that object. It also fixes the **slot numbering** of the model graph:
//!
//! | slot/layer | content                               | dimension        |
//! |-----------:|---------------------------------------|------------------|
//! | -1         | artificial single input node           | 1                |
//! | 0          | input distribution layer (one node per fact-table input column) | `input_dim` |
//! | 1..        | model layers; an LSTM contributes two consecutive slots (kernel, recurrent kernel) | see [`SlotKind`] |
//!
//! In the [`crate::Layout::NodeId`] layout, node IDs are assigned slot by
//! slot: the artificial input node is `-1`, slot 0 gets `0..input_dim`, and
//! so on — "first layer of dimension n1 has IDs 0 to n1-1, second layer of
//! dimension n2 gets IDs from n1 to n1+n2-1" (Sec. 4.4).

use nn::{Activation, Layer, Model};

/// What a graph slot holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotKind {
    /// The input distribution layer (weights `W_i = 1` from the artificial
    /// input node).
    Input,
    /// A dense layer with its activation.
    Dense(Activation),
    /// The kernel sublayer of an LSTM (edges carry `W_*` and `b_*`).
    LstmKernel,
    /// The recurrent-kernel sublayer of an LSTM (edges carry `U_*`).
    LstmRecurrent,
}

/// One slot of the model graph.
#[derive(Clone, Debug, PartialEq)]
pub struct SlotInfo {
    pub kind: SlotKind,
    /// Number of nodes in this slot.
    pub dim: usize,
    /// Layer index in the [`crate::Layout::LayerNode`] layout (slot 0 = the
    /// input distribution layer).
    pub layer: i64,
    /// First node ID of this slot in the [`crate::Layout::NodeId`] layout.
    pub node_base: i64,
    /// For LSTM sublayers: time steps and per-step features.
    pub timesteps: usize,
    pub features: usize,
}

/// Structural metadata of a model, independent of its weights.
#[derive(Clone, Debug, PartialEq)]
pub struct ModelMeta {
    /// Number of fact-table input columns.
    pub input_dim: usize,
    /// Graph slots in order (slot 0 is always [`SlotKind::Input`]).
    pub slots: Vec<SlotInfo>,
}

impl ModelMeta {
    /// Extract the metadata of a model.
    pub fn of(model: &Model) -> ModelMeta {
        let input_dim = model.input_dim();
        let mut slots = Vec::new();
        let mut node_base: i64 = 0;
        let mut layer: i64 = 0;
        let mut push = |slots: &mut Vec<SlotInfo>,
                        kind: SlotKind,
                        dim: usize,
                        timesteps: usize,
                        features: usize| {
            slots.push(SlotInfo { kind, dim, layer, node_base, timesteps, features });
            node_base += dim as i64;
            layer += 1;
        };
        push(&mut slots, SlotKind::Input, input_dim, 1, input_dim);
        for l in model.layers() {
            match l {
                Layer::Dense(d) => {
                    push(&mut slots, SlotKind::Dense(d.activation), d.units(), 1, d.input_dim())
                }
                Layer::Lstm(l) => {
                    for kind in [SlotKind::LstmKernel, SlotKind::LstmRecurrent] {
                        push(&mut slots, kind, l.units(), l.timesteps, l.input_features);
                    }
                }
            }
        }
        ModelMeta { input_dim, slots }
    }

    /// Total node count across all slots (= first unused node ID).
    pub fn node_count(&self) -> i64 {
        self.slots.last().map_or(0, |s| s.node_base + s.dim as i64)
    }

    /// The slot holding the model output (always the last one).
    pub fn output_slot(&self) -> &SlotInfo {
        self.slots.last().expect("models have at least one layer")
    }

    /// The model's output width.
    pub fn output_dim(&self) -> usize {
        self.output_slot().dim
    }

    /// True if the model contains an LSTM layer.
    pub fn is_recurrent(&self) -> bool {
        self.slots.iter().any(|s| s.kind == SlotKind::LstmKernel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nn::paper;

    #[test]
    fn dense_model_slots() {
        let m = paper::dense_model(8, 2, 1); // 4 -> 8 -> 8 -> 1
        let meta = ModelMeta::of(&m);
        assert_eq!(meta.input_dim, 4);
        assert_eq!(meta.slots.len(), 4); // input + 2 hidden + output
        assert_eq!(meta.slots[0].kind, SlotKind::Input);
        assert_eq!(meta.slots[0].node_base, 0);
        assert_eq!(meta.slots[1].node_base, 4);
        assert_eq!(meta.slots[2].node_base, 12);
        assert_eq!(meta.slots[3].node_base, 20);
        assert_eq!(meta.node_count(), 21);
        assert_eq!(meta.output_dim(), 1);
        assert!(!meta.is_recurrent());
    }

    #[test]
    fn lstm_model_has_two_sublayers() {
        let m = paper::lstm_model(16, 1);
        let meta = ModelMeta::of(&m);
        // input, kernel, recurrent, dense output
        assert_eq!(meta.slots.len(), 4);
        assert_eq!(meta.slots[1].kind, SlotKind::LstmKernel);
        assert_eq!(meta.slots[2].kind, SlotKind::LstmRecurrent);
        assert_eq!(meta.slots[1].dim, 16);
        assert_eq!(meta.slots[2].dim, 16);
        assert_eq!(meta.slots[1].timesteps, 3);
        assert_eq!(meta.slots[1].features, 1);
        assert!(meta.is_recurrent());
        // Node IDs: input 0..3? No: LSTM input_dim = timesteps = 3.
        assert_eq!(meta.slots[0].dim, 3);
        assert_eq!(meta.slots[1].node_base, 3);
        assert_eq!(meta.slots[2].node_base, 19);
    }

    #[test]
    fn layer_indices_are_sequential_from_input() {
        let m = paper::dense_model(4, 3, 0);
        let meta = ModelMeta::of(&m);
        for (i, s) in meta.slots.iter().enumerate() {
            assert_eq!(s.layer, i as i64);
        }
    }
}
