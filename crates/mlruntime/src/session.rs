//! A loaded model, the runtime's session, and [`RowModel`], the row-major
//! interface an engine operator runs it (or a pool of UDF hosts) through.

use crate::forward::{BuiltModel, InferScratch};
use nn::Model;
use std::borrow::Cow;
use tensor::{Device, Matrix};

/// Rows per forward pass: the paper's vector size. [`Session::run`] runs a
/// longer input in slices of this many rows.
const VECTOR_SIZE: usize = 1024;

/// A loaded inference session. Holds the built model and its device;
/// sessions are immutable after creation and can be shared across threads.
pub struct Session {
    model: BuiltModel,
    device: Device,
    name: String,
}

impl Session {
    /// Load a model object. A session's GEMMs run on the calling thread:
    /// the engine's partition fan-out (or the UDF's pool of hosts) is
    /// what runs sessions in parallel.
    pub fn from_model(name: &str, model: &Model, device: Device) -> Session {
        let model = BuiltModel::from_model(model, &device, VECTOR_SIZE);
        Session { model, device, name: name.to_string() }
    }

    /// Load a serialized model (the "saved model file" path the paper's
    /// UDF variant uses: "we load the saved model, apply it to the data").
    pub fn from_saved(name: &str, text: &str, device: Device) -> Result<Session, String> {
        let model = nn::serial::from_str(text)?;
        Ok(Session::from_model(name, &model, device))
    }

    pub fn device(&self) -> &Device {
        &self.device
    }
}

/// A model an engine operator runs over row-major `f32` rows, shared by
/// the operators of every task of a plan: the C-API [`Session`], or a pool
/// of UDF hosts.
pub trait RowModel: Send + Sync {
    /// The name plan renderings show.
    fn name(&self) -> &str;
    fn input_dim(&self) -> usize;
    fn output_dim(&self) -> usize;
    /// Row-major batched inference over the caller's `rows x input_dim`
    /// matrix: `rows x output_dim` row-major values, borrowed from
    /// `scratch` when the model leaves them there. An operator passes the
    /// same scratch for every vector, so a model that reuses it allocates
    /// nothing per vector.
    fn run<'s>(
        &self,
        input: &Matrix,
        scratch: &'s mut InferScratch,
    ) -> Result<Cow<'s, [f32]>, String>;
}

impl RowModel for Session {
    fn name(&self) -> &str {
        &self.name
    }

    fn input_dim(&self) -> usize {
        self.model.input_dim
    }

    fn output_dim(&self) -> usize {
        self.model.output_dim
    }

    fn run<'s>(
        &self,
        input: &Matrix,
        scratch: &'s mut InferScratch,
    ) -> Result<Cow<'s, [f32]>, String> {
        let dim = self.input_dim();
        if input.cols() != dim {
            return Err(format!(
                "session {}: expected {dim} columns, got {}",
                self.name,
                input.cols()
            ));
        }
        Ok(Cow::Borrowed(self.model.infer_rows(input, &self.device, scratch)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nn::paper;

    #[test]
    fn session_runs_row_major() {
        let model = paper::dense_model(4, 2, 3);
        let session = Session::from_model("m", &model, Device::cpu());
        assert_eq!(session.input_dim(), 4);
        assert_eq!(session.output_dim(), 1);
        let rows = 3;
        let input: Vec<f32> = (0..rows * 4).map(|i| (i as f32 * 0.1).cos()).collect();
        let x = Matrix::from_vec(rows, 4, input.clone());
        let out = session.run(&x, &mut InferScratch::default()).unwrap().into_owned();
        assert_eq!(out.len(), rows);
        for r in 0..rows {
            let expected = model.predict_row(&input[r * 4..(r + 1) * 4])[0];
            assert!((out[r] - expected).abs() < 1e-5);
        }
    }

    #[test]
    fn input_longer_than_the_vector_size_runs_in_slices() {
        let model = paper::dense_model(8, 2, 7);
        let session = Session::from_model("m", &model, Device::cpu());
        let rows = 2_500; // three slices: 1024, 1024, 452
        let input: Vec<f32> = (0..rows * 4).map(|i| (i as f32 * 0.37).sin()).collect();
        let x = Matrix::from_vec(rows, 4, input);
        let out = session.run(&x, &mut InferScratch::default()).unwrap().into_owned();
        let expected = model.predict(&x);
        assert!(Matrix::from_vec(rows, 1, out).max_abs_diff(&expected) < 1e-5);
    }

    #[test]
    fn saved_model_round_trip() {
        let model = paper::lstm_model(4, 8);
        let text = nn::serial::to_string(&model);
        let session = Session::from_saved("saved", &text, Device::cpu()).unwrap();
        let x = Matrix::from_vec(1, 3, vec![0.1, 0.2, 0.3]);
        let out = session.run(&x, &mut InferScratch::default()).unwrap().into_owned();
        let expected = model.predict_row(&[0.1, 0.2, 0.3])[0];
        assert!((out[0] - expected).abs() < 1e-5);
    }

    #[test]
    fn bad_input_length_is_reported() {
        let model = paper::dense_model(4, 2, 0);
        let session = Session::from_model("m", &model, Device::cpu());
        let x = Matrix::from_vec(2, 3, vec![1.0; 6]);
        let err = session.run(&x, &mut InferScratch::default()).unwrap_err();
        assert!(err.contains("expected 4 columns, got 3"), "{err}");
    }

    #[test]
    fn corrupt_saved_model_is_rejected() {
        assert!(Session::from_saved("x", "not a model", Device::cpu()).is_err());
    }
}
