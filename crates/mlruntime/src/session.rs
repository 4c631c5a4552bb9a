//! A loaded model, the runtime's session, and [`RowModel`], the row-major
//! interface an engine operator runs it (or a pool of UDF hosts) through.

use crate::forward::{BuiltModel, InferScratch};
use nn::Model;
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
    /// Row-major batched inference: `input.len()` must be
    /// `rows * input_dim`; the result has `rows * output_dim` values.
    fn run(&self, input: &[f32], rows: usize) -> Result<Vec<f32>, String>;
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

    fn run(&self, input: &[f32], rows: usize) -> Result<Vec<f32>, String> {
        let dim = self.input_dim();
        if input.len() != rows * dim {
            return Err(format!(
                "session {}: expected {} values ({} rows x {} columns), got {}",
                self.name,
                rows * dim,
                rows,
                dim,
                input.len()
            ));
        }
        let x = Matrix::from_vec(rows, dim, input.to_vec());
        Ok(self.model.infer_rows(&x, &self.device, &mut InferScratch::default()).into_owned())
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
        let out = session.run(&input, rows).unwrap();
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
        let out = session.run(&input, rows).unwrap();
        let expected = model.predict(&Matrix::from_vec(rows, 4, input));
        assert!(Matrix::from_vec(rows, 1, out).max_abs_diff(&expected) < 1e-5);
    }

    #[test]
    fn saved_model_round_trip() {
        let model = paper::lstm_model(4, 8);
        let text = nn::serial::to_string(&model);
        let session = Session::from_saved("saved", &text, Device::cpu()).unwrap();
        let out = session.run(&[0.1, 0.2, 0.3], 1).unwrap();
        let expected = model.predict_row(&[0.1, 0.2, 0.3])[0];
        assert!((out[0] - expected).abs() < 1e-5);
    }

    #[test]
    fn bad_input_length_is_reported() {
        let model = paper::dense_model(4, 2, 0);
        let session = Session::from_model("m", &model, Device::cpu());
        let err = session.run(&[1.0; 7], 2).unwrap_err();
        assert!(err.contains("expected 8 values"), "{err}");
    }

    #[test]
    fn corrupt_saved_model_is_rejected() {
        assert!(Session::from_saved("x", "not a model", Device::cpu()).is_err());
    }
}
