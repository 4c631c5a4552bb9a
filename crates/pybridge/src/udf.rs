//! The vectorized Python UDF host (paper Sec. 6.1: "In the Python UDF, we
//! load the saved model, apply it to the data using Tensorflow on the CPU
//! and return the predictions. Additionally, we optimize the UDF by using
//! Actian Vector's parallel and vectorized UDFs, i.e. calling the UDF once
//! per vector instead of once per tuple").
//!
//! The host runs on a dedicated thread (the Python interpreter process);
//! every invocation crosses that boundary through rendezvous channels —
//! a real context switch — and serializes its arguments and results
//! through the [`crate::wire`] protocol, then boxes them into
//! [`crate::pyobject`] values before inference.

use crate::pyobject::{box_row, rows_to_ndarray};
use crate::wire::{end_frame, WireEvent, WireReader, WireWriter};
use bytes::BytesMut;
use crossbeam::channel::{self, Sender};
use mlruntime::Session;
use std::sync::Arc;
use tensor::Device;

enum Request {
    Invoke { payload: BytesMut, reply: Sender<Result<BytesMut, String>> },
    Shutdown,
}

/// A handle to the UDF interpreter thread.
pub struct UdfHost {
    requests: Sender<Request>,
    worker: Option<std::thread::JoinHandle<()>>,
    input_dim: usize,
    output_dim: usize,
}

impl UdfHost {
    /// Spawn the interpreter and load the saved model inside it.
    pub fn spawn(saved_model: &str, device: Device) -> Result<UdfHost, String> {
        // Loading happens in the host like the paper's UDF ("we load the
        // saved model"); validate here to report errors synchronously.
        let session = Arc::new(Session::from_saved("udf", saved_model, device)?);
        let input_dim = session.input_dim();
        let output_dim = session.output_dim();
        let (tx, rx) = channel::bounded::<Request>(0);
        let worker = std::thread::spawn(move || {
            while let Ok(req) = rx.recv() {
                match req {
                    Request::Shutdown => break,
                    Request::Invoke { payload, reply } => {
                        let result = serve_invoke(&session, payload);
                        let _ = reply.send(result);
                    }
                }
            }
        });
        Ok(UdfHost { requests: tx, worker: Some(worker), input_dim, output_dim })
    }

    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    pub fn output_dim(&self) -> usize {
        self.output_dim
    }

    /// Invoke the UDF for one vector of rows (row-major `f64` values).
    /// Serializes the arguments to the wire, crosses into the interpreter
    /// thread, and parses the returned predictions.
    pub fn invoke(&self, rows: &[Vec<f64>]) -> Result<Vec<f64>, String> {
        // Engine → UDF serialization.
        let mut writer = WireWriter::new(self.input_dim);
        for (r, row) in rows.iter().enumerate() {
            if row.len() != self.input_dim {
                return Err(format!(
                    "UDF row {r} has {} values, the model takes {}",
                    row.len(),
                    self.input_dim
                ));
            }
            writer.write_row(row);
        }
        let payload = writer.finish();
        let (reply_tx, reply_rx) = channel::bounded(0);
        self.requests
            .send(Request::Invoke { payload, reply: reply_tx })
            .map_err(|_| "UDF host is gone".to_string())?;
        let response = reply_rx.recv().map_err(|_| "UDF host died".to_string())??;
        // UDF → engine parse.
        let mut reader = WireReader::new();
        reader.feed(&response);
        let mut out = Vec::with_capacity(rows.len() * self.output_dim);
        while let Some(event) = reader.next_event()? {
            match event {
                WireEvent::Header { .. } => {}
                WireEvent::Row(values) => out.extend(values),
                WireEvent::End => break,
            }
        }
        Ok(out)
    }
}

impl Drop for UdfHost {
    fn drop(&mut self) {
        let _ = self.requests.send(Request::Shutdown);
        if let Some(w) = self.worker.take() {
            let _ = w.join();
        }
    }
}

/// The interpreter side of one invocation: parse → box → ndarray → predict
/// → serialize.
fn serve_invoke(session: &Session, payload: BytesMut) -> Result<BytesMut, String> {
    let mut reader = WireReader::new();
    reader.feed(&payload);
    let mut boxed = Vec::new();
    let mut columns = session.input_dim();
    while let Some(event) = reader.next_event()? {
        match event {
            WireEvent::Header { columns: c } => columns = c,
            WireEvent::Row(values) => boxed.push(box_row(&values)),
            WireEvent::End => break,
        }
    }
    let ndarray = rows_to_ndarray(&boxed, columns)?;
    let rows = boxed.len();
    let predictions = session.run(&ndarray, rows)?;
    let p = session.output_dim();
    let mut writer = WireWriter::new(p);
    for r in 0..rows {
        let row: Vec<f64> = predictions[r * p..(r + 1) * p].iter().map(|&v| v as f64).collect();
        writer.write_row(&row);
    }
    let mut out = writer.take_chunk();
    out.extend_from_slice(&end_frame());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nn::paper;

    #[test]
    fn udf_matches_oracle_per_vector() {
        let model = paper::dense_model(8, 2, 12);
        let saved = nn::serial::to_string(&model);
        let host = UdfHost::spawn(&saved, Device::cpu()).unwrap();
        assert_eq!(host.input_dim(), 4);
        let rows: Vec<Vec<f64>> =
            (0..37).map(|r| (0..4).map(|c| ((r + c) as f64 * 0.29).cos()).collect()).collect();
        let preds = host.invoke(&rows).unwrap();
        assert_eq!(preds.len(), 37);
        for (r, row) in rows.iter().enumerate() {
            let input: Vec<f32> = row.iter().map(|&v| v as f32).collect();
            let expected = model.predict_row(&input)[0] as f64;
            assert!((preds[r] - expected).abs() < 1e-5, "row {r}");
        }
    }

    #[test]
    fn multiple_invocations_reuse_the_host() {
        let model = paper::dense_model(4, 2, 2);
        let host = UdfHost::spawn(&nn::serial::to_string(&model), Device::cpu()).unwrap();
        for _ in 0..3 {
            let out = host.invoke(&[vec![0.1, 0.2, 0.3, 0.4]]).unwrap();
            assert_eq!(out.len(), 1);
        }
    }

    #[test]
    fn empty_vector_invocation() {
        let model = paper::dense_model(4, 2, 2);
        let host = UdfHost::spawn(&nn::serial::to_string(&model), Device::cpu()).unwrap();
        assert!(host.invoke(&[]).unwrap().is_empty());
    }

    #[test]
    fn wrong_arity_row_is_an_error_not_a_panic() {
        let model = paper::dense_model(4, 2, 2);
        let host = UdfHost::spawn(&nn::serial::to_string(&model), Device::cpu()).unwrap();
        let rows = vec![vec![0.1, 0.2, 0.3, 0.4], vec![0.1, 0.2, 0.3]];
        let err = host.invoke(&rows).unwrap_err();
        assert!(err.contains("row 1 has 3 values, the model takes 4"), "{err}");
        // The host still serves well-formed vectors afterwards.
        assert_eq!(host.invoke(&rows[..1]).unwrap().len(), 1);
    }

    #[test]
    fn bad_model_fails_at_spawn() {
        assert!(UdfHost::spawn("garbage", Device::cpu()).is_err());
    }
}
