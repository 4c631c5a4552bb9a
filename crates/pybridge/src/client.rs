//! The out-of-database baseline: pull everything to a "Python" client over
//! the ODBC-like wire and run the model there (paper Sec. 6.1,
//! "TF_CPU"/"TF_GPU": "data is moved from the database to the Python
//! environment using ODBC and classified using Tensorflow. Here
//! measurements include data movement and classification runtime").

use crate::pyobject::{box_row, rows_to_ndarray, PyObject};
use crate::wire::{end_frame, WireEvent, WireReader, WireWriter};
use bytes::BytesMut;
use crossbeam::channel;
use mlruntime::{InferScratch, RowModel, Session};
use std::sync::Arc;
use tensor::Matrix;

/// Rows per ODBC fetch chunk (the driver's array size).
const FETCH_SIZE: usize = 1000;
/// Inference batch size in the client (Keras `predict` batching).
const BATCH_SIZE: usize = 1024;

/// Statistics of one client-side run (for the memory experiment and tests).
#[derive(Clone, Debug, Default)]
pub struct ClientStats {
    pub rows: usize,
    pub wire_bytes: usize,
    /// Approximate bytes of the boxed Python representation at its peak.
    pub boxed_bytes: usize,
}

/// Run the client baseline: `server_rows` plays the DBMS side streaming the
/// result set; this function is the Python process on the other end of the
/// connection. Returns the predictions in row order plus transport stats.
pub fn run_client_inference(
    server_rows: &[Vec<f64>],
    columns: usize,
    session: &Arc<Session>,
) -> Result<(Vec<f32>, ClientStats), String> {
    let (tx, rx) = channel::bounded::<BytesMut>(4);

    // Server thread: encode rows into wire chunks (the DBMS + ODBC driver).
    let stats_bytes = std::thread::scope(|scope| -> Result<(Vec<f32>, ClientStats), String> {
        let server = scope.spawn(move || {
            let mut writer = WireWriter::new(columns);
            let mut in_chunk = 0usize;
            let mut sent = 0usize;
            for row in server_rows {
                writer.write_row(row);
                in_chunk += 1;
                if in_chunk >= FETCH_SIZE {
                    let chunk = writer.take_chunk();
                    sent += chunk.len();
                    if tx.send(chunk).is_err() {
                        return sent;
                    }
                    in_chunk = 0;
                }
            }
            let mut last = writer.take_chunk();
            last.extend_from_slice(&end_frame());
            sent += last.len();
            let _ = tx.send(last);
            sent
        });

        // Client side: parse, box, convert, infer.
        let mut reader = WireReader::new();
        let mut boxed_rows: Vec<PyObject> = Vec::new();
        let mut ncols = columns;
        'recv: while let Ok(chunk) = rx.recv() {
            reader.feed(&chunk);
            while let Some(event) = reader.next_event()? {
                match event {
                    WireEvent::Header { columns } => ncols = columns,
                    WireEvent::Row(values) => boxed_rows.push(box_row(&values)),
                    WireEvent::End => break 'recv,
                }
            }
        }
        let wire_bytes = server.join().map_err(|_| "server thread panicked")?;

        let boxed_bytes: usize = boxed_rows.iter().map(PyObject::approx_bytes).sum();
        // numpy conversion + batched predict.
        let ndarray = rows_to_ndarray(&boxed_rows, ncols)?;
        let rows = boxed_rows.len();
        let p = session.output_dim();
        let mut predictions = Vec::with_capacity(rows * p);
        let mut scratch = InferScratch::default();
        let mut start = 0usize;
        while start < rows {
            let end = (start + BATCH_SIZE).min(rows);
            let batch =
                Matrix::from_vec(end - start, ncols, ndarray[start * ncols..end * ncols].to_vec());
            predictions.extend_from_slice(&session.run(&batch, &mut scratch)?);
            start = end;
        }
        Ok((predictions, ClientStats { rows, wire_bytes, boxed_bytes }))
    })?;
    Ok(stats_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nn::paper;
    use tensor::Device;

    fn rows(n: usize, dim: usize) -> Vec<Vec<f64>> {
        (0..n).map(|r| (0..dim).map(|c| ((r * dim + c) as f64 * 0.17).sin()).collect()).collect()
    }

    #[test]
    fn client_matches_oracle() {
        let model = paper::dense_model(8, 2, 6);
        let session = Arc::new(Session::from_model("m", &model, Device::cpu()));
        // Three fetch chunks and three inference batches, each with a tail.
        let n = 2_100;
        let data = rows(n, 4);
        let (preds, stats) = run_client_inference(&data, 4, &session).unwrap();
        assert_eq!(preds.len(), n);
        assert_eq!(stats.rows, n);
        assert!(stats.wire_bytes > n * 4 * 8, "text encoding is bigger than binary");
        assert!(stats.boxed_bytes > n * 4 * 24, "boxing overhead accounted");
        for (r, row) in data.iter().enumerate() {
            let input: Vec<f32> = row.iter().map(|&v| v as f32).collect();
            let expected = model.predict_row(&input)[0];
            assert!((preds[r] - expected).abs() < 1e-5, "row {r}");
        }
    }

    #[test]
    fn empty_result_set() {
        let model = paper::dense_model(4, 2, 0);
        let session = Arc::new(Session::from_model("m", &model, Device::cpu()));
        let (preds, stats) = run_client_inference(&[], 4, &session).unwrap();
        assert!(preds.is_empty());
        assert_eq!(stats.rows, 0);
    }

    #[test]
    fn lstm_client_matches_oracle() {
        let model = paper::lstm_model(4, 2);
        let session = Arc::new(Session::from_model("m", &model, Device::cpu()));
        let data = rows(23, 3);
        let (preds, _) = run_client_inference(&data, 3, &session).unwrap();
        for (r, row) in data.iter().enumerate() {
            let input: Vec<f32> = row.iter().map(|&v| v as f32).collect();
            let expected = model.predict_row(&input)[0];
            assert!((preds[r] - expected).abs() < 1e-5);
        }
    }
}
