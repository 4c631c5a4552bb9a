//! BLAS-like dense linear algebra for the in-database ML reproduction.
//!
//! The paper's native ModelJoin operator (Sec. 5) performs its vectorized
//! inference through the BLAS interface (Intel MKL on the CPU, cuBLAS on the
//! GPU). This crate is the stand-in for both: it provides the handful of
//! kernels Listing 5 of the paper needs (`sgemm`, `sgemv`, element-wise
//! multiply/add, activations) over row-major `f32` matrices, plus a
//! [`device::Device`] abstraction with a real CPU backend and a *simulated*
//! GPU backend.
//!
//! The simulated GPU executes the identical arithmetic on the host (so every
//! approach in the repository is bit-comparable) while charging a calibrated
//! cost model — kernel launch latency, effective FLOP throughput, PCIe
//! transfer time — to a virtual device clock. See [`device`] for the
//! accounting rules and DESIGN.md §2 for the substitution rationale.

pub mod activation;
pub mod blas;
pub mod device;
pub mod matrix;
mod microkernel;
mod pack;
pub mod parallel;
pub mod quant;
mod simd;

pub use activation::Activation;
pub use device::{Device, DeviceKind, DeviceReport, GpuModel};
pub use matrix::Matrix;
pub use parallel::{kernel_threads, set_kernel_threads, set_unified_scheduler};
pub use quant::{qgemm_dense, QuantScratch, QuantizedWeights};
pub use simd::{f32_kernel_name, i8_kernel_name};
