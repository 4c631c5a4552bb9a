//! The environment block every result file carries: what the numbers were
//! measured on, with which kernels, from which build.

use std::process::Command;

use crate::json::Json;
use crate::spec;
use crate::stats::WINDOWS;

/// First line of a command's standard output, or `"unknown"`.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_features() -> Vec<Json> {
    #[cfg(target_arch = "x86_64")]
    {
        let detected = [
            ("sse4.2", std::arch::is_x86_feature_detected!("sse4.2")),
            ("avx2", std::arch::is_x86_feature_detected!("avx2")),
            ("fma", std::arch::is_x86_feature_detected!("fma")),
            ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
            ("avx512bw", std::arch::is_x86_feature_detected!("avx512bw")),
            ("avx512vnni", std::arch::is_x86_feature_detected!("avx512vnni")),
        ];
        detected.iter().filter(|d| d.1).map(|d| Json::str(d.0)).collect()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Vec::new()
    }
}

pub fn environment() -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj(vec![
        ("nproc", Json::Num(nproc as f64)),
        ("arch", Json::str(std::env::consts::ARCH)),
        ("cpu_features", Json::Arr(cpu_features())),
        ("fp32_kernel", Json::str(tensor::f32_kernel_name())),
        ("i8_kernel", Json::str(tensor::i8_kernel_name())),
        ("build_profile", Json::str(if cfg!(debug_assertions) { "debug" } else { "release" })),
        ("rustc", Json::str(&first_line("rustc", &["-V"]))),
        ("git_rev", Json::str(&first_line("git", &["rev-parse", "HEAD"]))),
    ])
}

pub fn settings(seed: u64, seconds: f64, trace: bool) -> Json {
    Json::obj(vec![
        ("seed", Json::Num(seed as f64)),
        ("measured_seconds_per_run", Json::Num(seconds)),
        ("windows_per_phase", Json::Num(WINDOWS as f64)),
        ("window_seconds", Json::Num(seconds / WINDOWS as f64)),
        (
            "open_loop_rates_rps",
            Json::Arr(spec::OPEN_LOOP_RATES.iter().map(|&r| Json::Num(r)).collect()),
        ),
        ("latency_reported_at_rps", Json::Num(spec::REPORTED_RATE)),
        ("latency_limit_us", Json::Num(spec::LATENCY_LIMIT_US)),
        ("flush_policy", Json::str(spec::FLUSH_POLICY)),
        ("engine_config", Json::str("EngineConfig::default(), obs_spans = true")),
        ("benchmark_tracing", Json::Bool(trace)),
    ])
}
