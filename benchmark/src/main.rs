//! One benchmark for the whole stack. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! stackbench run [--workload W] [--seed N] [--sets K] [--trace 0|1] [--smoke]
//! stackbench compare A.json B.json
//! ```
//!
//! `run --workload W` measures one workload in this process and ends with
//! one JSON line (`correct`, `attempted`, `failed`, `metrics`). Without
//! `--workload` (or with `--sets` above 1), `run` starts one such child
//! process per workload and set, so memory high-water marks do not mix,
//! and writes a result file.

mod compare;
mod env;
mod gen;
mod json;
mod load;
mod probes;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use json::Json;
use workloads::{Ctx, RunOut};

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    sets: usize,
    trace: bool,
    smoke: bool,
    /// Set by `run` for its child processes: where their traces go.
    out_dir: Option<PathBuf>,
}

impl RunArgs {
    /// Run length is set by the benchmark, not by its user.
    fn seconds(&self) -> f64 {
        (if self.smoke { spec::SMOKE_SECONDS } else { spec::RUN_SECONDS }) as f64
    }
}

const USAGE: &str = "usage: stackbench run [--workload W] [--seed N] [--sets K] [--trace 0|1] \
                     [--smoke]\n       stackbench compare A.json B.json";

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut r =
        RunArgs { workload: None, seed: 42, sets: 1, trace: false, smoke: false, out_dir: None };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => r.workload = Some(value("a workload name")?),
            "--seed" => r.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--sets" => r.sets = value("a count")?.parse().map_err(|e| format!("--sets: {e}"))?,
            "--trace" => {
                r.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => r.smoke = true,
            // The driver of `BENCHMARK.json` passes the run length it read
            // there; any other length would not be this benchmark.
            "--seconds" => {
                if value("a number")?.parse() != Ok(spec::RUN_SECONDS) {
                    return Err(format!(
                        "a run measures {} s; --seconds is not a knob",
                        spec::RUN_SECONDS
                    ));
                }
            }
            "--out-dir" => r.out_dir = Some(PathBuf::from(value("a directory")?)),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if r.sets == 0 {
        return Err("--sets must be at least 1".into());
    }
    Ok(r)
}

/// `benchmark/out` of the checkout the command was started in, or, when
/// started elsewhere, of the checkout this binary was built from.
fn out_root() -> PathBuf {
    if Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/out")
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
    }
}

fn metric_json(name: &str, values: &[f64], with_values: bool) -> (String, Json) {
    let mut keys = vec![
        ("value", Json::Num(spec::reported(name, values))),
        ("unit", Json::str(spec::unit_of(name))),
    ];
    if with_values {
        keys.push(("values", Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())));
    }
    (name.to_string(), Json::obj(keys))
}

/// A run's result: with the contract's four keys and the listed metrics
/// only, or with every metric measured and the values behind each.
fn result_json(out: &RunOut, everything: bool) -> Json {
    let metrics = if everything {
        out.values.iter().map(|(name, v)| metric_json(name, v, true)).collect()
    } else {
        let zero = vec![0.0];
        let values = |name| out.values.get(name).unwrap_or(&zero);
        out.listed.iter().map(|name| metric_json(name, values(name), false)).collect()
    };
    Json::obj(vec![
        ("correct", Json::Bool(out.correct)),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// The line before the last of a child's output starts with this.
const DETAIL: &str = "stackbench-detail ";

/// One workload, in this process.
fn run_one(args: &RunArgs, workload: &str) -> Result<bool, String> {
    let out_dir = args.out_dir.clone().unwrap_or_else(out_root);
    // Fixtures live in a directory of this process's own and are removed
    // with it; only trace files stay behind.
    let scratch = out_dir.join(format!("scratch-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let ctx = Ctx {
        workload: workload.to_string(),
        seed: args.seed,
        seconds: args.seconds(),
        trace: args.trace,
        out_dir: out_dir.clone(),
        scratch: scratch.clone(),
    };
    let why = spec::WORKLOADS.iter().find(|w| w.name == workload).map_or("", |w| w.why);
    println!(
        "workload {workload} ({why}): seed {}, {} measured seconds, benchmark tracing {}",
        args.seed,
        ctx.seconds,
        if args.trace { "on" } else { "off" }
    );
    let result = workloads::run(&ctx);
    let _ = std::fs::remove_dir_all(&scratch);
    let out = result?;
    for (name, values) in &out.values {
        let spread = if values.len() < 2 {
            "one value".to_string()
        } else {
            let (q1, _, q3) = stats::quartiles(values);
            format!("from {} values, quartiles {q1} .. {q3}", values.len())
        };
        println!("  {name} = {} {} ({spread})", spec::reported(name, values), spec::unit_of(name));
    }
    println!(
        "  attempted {}, failed {}, outputs correct: {}",
        out.attempted, out.failed, out.correct
    );
    println!("{DETAIL}{}", result_json(&out, true).compact());
    println!("{}", result_json(&out, false).compact());
    Ok(out.correct)
}

/// One workload in a child process of its own; returns what it measured.
fn run_child(args: &RunArgs, workload: &str, out_dir: &Path) -> Result<(Json, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(&exe);
    child.args(["run", "--workload", workload, "--seed", &args.seed.to_string()]);
    child.args(["--trace", if args.trace { "1" } else { "0" }]).arg("--out-dir").arg(out_dir);
    if args.smoke {
        child.arg("--smoke");
    }
    let output = child.output().map_err(|e| format!("cannot start the {workload} process: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let detail = stdout.lines().rev().find_map(|l| l.strip_prefix(DETAIL)).unwrap_or("");
    let result = json::parse(detail)
        .map_err(|e| format!("{workload}: no result ({e}); exit {}", output.status))?;
    let correct = result.get("correct").and_then(Json::as_bool).unwrap_or(false);
    Ok((result, correct && output.status.success()))
}

fn values_of(result: &Json, metric: &str) -> Option<Vec<f64>> {
    result.get("metrics")?.get(metric)?.get("values")?.as_arr()?.iter().map(Json::as_f64).collect()
}

/// Two runs of the same code must agree on every end-to-end metric the
/// workload measures (`compare::same_code`). Noisier than the bound reads
/// `unresolved` and is reported, not failed. A rate is judged on the gap
/// between the two reported values alone: its slices differ among
/// themselves by design (what the other client was doing, how far the
/// table had grown), which says nothing about how well the runs agree.
fn same_code_check(workload: &str, first: &Json, second: &Json) -> bool {
    let mut ok = true;
    println!("same-code check of {workload}, set 1 against set 2:");
    for m in &spec::END_TO_END {
        let (Some(bound), Some(a), Some(b)) =
            (m.bound, values_of(first, m.name), values_of(second, m.name))
        else {
            continue;
        };
        let (ra, rb) = (spec::reported(m.name, &a), spec::reported(m.name, &b));
        let verdict = if spec::is_rate(m.name) {
            compare::same_code(&[ra], &[rb], m.better, bound)
        } else {
            compare::same_code(&a, &b, m.better, bound)
        };
        let differs = verdict == compare::Verdict::Worse;
        ok &= !differs;
        println!(
            "  {:<26} {ra:>16.6} {rb:>16.6}  bound {:>4.0} %  {}",
            m.name,
            bound * 100.0,
            if differs { "DIFFERS" } else { verdict.as_str() }
        );
    }
    ok
}

fn run_all(args: &RunArgs) -> Result<bool, String> {
    if let Some(w) = &args.workload {
        if !spec::WORKLOADS.iter().any(|known| known.name == w) {
            return Err(format!("unknown workload {w:?}; known: {}", spec::workload_names()));
        }
    }
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let out_dir = out_root().join(format!("run-{stamp}-{}", std::process::id()));
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let check = args.sets >= 2 && !args.smoke;
    let mut sets = vec![Vec::new(); args.sets];
    let (mut correct, mut agree) = (true, true);
    let chosen = |name: &str| args.workload.as_deref().is_none_or(|w| w == name);
    for w in spec::WORKLOADS.iter().filter(|w| chosen(w.name)) {
        // A workload's runs of all sets follow one another, so that two
        // sets of the same code see as nearly the same host as they can.
        // The host also slows a whole run by a fifth now and then: two
        // runs that disagree are both measured once more, and only a
        // disagreement that repeats counts.
        for attempt in 1..=2 {
            let mut results = Vec::new();
            for k in 1..=args.sets {
                println!("== {}, set {k} of {} ==", w.name, args.sets);
                let (result, ok) = run_child(args, w.name, &out_dir)?;
                correct &= ok;
                results.push(result);
            }
            let agrees = !check || same_code_check(w.name, &results[0], &results[1]);
            if agrees || attempt == 2 {
                agree &= agrees;
                for (set, result) in sets.iter_mut().zip(results) {
                    set.push((w.name.to_string(), result));
                }
                break;
            }
            println!("{}: the two sets disagree; measuring both once more", w.name);
        }
    }
    let sets: Vec<Json> =
        sets.into_iter().map(|w| Json::obj(vec![("workloads", Json::Obj(w))])).collect();
    let doc = Json::obj(vec![
        ("benchmark", Json::str("stackbench")),
        ("environment", env::environment()),
        ("settings", env::settings(args.seed, args.seconds(), args.trace)),
        ("sets", Json::Arr(sets)),
        ("outputs_correct", Json::Bool(correct)),
        ("same_code_sets_agree", if check { Json::Bool(agree) } else { Json::Null }),
        // This benchmark defines names; it claims no gain.
        ("claim", Json::Null),
    ]);
    let path = out_dir.join("result.json");
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    println!(
        "outputs correct: {correct}; same-code sets agree: {}; \"claim\": null",
        if check { agree.to_string() } else { "not checked".to_string() }
    );
    Ok(correct && agree)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        // One workload, one set: measure in this process. Anything more
        // is orchestrated, one child process per workload run.
        Some("run") => parse_run(&args[1..]).and_then(|r| match r.workload.clone() {
            Some(w) if r.sets == 1 => run_one(&r, &w),
            _ => run_all(&r),
        }),
        Some("compare") if args.len() == 3 => compare::run(&args[1], &args[2]).map(|()| true),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("stackbench: {message}");
            ExitCode::from(2)
        }
    }
}
