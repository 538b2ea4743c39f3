//! `bench`: the benchmark's command line.
//!
//! ```text
//! bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]   one run, result JSON on the last line
//! bench [--seed N] [--seconds S]                                 every workload, timed then traced
//! bench --check-repeat [--seed N] [--seconds S]                  two timed sets, non-zero exit if they disagree
//! bench --print-manifest                                         the text of BENCHMARK.json
//! ```
//!
//! Without `--workload` the binary re-executes itself once per workload
//! and mode, one child at a time, so peak memory and warm state are per
//! workload and the box is never oversubscribed.
//!
//! The process pins itself to one CPU before anything else (see
//! `sys::pin_to_one_cpu`); the children inherit it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use hope_perfbench::metrics::{self, parse_result_line, Value, END_TO_END, RUN_SECONDS};
use hope_perfbench::runner::{run, RunConfig};
use hope_perfbench::workloads::{Sizing, Workload};

/// The system allocator, counting while a counted section is open.
struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; `alloc::record` only touches
// atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        hope_perfbench::alloc::record(layout.size());
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        hope_perfbench::alloc::record(layout.size());
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        hope_perfbench::alloc::record(new_size);
        // SAFETY: `ptr` was returned by `System` for `layout`; `new_size`
        // is the caller's, passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check_repeat: bool,
    print_manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        check_repeat: false,
        print_manifest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload = Some(Workload::from_name(&name).ok_or(format!(
                    "unknown workload {name:?}; known: {}",
                    Workload::ALL.map(Workload::name).join(", ")
                ))?);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 60.0)
                    .ok_or("--seconds must be a number in (0, 60]")?;
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                };
            }
            "--check-repeat" => args.check_repeat = true,
            "--print-manifest" => args.print_manifest = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// `<target dir>/bench` when the binary runs from a cargo profile
/// directory (`<target dir>/release/bench`), which keeps the traces inside
/// the checkout's build directory; a binary copied elsewhere writes none.
fn trace_dir() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let profile = exe.parent()?;
    let in_target = matches!(profile.file_name()?.to_str()?, "release" | "debug");
    in_target.then(|| profile.parent().map(|target| target.join("bench")))?
}

/// Runs one workload in a child process and returns its parsed result.
fn child(workload: Workload, args: &Args, trace: bool) -> Result<(bool, Vec<Value>), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot re-execute the benchmark: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let (correct, attempted, failed, values) = parse_result_line(last)
        .ok_or_else(|| format!("{}: no result line ({})", workload.name(), out.status))?;
    println!(
        "{} trace={}: correct={correct} attempted={attempted} failed={failed}",
        workload.name(),
        u8::from(trace)
    );
    for v in &values {
        println!("  {:<40} {:>16.4} {}", v.name, v.value, v.unit);
    }
    Ok((correct && out.status.success(), values))
}

/// Every workload, timed then traced.
fn run_all(args: &Args) -> Result<bool, String> {
    let mut all_correct = true;
    for workload in Workload::ALL {
        for trace in [false, true] {
            all_correct &= child(workload, args, trace)?.0;
        }
    }
    Ok(all_correct)
}

/// Two timed sets of the same build, side by side; `false` when any
/// end-to-end metric of the second set is worse than the first by more
/// than its bound.
fn check_repeat(args: &Args) -> Result<bool, String> {
    let mut agree = true;
    let mut rows = Vec::new();
    for workload in Workload::ALL {
        let (ok1, first) = child(workload, args, false)?;
        let (ok2, second) = child(workload, args, false)?;
        agree &= ok1 && ok2;
        for def in END_TO_END {
            let find = |set: &[Value]| set.iter().find(|v| v.name == def.name).map(|v| v.value);
            let (Some(a), Some(b)) = (find(&first), find(&second)) else {
                return Err(format!("{} missing from a result", def.name));
            };
            // Either set may play the parent: the larger worsening counts.
            let worse = def.better.worsening(a, b).max(def.better.worsening(b, a));
            let ok = worse <= def.bound;
            agree &= ok;
            rows.push(format!(
                "{:<16} {:<16} {:>14.4} {:>14.4} {:>7.1} % (bound {:>4.0} %) {}",
                workload.name(),
                def.name,
                a,
                b,
                worse * 100.0,
                def.bound * 100.0,
                if ok { "ok" } else { "DISAGREE" }
            ));
        }
    }
    println!(
        "{:<16} {:<16} {:>14} {:>14} {:>9}",
        "workload", "metric", "first", "second", "apart"
    );
    rows.iter().for_each(|row| println!("{row}"));
    Ok(agree)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.print_manifest {
        print!("{}", metrics::manifest());
        return ExitCode::SUCCESS;
    }
    if hope_perfbench::sys::pin_to_one_cpu().is_none() {
        eprintln!("bench: cannot pin to one CPU, running where the scheduler likes");
    }
    let Some(workload) = args.workload else {
        let outcome = if args.check_repeat {
            check_repeat(&args)
        } else {
            run_all(&args)
        };
        return match outcome {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("bench: {e}");
                ExitCode::from(2)
            }
        };
    };
    let result = run(&RunConfig {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        sizing: Sizing::full(),
        trace_dir: trace_dir(),
    });
    for line in &result.report {
        println!("{line}");
    }
    println!(
        "{}",
        metrics::result_line(
            result.correct,
            result.attempted,
            result.failed,
            &result.values
        )
    );
    ExitCode::SUCCESS
}
