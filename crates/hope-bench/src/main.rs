//! `hope-bench <name> [--fast] [--json] [path]`, `all`, `list`.

use std::process::ExitCode;

use hope_bench::{baseline, cluster, find, run_all, Opts, EXPERIMENTS};

fn usage(problem: &str) -> ExitCode {
    eprintln!("hope-bench: {problem}");
    eprintln!("usage: hope-bench <name> [--fast] [--json] [path]");
    eprintln!("       hope-bench all [--fast] [--json]");
    eprintln!("       hope-bench list");
    eprintln!("  --fast   reduced parameter set (never touches a BENCH_*.json)");
    eprintln!("  --json   append each table's JSON rendering");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((name, rest)) = args.split_first() else {
        return usage("no experiment named");
    };
    if name == cluster::NODE_SUBCOMMAND {
        let Some((id, addrs)) = rest.split_first() else {
            return usage("cluster-node takes <id> <addr>...");
        };
        cluster::run_node(id.parse().expect("node id"), addrs);
    }

    let (mut fast, mut json, mut path) = (false, false, None);
    for arg in rest {
        match arg.as_str() {
            "--fast" => fast = true,
            "--json" => json = true,
            flag if flag.starts_with('-') => return usage(&format!("unknown flag {flag}")),
            _ if path.is_some() => return usage(&format!("unexpected argument {arg}")),
            _ => path = Some(arg.clone()),
        }
    }

    match name.as_str() {
        "list" if !rest.is_empty() => usage("list takes no flag and no argument"),
        "all" if path.is_some() => usage("all takes no path"),
        "list" => {
            for e in EXPERIMENTS {
                println!("{:<11} {:<18} {}", e.id, e.name, e.ledger.unwrap_or("-"));
            }
            ExitCode::SUCCESS
        }
        "all" => {
            run_all(fast, json);
            ExitCode::SUCCESS
        }
        _ => {
            let Some(experiment) = find(name) else {
                return usage(&format!("unknown experiment {name} (try `list`)"));
            };
            if path.is_some() && !experiment.takes_path {
                return usage(&format!("{name} takes no path"));
            }
            let report = (experiment.run)(&Opts { fast, path });
            report.print(json);
            if let Some(file) = experiment.ledger.filter(|_| !fast) {
                let cells = report.cells.as_ref().expect("a full run yields cells");
                baseline::store(file, cells);
            }
            ExitCode::SUCCESS
        }
    }
}
