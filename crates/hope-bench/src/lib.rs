//! # hope-bench — the experiment driver
//!
//! One binary over one table of experiments ([`EXPERIMENTS`]; see
//! EXPERIMENTS.md at the workspace root for the experiment ↔ paper
//! artefact mapping):
//!
//! ```text
//! cargo run --release -p hope-bench -- <name> [--fast] [--json]
//! cargo run --release -p hope-bench -- all [--fast] [--json]
//! cargo run --release -p hope-bench -- list
//! ```
//!
//! Every number it prints or commits is deterministic — virtual time,
//! message counts, bytes, outcomes — and reproduces bit-for-bit on any
//! machine. It owns no stopwatch: wall-clock performance is measured by
//! `perfbench/` (`BENCHMARK.json`) and nowhere else.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ablation_policies;
mod adaptive;
pub mod baseline;
pub mod cluster;
mod quadratic;
mod registry;
mod throughput;
mod trace_demo;

use hope_sim::json::Value;
use hope_sim::table::Table;

pub use registry::EXPERIMENTS;

/// What the command line asks of one experiment.
#[derive(Debug, Clone, Default)]
pub struct Opts {
    /// Run the experiment's reduced parameter set (`--fast`). The
    /// committed ledger is the full set's, so a fast run yields no cells.
    pub fast: bool,
    /// Output file, for the experiments that write one (`takes_path`).
    pub path: Option<String>,
}

/// One printed table and the plain lines that follow it.
#[derive(Debug)]
pub struct Section {
    /// The table.
    pub table: Table,
    /// Lines printed after it (fits, soak summaries, per-shard outcomes).
    pub notes: Vec<String>,
}

/// What one experiment produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Tables in print order.
    pub sections: Vec<Section>,
    /// The cells of the experiment's committed ledger file; `None` for an
    /// experiment without one or a `--fast` run.
    pub cells: Option<Value>,
}

impl From<Table> for Report {
    fn from(table: Table) -> Self {
        Report::new(table, Vec::new())
    }
}

impl Report {
    /// A report of one table and the lines that follow it.
    pub fn new(table: Table, notes: Vec<String>) -> Self {
        let mut report = Report::default();
        report.push(table, notes);
        report
    }

    /// Appends a table and the lines that follow it.
    pub fn push(&mut self, table: Table, notes: Vec<String>) {
        self.sections.push(Section { table, notes });
    }

    /// Prints every section; `json` appends each table's JSON rendering.
    pub fn print(&self, json: bool) {
        for section in &self.sections {
            println!("{}", section.table);
            if json {
                println!("{}", section.table.to_json());
            }
            for note in &section.notes {
                println!("{note}");
            }
        }
    }
}

/// One row of the experiment table.
pub struct Experiment {
    /// EXPERIMENTS.md section id (`T1`, `F1/F2`, `E3` … `E-cluster`).
    pub id: &'static str,
    /// Subcommand name.
    pub name: &'static str,
    /// Whether `all` runs it (the simulator sweeps EXPERIMENTS.md
    /// tabulates; the soaks, exports and the cluster run on their own).
    pub in_all: bool,
    /// Whether it accepts an output path after its name.
    pub takes_path: bool,
    /// The committed `BENCH_*.json` a full run writes, if any.
    pub ledger: Option<&'static str>,
    /// Runs it. The full and the `--fast` parameter set each appear
    /// exactly once, inside this function.
    pub run: fn(&Opts) -> Report,
}

/// Looks an experiment up by subcommand name.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// `all`: every `in_all` experiment in table order.
pub fn run_all(fast: bool, json: bool) {
    println!("======================================================");
    println!(" HOPE reproduction — full experiment suite");
    println!("======================================================\n");
    let opts = Opts { fast, path: None };
    for (i, experiment) in EXPERIMENTS.iter().filter(|e| e.in_all).enumerate() {
        if i > 0 {
            println!();
        }
        (experiment.run)(&opts).print(json);
    }
}
