//! Every `hope-bench -- <name>` in CI and the docs names a registered
//! experiment, and no per-experiment `--bin` invocation survives.

use hope_bench::{baseline::repo_root, find};

const FILES: [&str; 5] = [
    ".github/workflows/ci.yml",
    "README.md",
    "EXPERIMENTS.md",
    "DESIGN.md",
    ".claude/skills/verify/SKILL.md",
];

/// The word after each `marker` in `text`. Markdown wraps, so whitespace
/// runs (line breaks included) are collapsed first; a placeholder such
/// as `<name>` yields its bracketed form.
fn words_after(text: &str, marker: &str) -> Vec<String> {
    let flat = text.split_whitespace().collect::<Vec<_>>().join(" ");
    flat.match_indices(marker)
        .map(|(at, _)| {
            flat[at + marker.len()..]
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || "_<>".contains(*c))
                .collect()
        })
        .collect()
}

#[test]
fn every_documented_invocation_resolves() {
    let mut seen = 0;
    for file in FILES {
        let text = std::fs::read_to_string(repo_root().join(file))
            .unwrap_or_else(|e| panic!("{file}: {e}"));
        for name in words_after(&text, "hope-bench -- ") {
            seen += 1;
            assert!(
                matches!(name.as_str(), "all" | "list" | "<name>") || find(&name).is_some(),
                "{file}: `hope-bench -- {name}` is not a registered experiment"
            );
        }
        // The one `--bin` left in these files is perfbench's `bench`.
        for bin in words_after(&text, "--bin ") {
            assert_eq!(bin, "bench", "{file}: `--bin {bin}` names a deleted binary");
        }
    }
    assert!(seen >= 30, "the scan found only {seen} invocations");
}

#[test]
fn the_scan_sees_wrapped_and_placeholder_invocations() {
    let text = "run `cargo run --release -p hope-bench --\n  fig14_cycles --fast`, or\n\
                `-p hope-bench -- <name> [--fast]`; `cargo run --bin scale`";
    assert_eq!(
        words_after(text, "hope-bench -- "),
        ["fig14_cycles", "<name>"]
    );
    assert_eq!(words_after(text, "--bin "), ["scale"]);
}
