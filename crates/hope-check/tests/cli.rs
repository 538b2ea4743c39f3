//! The command line as a pipeline stage: a reader that closes its end
//! early (`hope-check … | head -1`) ends the run quietly.

use std::process::{Command, Stdio};

#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_hope-check"))
        .args(["replay", "ring2", "--seed", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("hope-check starts");
    // Close the read end before the child writes its first line.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("hope-check runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
}
