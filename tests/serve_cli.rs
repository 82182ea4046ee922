//! Command-line checks for the `blowfish-serve` binary.

use std::io::Write;
use std::process::{Command, Output, Stdio};

/// Runs `blowfish-serve` with `args`, feeding `stdin` and closing it.
fn serve(args: &[&str], stdin: &[u8]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_blowfish-serve"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn blowfish-serve");
    child.stdin.take().unwrap().write_all(stdin).unwrap();
    child.wait_with_output().unwrap()
}

#[test]
fn net_model_flag_accepts_only_reactor() {
    let rejected = serve(&["--net-model", "threads"], b"");
    assert!(!rejected.status.success());
    let stderr = String::from_utf8_lossy(&rejected.stderr);
    assert!(
        stderr.contains("--net-model must be reactor"),
        "stderr: {stderr}"
    );

    let accepted = serve(&["--net-model", "reactor"], b"");
    assert!(
        accepted.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&accepted.stderr)
    );
    assert!(accepted.stdout.is_empty());
}
