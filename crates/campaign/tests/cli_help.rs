//! `--help` contract tests for the three campaign binaries: each must
//! exit 0 and print an exit-code table that names every code the binary
//! can return, matching the README's tables — scripts are written
//! against these, so the help text is an interface, not décor.

use std::process::Command;

/// Runs `binary --help` and returns its stdout, asserting exit 0.
fn help_output(binary: &str) -> String {
    let output = Command::new(binary)
        .arg("--help")
        .output()
        .unwrap_or_else(|error| panic!("spawn {binary}: {error}"));
    assert!(
        output.status.success(),
        "{binary} --help must exit 0, got {:?}",
        output.status
    );
    String::from_utf8(output.stdout).expect("help is utf-8")
}

/// Asserts the help text has an exit-code table listing exactly `codes`,
/// each as a `  N  description` line.
fn assert_exit_codes(binary: &str, help: &str, codes: &[u8]) {
    assert!(
        help.contains("exit codes:"),
        "{binary} --help must contain an exit-code table"
    );
    let table = help.split("exit codes:").nth(1).expect("table follows");
    for &code in codes {
        assert!(
            table
                .lines()
                .any(|line| line.trim_start().starts_with(&format!("{code}  "))),
            "{binary} --help must document exit code {code}:\n{help}"
        );
    }
    // No undocumented codes: every table line starts with a listed code.
    for line in table.lines().filter(|line| !line.trim().is_empty()) {
        let first = line.split_whitespace().next().expect("token");
        if let Ok(code) = first.parse::<u8>() {
            assert!(
                codes.contains(&code),
                "{binary} --help lists exit code {code}, which this test does not expect"
            );
        }
    }
}

#[test]
fn campaign_run_help_documents_its_exit_codes() {
    let help = help_output(env!("CARGO_BIN_EXE_campaign_run"));
    assert_exit_codes("campaign_run", &help, &[0, 2, 3, 4]);
}

#[test]
fn campaign_run_rejects_the_retired_list_order_backend() {
    let journal = std::env::temp_dir().join(format!(
        "campaign-cli-list-order-{}.journal",
        std::process::id()
    ));
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_campaign_run"))
        .arg("--journal")
        .arg(&journal)
        .args(["--backend", "list-order"])
        .output()
        .expect("campaign_run runs");
    assert_eq!(output.status.code(), Some(2), "a usage error exits 2");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("unknown backend \"list-order\""),
        "stderr: {stderr}"
    );
    assert!(
        !journal.exists(),
        "a usage error must not create the journal"
    );
}

#[test]
fn campaign_daemon_help_documents_its_exit_codes() {
    let help = help_output(env!("CARGO_BIN_EXE_campaign_daemon"));
    assert_exit_codes("campaign_daemon", &help, &[0, 2, 3, 4]);
    for flag in [
        "--spool",
        "--journal",
        "--trace",
        "--deadline-ms",
        "--queue-limit",
    ] {
        assert!(help.contains(flag), "daemon help must document {flag}");
    }
}

#[test]
fn campaign_supervisor_help_documents_its_exit_codes() {
    let help = help_output(env!("CARGO_BIN_EXE_campaign_supervisor"));
    assert_exit_codes("campaign_supervisor", &help, &[0, 2, 3, 4, 5]);
}
