//! End-to-end CLI test for the `obs_report` binary's flag handling.

use std::process::Command;

fn report(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_obs_report"))
        .args(args)
        .output()
        .expect("spawn obs_report")
}

#[test]
fn usage_lists_every_flag_and_unknown_fold_weight_fails() {
    let out = report(&[]);
    assert_eq!(out.status.code(), Some(1), "no input is a usage error");
    let usage = String::from_utf8_lossy(&out.stderr);
    for flag in [
        "--events",
        "--manifests",
        "--folded",
        "--fold-weight",
        "--csv-dir",
        "--trace",
        "--audit",
        "--n",
        "--ratio",
        "--seed",
    ] {
        assert!(usage.contains(flag), "usage omits {flag}: {usage}");
    }

    // An unknown weight used to fold by nanos silently, which under
    // FakeClock writes an empty file.
    let events =
        std::env::temp_dir().join(format!("hetmmm_obs_report_{}.jsonl", std::process::id()));
    std::fs::write(&events, "").unwrap();
    let out = report(&[
        "--events",
        events.to_str().unwrap(),
        "--fold-weight",
        "wall",
    ]);
    let _ = std::fs::remove_file(&events);
    assert_eq!(out.status.code(), Some(1), "unknown fold weight fails");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--fold-weight wall"),
        "failure names the bad value: {stderr}"
    );
}
