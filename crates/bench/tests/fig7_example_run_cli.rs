//! End-to-end CLI test for where `fig7_example_run` writes its images.

use std::process::Command;

#[test]
fn non_default_runs_keep_out_of_the_committed_image_set() {
    let dir = std::env::temp_dir().join(format!("hetmmm_fig7_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_fig7_example_run"))
        .args(["--n", "40", "--seed", "2"])
        .env("HETMMM_RESULTS", &dir)
        .env_remove("HETMMM_OBS_JSONL")
        .output()
        .expect("spawn fig7_example_run");
    assert!(out.status.success(), "{out:?}");
    let names = |path: &std::path::Path| -> Vec<String> {
        std::fs::read_dir(path)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect()
    };
    let top = names(&dir);
    assert!(
        !top.iter().any(|f| f.starts_with("fig7_step_")),
        "images at the top level: {top:?}"
    );
    let run = names(&dir.join("fig7_n40_seed2"));
    assert!(
        run.iter()
            .any(|f| f.starts_with("fig7_step_") && f.ends_with(".pgm")),
        "no images in the run's directory: {run:?}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
