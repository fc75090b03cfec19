//! Layers too large for the replay's `u32` tile-id and stream-position
//! space are refused up front with exit code 2, not a panic.

use std::process::Command;

#[test]
fn huge_layers_exit_2_without_simulating() {
    let out_dir = std::env::temp_dir().join(format!("igo-huge-trace-{}", std::process::id()));
    let out_dir = out_dir.to_str().expect("temp dir is UTF-8");
    for argv in [
        vec!["layer", "100000000", "100000", "100000", "edge"],
        vec!["trace", "100000000x100000x100000", "edge", "--out", out_dir],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_igo-sim"))
            .args(&argv)
            .output()
            .expect("igo-sim runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {stderr}");
        assert!(stderr.contains("too large"), "{argv:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{argv:?}: {stderr}");
    }
    assert!(
        !std::path::Path::new(out_dir).exists(),
        "a refused trace writes nothing"
    );
}
