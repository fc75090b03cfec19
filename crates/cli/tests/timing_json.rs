//! The `--timing` line: one JSON object on stderr's last line, carrying
//! the process's peak resident set where the platform reports it.

use std::process::Command;

#[test]
fn timing_line_reports_peak_rss() {
    let out = Command::new(env!("CARGO_BIN_EXE_igo-sim"))
        .args(["--timing", "layer", "256", "128", "64", "edge"])
        .output()
        .expect("igo-sim runs");
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    let line = stderr.lines().last().expect("a timing line");
    assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
    let rss = line
        .split("\"peak_rss_mib\":")
        .nth(1)
        .map(|rest| rest.trim_end_matches('}'));
    if cfg!(target_os = "linux") {
        let mib: f64 = rss
            .expect("peak_rss_mib is reported on Linux")
            .parse()
            .expect("peak_rss_mib is a number");
        assert!(mib > 0.0 && mib < 4096.0, "{line}");
    } else {
        assert!(rss.is_none(), "{line}");
    }
}
