//! `trace-demo` ends quietly when its reader goes away, as under
//! `trace-demo | head`.

use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};

#[test]
fn trace_demo_exits_quietly_on_a_closed_pipe() {
    // Far more output than a pipe buffers, so the demo is still writing
    // when the reader hangs up.
    let mut child = Command::new(env!("CARGO_BIN_EXE_trace-demo"))
        .args(["--every", "1", "--packets", "5000"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn trace-demo");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("read the first line");
    assert!(first.starts_with("trace-demo:"), "{first}");
    // The reader is dropped: the demo's next write meets a closed pipe.
    let mut stderr = String::new();
    (child.stderr.take().expect("piped stderr"))
        .read_to_string(&mut stderr)
        .expect("read stderr");
    let status = child.wait().expect("wait for trace-demo");
    assert_ne!(status.code(), Some(101), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
