//! The `ndquery` binary against a live loopback daemon: output to a
//! reader that has gone away must end the client quietly, not panic.

use netdir_model::{Directory, Dn, Entry};
use netdir_server::ClusterBuilder;
use netdir_wire::WireCluster;
use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Enough entries that their LDIF (≈150 KB) overflows any pipe buffer,
/// so the client must write after the reader has closed.
fn dir() -> Directory {
    let mut d = Directory::new();
    let root = Entry::builder(Dn::parse("dc=com").unwrap())
        .class("thing")
        .build()
        .unwrap();
    d.insert(root).unwrap();
    for i in 0..2000 {
        let e = Entry::builder(Dn::parse(&format!("cn=n{i:04}, dc=com")).unwrap())
            .class("thing")
            .attr("description", "an entry that pads the client's output")
            .build()
            .unwrap();
        d.insert(e).unwrap();
    }
    d
}

#[test]
fn ndquery_exits_cleanly_when_its_reader_closes() {
    let builder = ClusterBuilder::new().server("root", Dn::parse("dc=com").unwrap());
    let wire = WireCluster::launch_default(builder, &dir()).unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_ndquery"))
        .arg(wire.addr(0).to_string())
        .arg("(dc=com ? sub ? objectClass=thing)")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    // Close the read end before the client has printed anything.
    drop(child.stdout.take());

    let deadline = Instant::now() + Duration::from_secs(60);
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        if Instant::now() > deadline {
            child.kill().unwrap();
            panic!("ndquery hung on a closed stdout");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut stderr)
        .unwrap();
    assert!(!stderr.contains("panicked"), "ndquery panicked: {stderr}");
    assert!(status.success(), "ndquery exited with {status}: {stderr}");
}
