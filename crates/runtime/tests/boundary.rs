//! The I/O line, enforced: `core.rs` is sans-IO and `node.rs` is only a
//! driver. A protocol decision creeping back into the socket loop — or a
//! socket, thread or wall clock into the state machine — fails here, not
//! in review. `membership.rs` takes and says values, never frames: the
//! wire encoding of its inputs is `wire.rs`'s. And the crate's one system
//! call the standard library does not wrap keeps its `unsafe` to `sys.rs`.

fn offenders<'a>(source: &str, banned: &[&'a str]) -> Vec<&'a str> {
    (banned.iter().copied())
        .filter(|b| source.contains(b))
        .collect()
}

#[test]
fn core_is_sans_io_and_node_is_only_a_driver() {
    let core = include_str!("../src/core.rs");
    let banned = [
        "std::net",
        "std::thread",
        "Instant",
        "crossbeam",
        "FaultInjector",
    ];
    assert_eq!(offenders(core, &banned), Vec::<&str>::new(), "core.rs");

    // A traitor's script is the wrapper's (`traitor.rs`), never the core's.
    let scripts = ["TraitorBehavior", "attack"];
    assert_eq!(offenders(core, &scripts), Vec::<&str>::new(), "core.rs");

    let node = include_str!("../src/node.rs");
    let banned = [
        "BrachaEngine",
        "ReliableCore",
        "crash_many",
        "wire::classify",
    ];
    assert_eq!(offenders(node, &banned), Vec::<&str>::new(), "node.rs");
}

#[test]
fn membership_names_no_frame() {
    let membership = include_str!("../src/membership.rs");
    let banned = ["Message", "Bytes", "FrameKind", "wire::"];
    let found = offenders(membership, &banned);
    assert_eq!(found, Vec::<&str>::new(), "membership.rs");
}

#[test]
fn unsafe_code_stays_in_sys() {
    let unsafe_code = [
        "unsafe {",
        "unsafe fn",
        "unsafe impl",
        "unsafe extern",
        "(unsafe_code)]",
    ];
    let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut files = 0;
    for entry in std::fs::read_dir(src).expect("src/") {
        let path = entry.expect("an entry").path();
        let source = std::fs::read_to_string(&path).expect("readable");
        let found = offenders(&source, &unsafe_code);
        match path.file_name().and_then(|f| f.to_str()) {
            Some("sys.rs") => assert!(found.contains(&"unsafe {"), "sys.rs"),
            // The crate denies unsafe code; sys.rs is the one exception.
            Some("lib.rs") => assert_eq!(found, ["(unsafe_code)]"], "lib.rs"),
            _ => assert_eq!(found, Vec::<&str>::new(), "{}", path.display()),
        }
        files += 1;
    }
    assert!(files >= 7, "{files} files");
}
