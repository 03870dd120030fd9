//! The I/O line, enforced: `core.rs` is sans-IO and `node.rs` is only a
//! driver. A protocol decision creeping back into the socket loop — or a
//! socket, thread or wall clock into the state machine — fails here, not
//! in review.

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

    let node = include_str!("../src/node.rs");
    let banned = [
        "BrachaEngine",
        "ReliableCore",
        "crash_many",
        "wire::classify",
    ];
    assert_eq!(offenders(node, &banned), Vec::<&str>::new(), "node.rs");
}
