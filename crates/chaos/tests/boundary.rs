//! One chaos interpreter, enforced: `runner.rs` drives clusters through its
//! driver trait and nothing else. A simulator stand-in for the membership
//! protocol creeping back beside the node that ships — a flooder process
//! with scripted deaths, a private `Simulation` — fails here, not in review.

#[test]
fn the_runner_names_no_protocol_stand_in() {
    let runner = include_str!("../src/runner.rs");
    let banned = [
        "ReliableFlooder",
        "ByzantineFlooder",
        "run_sim_byzantine",
        "Simulation::new",
    ];
    let found: Vec<&str> = (banned.into_iter())
        .filter(|b| runner.contains(b))
        .collect();
    assert_eq!(found, Vec::<&str>::new(), "runner.rs");
}
