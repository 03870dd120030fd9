//! One adversary, enforced: `lhg_runtime::core::NodeCore` mounts every
//! traitor, on both engines, and this crate only says what a traitor says
//! (`attack.rs`). Its one simulator process is `ByzantineFlooder`, a
//! correct node, which the frozen benchmark runs. A second traitor
//! process creeping back beside the node that ships fails here, not in
//! review.

#[test]
fn the_only_process_is_the_correct_flooder() {
    let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut impls = Vec::new();
    for entry in std::fs::read_dir(src).expect("src/") {
        let path = entry.expect("an entry").path();
        let source = std::fs::read_to_string(&path).expect("readable");
        let name = path.file_name().and_then(|f| f.to_str()).unwrap_or("?");
        let found = source.lines().filter(|l| l.contains("impl Process for"));
        impls.extend(found.map(|l| format!("{name}: {}", l.trim())));
    }
    assert_eq!(impls, ["sim.rs: impl Process for ByzantineFlooder {"]);
}
