//! E26's claims on its smallest row, n = 16: the eager tree never runs
//! deeper than the overlay's diameter, fault-free or at 20 % loss, and
//! costs one body per node where the flood pays about two.

use lhg_bench::load_tables::e26_cell;
use lhg_core::kdiamond::build_kdiamond;
use lhg_graph::paths::diameter;

#[test]
fn the_tree_stays_within_the_diameter_at_one_body_per_node() {
    let diam = diameter(build_kdiamond(16, 3).unwrap().graph()).unwrap();
    for loss in [0.0, 0.2] {
        let ((depth, tree), (_, flood)) = (e26_cell(16, loss, true), e26_cell(16, loss, false));
        assert!(
            depth <= diam,
            "loss {loss}: depth {depth} > diameter {diam}"
        );
        assert!(
            tree * 1.5 < flood,
            "loss {loss}: tree {tree} vs flood {flood}"
        );
        if loss == 0.0 {
            assert!(tree < 1.0, "fault-free: {tree} data frames per delivery");
        }
    }
}
