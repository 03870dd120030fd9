//! # lhg-bench
//!
//! Experiment implementations (E1–E15) and Criterion benchmarks for the LHG
//! reproduction. Each `eN_*` function regenerates one table or figure from
//! EXPERIMENTS.md and returns it as formatted text; the `experiments`
//! binary prints them (`cargo run -p lhg-bench --release --bin experiments
//! -- all`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod extensions;
pub mod figures;
pub mod flooding_tables;
pub mod load_tables;
pub mod network;
pub mod performance;
pub mod scale_tables;
pub mod structure_tables;
pub mod theory_tables;
pub mod workload_tables;

/// One experiment: `(id, description, runner)`.
pub type Experiment = (&'static str, &'static str, fn() -> String);

/// Every experiment, in EXPERIMENTS.md order.
#[must_use]
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        ("e1", "Fig. 2 K-TREE example graphs", figures::e1_fig2_ktree),
        (
            "e2",
            "Fig. 3 K-DIAMOND example graphs",
            figures::e2_fig3_kdiamond,
        ),
        (
            "e3",
            "EX_KTREE grid (Theorem 2)",
            theory_tables::e3_ex_ktree_grid,
        ),
        (
            "e4",
            "REG_KTREE grid (Theorem 3)",
            theory_tables::e4_reg_ktree_grid,
        ),
        (
            "e5",
            "EX/REG_KDIAMOND grids (Theorems 5-6)",
            theory_tables::e5_kdiamond_grids,
        ),
        (
            "e6",
            "executable theorem suite + Theorem 7",
            theory_tables::e6_theorem_suite,
        ),
        (
            "e7",
            "diameter vs n (headline figure)",
            performance::e7_diameter_vs_n,
        ),
        ("e8", "edge cost vs lower bound", performance::e8_edge_cost),
        (
            "e9",
            "flooding latency vs n",
            flooding_tables::e9_latency_vs_n,
        ),
        (
            "e10",
            "reliability vs failures",
            flooding_tables::e10_reliability_vs_failures,
        ),
        ("e11", "message cost", flooding_tables::e11_message_cost),
        (
            "e12",
            "exhaustive fault injection",
            figures::e12_exhaustive_faults,
        ),
        (
            "e13",
            "JD constructibility gaps",
            theory_tables::e13_jd_gaps,
        ),
        (
            "e14",
            "family existence density",
            theory_tables::e14_existence_density,
        ),
        (
            "e15",
            "async overlay broadcast",
            network::e15_overlay_broadcast,
        ),
        (
            "e16",
            "height-balance ablation",
            extensions::e16_balance_ablation,
        ),
        ("e17", "membership churn cost", extensions::e17_churn_cost),
        (
            "e18",
            "flooding on lossy links",
            extensions::e18_lossy_links,
        ),
        (
            "e19",
            "structural profile",
            structure_tables::e19_structural_profile,
        ),
        (
            "e20",
            "spectral expansion",
            structure_tables::e20_spectral_gap,
        ),
        (
            "e21",
            "forwarding-load balance",
            load_tables::e21_load_balance,
        ),
        (
            "e22",
            "failure-detection latency",
            load_tables::e22_detection_latency,
        ),
        (
            "e23",
            "origin sweep + coverage curves",
            workload_tables::e23_origin_sweep,
        ),
        ("e24", "large-n scalability", scale_tables::e24_scale),
        ("e26", "eager tree vs flood", load_tables::e26_tree_vs_flood),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// E25 is the `baseline` binary's, so the registry skips it.
    #[test]
    fn registry_is_complete_and_ordered() {
        let exps = all_experiments();
        assert_eq!(exps.len(), 25);
        let numbers = (1..=24).chain([26]);
        for ((id, desc, _), i) in exps.iter().zip(numbers) {
            assert_eq!(*id, format!("e{i}"));
            assert!(!desc.is_empty());
        }
    }
}
