//! The existence characteristic functions EX_Π(n, k).
//!
//! `EX_Π(n, k)` is true iff an LHG for (n, k) satisfying constraint Π
//! exists (follow-up study §3). The closed forms are Theorem 2 (K-TREE) and
//! Theorem 5 (K-DIAMOND): both are true **iff n ≥ 2k** (with `2 ≤ k < n`),
//! hence Corollary 1: `EX_KTREE(n,k) ⇔ EX_KDIAMOND(n,k)`.
//!
//! [`ex_empirical`] cross-checks a closed form by actually building the
//! graph and validating the LHG properties — experiments E3/E5 sweep it
//! over a grid.

use crate::construction::Constraint;
use crate::jd::is_jd_constructible;
use crate::kdiamond::build_kdiamond;
use crate::ktree::build_ktree;
use crate::properties::validate;

/// Closed-form `EX_KTREE(n, k)` (Theorem 2): true iff `n ≥ 2k`, given
/// `2 ≤ k < n`.
#[must_use]
pub fn ex_ktree(n: usize, k: usize) -> bool {
    k >= 2 && k < n && n >= 2 * k
}

/// Closed-form `EX_KDIAMOND(n, k)` (Theorem 5): identical domain to K-TREE.
#[must_use]
pub fn ex_kdiamond(n: usize, k: usize) -> bool {
    ex_ktree(n, k)
}

/// `EX` under the JD operational rule (this reproduction's reading; see
/// [`crate::jd`]). Strictly smaller than `ex_ktree` — the follow-up's §4.4
/// point.
#[must_use]
pub fn ex_jd(n: usize, k: usize) -> bool {
    is_jd_constructible(n, k)
}

/// Empirical `EX`: attempts the construction and, when it succeeds,
/// validates P1–P4. Returns `true` only if a genuine LHG came out.
///
/// With `check_properties = false` only constructibility is tested (used by
/// large sweeps where the O(n·m) validation would dominate).
#[must_use]
pub fn ex_empirical(constraint: Constraint, n: usize, k: usize, check_properties: bool) -> bool {
    let built = match constraint {
        Constraint::KTree => build_ktree(n, k),
        Constraint::KDiamond => build_kdiamond(n, k),
        Constraint::Jd => crate::jd::build_jd(n, k),
    };
    match built {
        Ok(lhg) => !check_properties || validate(lhg.graph(), k).is_lhg(),
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_form_boundaries() {
        assert!(!ex_ktree(5, 3));
        assert!(ex_ktree(6, 3));
        assert!(ex_ktree(7, 3));
        assert!(!ex_ktree(6, 1), "k >= 2 required");
        assert!(!ex_ktree(3, 3), "k < n required");
        assert!(!ex_ktree(3, 4));
    }

    #[test]
    fn corollary_1_equivalence() {
        for k in 2..=6 {
            for n in 1..=60 {
                assert_eq!(ex_ktree(n, k), ex_kdiamond(n, k), "(n={n},k={k})");
            }
        }
    }

    #[test]
    fn jd_is_strictly_weaker() {
        let mut strictly = false;
        for k in 2..=4 {
            for n in 1..=40 {
                if ex_jd(n, k) {
                    assert!(ex_ktree(n, k), "(n={n},k={k})");
                }
                if ex_ktree(n, k) && !ex_jd(n, k) {
                    strictly = true;
                }
            }
        }
        assert!(strictly, "JD must miss some pairs K-TREE covers");
    }

    #[test]
    fn empirical_matches_closed_form_with_property_validation() {
        for k in 3..=4usize {
            for n in (2 * k).saturating_sub(2)..=(2 * k + 8) {
                assert_eq!(
                    ex_empirical(Constraint::KTree, n, k, true),
                    ex_ktree(n, k),
                    "K-TREE (n={n},k={k})"
                );
                assert_eq!(
                    ex_empirical(Constraint::KDiamond, n, k, true),
                    ex_kdiamond(n, k),
                    "K-DIAMOND (n={n},k={k})"
                );
            }
        }
    }

    #[test]
    fn empirical_without_validation_is_constructibility() {
        assert!(ex_empirical(Constraint::Jd, 10, 3, false));
        assert!(!ex_empirical(Constraint::Jd, 9, 3, false));
    }
}
