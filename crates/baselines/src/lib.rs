//! The exact comparator of the paper's evaluation besides brute force.
//!
//! [`CoverTree`] is the Cover Tree of Beygelzimer, Kakade & Langford
//! (2006): the state-of-the-art sequential metric index the paper compares
//! the exact RBC against in §7.4 / Table 3. Like the RBC, its query-time
//! guarantees depend on the expansion rate (O(c⁶ log n) per query);
//! unlike the RBC, its search is a deep, conditional tree traversal that
//! does not map well onto wide parallel hardware — which is the paper's
//! central argument.
//!
//! The tree is exact, reports its work in distance evaluations, and is
//! deliberately *sequential* per query: the paper runs the Cover Tree on a
//! single core (§7.4) because its conditional structure does not benefit
//! from naive parallelisation. Brute force, the other comparator, is
//! `rbc_bruteforce::BruteForce`.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod cover_tree;
pub mod index_impls;

pub use cover_tree::CoverTree;
