//! # lsh — p-stable Locality-Sensitive Hashing for LSH-DDP
//!
//! Implements the Euclidean (2-stable) LSH family of Datar et al. used by
//! the LSH-DDP paper:
//!
//! ```text
//! h(p) = floor((a · p + b) / w)          (paper Eq. 3)
//! ```
//!
//! with `a` a vector of standard Gaussian draws and `b ~ U[0, w)`.
//! `pi` such functions form a *hash group* `G` — two points share a
//! partition iff all `pi` hash values agree — and `M` independent groups
//! form the *multi-layout* partitioning that drives LSH-DDP's
//! false-negative reduction.
//!
//! Alongside the hashing itself, this crate implements the paper's entire
//! §IV/§V analysis:
//!
//! * [`prob::p_rho`] — Lemma 1: lower bound on the probability that *all*
//!   of a point's `d_c`-neighbors land in its bucket;
//! * [`prob::p_delta`] — Lemma 3: exact collision probability of two points
//!   at a given distance (the classic E2LSH `p(d)` curve);
//! * [`prob::expected_accuracy`] — Theorem 1: `A(w, pi, M)`;
//! * [`tuning::solve_width`] — §V-B inverted in closed form: the minimal
//!   `w` that achieves a target accuracy `A` given `(M, pi, d_c)`.
//!
//! ```
//! use lsh::{MultiLsh, tuning};
//!
//! let dc = 0.05;
//! let params = tuning::LshParams::for_accuracy(0.99, 10, 3, dc).unwrap();
//! assert!(params.w > 0.0);
//!
//! // Build the M layouts and hash a point.
//! let multi = MultiLsh::new(4, &params, 42);
//! let sigs = multi.signatures(&[0.1, 0.2, 0.3, 0.4]);
//! assert_eq!(sigs.len(), 10);          // one signature per layout
//! assert_eq!(sigs[0].len(), 3);        // pi hash values per signature
//! ```

pub mod hash;
pub mod knn;
pub mod prob;
pub mod statmath;
pub mod tuning;

pub use hash::{HashGroup, LshFunction, MultiLsh, Signature};
pub use knn::{bucket_tables, BucketUnion, LshIndex};
pub use tuning::LshParams;
