//! Vector width of the local kernels.
//!
//! The release build targets baseline x86-64: SSE2, two `f64` per
//! instruction. The hot kernel bodies — the kd build's node bounds, the
//! self-join, the nearest / range / farthest walks and
//! [`crate::squared_euclidean_block`] — are `#[inline(always)]` code that
//! `Isa::run` compiles a second time inside an AVX2 function, four
//! `f64` per instruction. [`Isa::detect`] picks the build from the CPU, and
//! each kernel entry dispatches once, never per pair.
//!
//! Both builds give the same bits: the kernels keep one lane per pair or
//! per box, lanes never mix, nothing is reassociated, and `rustc` never
//! contracts `a * b + c` into a fused multiply-add. Hosts without AVX2, and
//! targets other than x86-64, run the same bodies at the baseline width.

use std::fmt;

/// Which build of the kernels runs: the baseline one or the AVX2 one.
///
/// An `Isa` that selects AVX2 only comes from [`Isa::detect`] on a CPU
/// that reports it, which is what makes `Isa::run` sound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Isa {
    avx2: bool,
}

impl Isa {
    /// The baseline build, which every host runs.
    pub const BASELINE: Isa = Isa { avx2: false };

    /// The widest build this CPU runs. `std` caches the detection, so a
    /// call costs one load.
    pub fn detect() -> Isa {
        #[cfg(target_arch = "x86_64")]
        {
            Isa {
                avx2: std::is_x86_feature_detected!("avx2"),
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            Isa::BASELINE
        }
    }

    /// Whether this is the AVX2 build.
    pub fn is_avx2(self) -> bool {
        self.avx2
    }

    /// Runs `kernel` compiled for this build. The closure must be
    /// `#[inline(always)]` and call only `#[inline(always)]` hot code: a
    /// body that is not inlined into the AVX2 function runs at baseline
    /// width, with the same answers.
    #[inline(always)]
    pub(crate) fn run<R>(self, kernel: impl FnOnce() -> R) -> R {
        #[cfg(target_arch = "x86_64")]
        if self.avx2 {
            // SAFETY: `avx2` is set only by `Isa::detect`, after
            // `is_x86_feature_detected!("avx2")` reported the feature on
            // this CPU. The width axis of `tests/local.rs` and
            // `index::tests::searches_are_width_invariant` run every
            // kernel on this build and on `Isa::BASELINE`.
            return unsafe { avx2(kernel) };
        }
        kernel()
    }
}

impl fmt::Display for Isa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.avx2 { "avx2" } else { "baseline" })
    }
}

/// The AVX2 build of whatever `kernel` inlines.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn avx2<R>(kernel: impl FnOnce() -> R) -> R {
    kernel()
}
