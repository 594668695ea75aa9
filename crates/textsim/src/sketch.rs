//! MinHash sketches of shingle sets.
//!
//! A real web archive stores response bytes; storing full bodies for every
//! snapshot in a simulated 15-year crawl would be wasteful. The pipeline
//! only ever asks two questions about archived content: *is this body the
//! same template as that one?* (exact digest) and *how similar are these two
//! bodies?* (Jaccard over shingles). A MinHash sketch (Broder 1997) answers
//! the second with bounded error in constant space, so snapshots carry
//! `(digest, sketch)` instead of bodies.
//!
//! [`MinHashSketch::of`] never builds the shingle set: it folds each window
//! hash from [`for_each_shingle`] straight into the per-permutation minima.
//! A minimum over a multiset equals the minimum over its set, so duplicate
//! windows change nothing, and a document is `empty` exactly when no window
//! was produced.
//!
//! Each window costs [`SKETCH_SIZE`] 64-bit hash-and-minimum lanes. The
//! kernel body is compiled twice: once portable, once inside a function
//! built with AVX-512, where LLVM vectorizes those lanes. `of` checks the
//! CPU at run time and takes the AVX-512 copy when it can; both copies give
//! the same bits.

use crate::gen::fnv1a;
use crate::shingle::for_each_shingle;

/// Number of hash permutations. 32 gives a standard error of ~1/√32 ≈ 0.18
/// per estimate; the pipeline thresholds at 0.5 when comparing sketches, far
/// from the decision boundary for the identical-template (1.0) and
/// unrelated-content (≈0.0) cases it distinguishes.
pub const SKETCH_SIZE: usize = 32;

/// A MinHash sketch of a document's shingle set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MinHashSketch {
    mins: [u64; SKETCH_SIZE],
    /// FNV digest of the exact text — equality ⇒ identical bodies.
    pub digest: u64,
    /// Whether the document had any shingles at all (empty bodies happen:
    /// redirects, some error responses).
    pub empty: bool,
}

impl MinHashSketch {
    /// Sketch a document with word-level `k`-shingles.
    pub fn of(text: &str, k: usize) -> MinHashSketch {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq") {
            // SAFETY: `of_avx512` needs exactly the two features just
            // detected on the running CPU.
            return unsafe { of_avx512(text, k) };
        }
        sketch_body(text, k)
    }

    /// Estimated Jaccard similarity between the underlying shingle sets.
    /// Two empty documents estimate 1.0; empty vs non-empty estimates 0.0.
    pub fn similarity(&self, other: &MinHashSketch) -> f64 {
        if self.digest == other.digest {
            return 1.0;
        }
        if self.empty || other.empty {
            return if self.empty == other.empty { 1.0 } else { 0.0 };
        }
        let agree = self
            .mins
            .iter()
            .zip(other.mins.iter())
            .filter(|(a, b)| a == b)
            .count();
        agree as f64 / SKETCH_SIZE as f64
    }

    /// Exact-equality check via digest.
    pub fn same_body(&self, other: &MinHashSketch) -> bool {
        self.digest == other.digest
    }

    /// The raw permutation minima (for serialization — CDX files persist
    /// sketches so a reloaded archive compares content identically).
    pub fn mins(&self) -> &[u64; SKETCH_SIZE] {
        &self.mins
    }

    /// Rebuild a sketch from serialized parts. The inverse of reading
    /// [`Self::mins`], [`Self::digest`] and [`Self::empty`].
    pub fn from_parts(mins: [u64; SKETCH_SIZE], digest: u64, empty: bool) -> MinHashSketch {
        MinHashSketch { mins, digest, empty }
    }
}

/// The same kernel compiled with AVX-512, where LLVM vectorizes the 32
/// lanes of 64-bit multiplies and minima.
///
/// # Safety
///
/// The CPU must support `avx512f` and `avx512dq`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn of_avx512(text: &str, k: usize) -> MinHashSketch {
    sketch_body(text, k)
}

/// The kernel body. It inlines, shingle loop included, into `of` and into
/// [`of_avx512`], so each gets its own code generation.
#[inline(always)]
fn sketch_body(text: &str, k: usize) -> MinHashSketch {
    let mut mins = [u64::MAX; SKETCH_SIZE];
    let mut empty = true;
    for_each_shingle(text, k, |s| {
        empty = false;
        for (m, salt) in mins.iter_mut().zip(SALTS) {
            // cheap family of hash functions: multiply-xor with odd
            // constants derived from splitmix64
            *m = (*m).min(mix(s ^ salt));
        }
    });
    MinHashSketch {
        mins,
        digest: fnv1a(text.as_bytes()),
        empty,
    }
}

#[inline(always)]
fn mix(mut x: u64) -> u64 {
    // splitmix64 finalizer
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Per-permutation salts (first 32 values of splitmix64 from seed 0xDEAD).
const SALTS: [u64; SKETCH_SIZE] = {
    let mut salts = [0u64; SKETCH_SIZE];
    let mut state: u64 = 0xDEAD;
    let mut i = 0;
    while i < SKETCH_SIZE {
        state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        salts[i] = z ^ (z >> 31);
        i += 1;
    }
    salts
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shingle::{shingle_similarity, shingles};
    use proptest::prelude::*;

    #[test]
    fn identical_docs_similarity_one() {
        let t = "the quick brown fox jumps over the lazy dog again and again";
        let a = MinHashSketch::of(t, 3);
        let b = MinHashSketch::of(t, 3);
        assert_eq!(a.similarity(&b), 1.0);
        assert!(a.same_body(&b));
    }

    #[test]
    fn disjoint_docs_similarity_near_zero() {
        let a = MinHashSketch::of(&word_doc("alpha", 100), 3);
        let b = MinHashSketch::of(&word_doc("omega", 100), 3);
        assert!(a.similarity(&b) < 0.15, "{}", a.similarity(&b));
        assert!(!a.same_body(&b));
    }

    #[test]
    fn empty_handling() {
        let e = MinHashSketch::of("", 3);
        let f = MinHashSketch::of("", 3);
        let x = MinHashSketch::of("some words", 3);
        assert_eq!(e.similarity(&f), 1.0);
        assert_eq!(e.similarity(&x), 0.0);
        assert!(e.empty && !x.empty);
    }

    #[test]
    fn estimate_tracks_true_jaccard() {
        // overlapping docs: share half the text
        let shared = word_doc("shared", 120);
        let a = format!("{shared} {}", word_doc("lefty", 120));
        let b = format!("{shared} {}", word_doc("right", 120));
        let true_sim = shingle_similarity(&a, &b, 3);
        let est = MinHashSketch::of(&a, 3).similarity(&MinHashSketch::of(&b, 3));
        assert!(
            (est - true_sim).abs() < 0.25,
            "estimate {est} vs true {true_sim}"
        );
    }

    #[test]
    fn sketch_is_deterministic() {
        let a = MinHashSketch::of("deterministic content here", 2);
        let b = MinHashSketch::of("deterministic content here", 2);
        assert_eq!(a, b);
    }

    fn word_doc(prefix: &str, n: usize) -> String {
        (0..n).map(|i| format!("{prefix}{i} ")).collect()
    }

    /// The original kernel, kept verbatim as the differential oracle: one
    /// `String` per token, a `HashSet` of window hashes, and the minima
    /// taken over that set.
    mod reference {
        use super::super::{fnv1a, mix, MinHashSketch, SALTS, SKETCH_SIZE};
        use std::collections::HashSet;

        pub fn shingles(text: &str, k: usize) -> HashSet<u64> {
            let tokens: Vec<String> = text
                .split(|c: char| !c.is_ascii_alphanumeric())
                .filter(|t| !t.is_empty())
                .map(|t| t.to_ascii_lowercase())
                .collect();
            let mut out = HashSet::new();
            if tokens.is_empty() {
                return out;
            }
            if tokens.len() < k {
                out.insert(hash_window(&tokens));
                return out;
            }
            for w in tokens.windows(k) {
                out.insert(hash_window(w));
            }
            out
        }

        fn hash_window(window: &[String]) -> u64 {
            let mut h: u64 = 0xcbf29ce484222325;
            for tok in window {
                for &b in tok.as_bytes() {
                    h ^= b as u64;
                    h = h.wrapping_mul(0x100000001b3);
                }
                h ^= 0x1f; // token separator
                h = h.wrapping_mul(0x100000001b3);
            }
            h
        }

        pub fn sketch_of(text: &str, k: usize) -> MinHashSketch {
            let set = shingles(text, k);
            let mut mins = [u64::MAX; SKETCH_SIZE];
            for &s in &set {
                for (i, m) in mins.iter_mut().enumerate() {
                    let h = mix(s ^ SALTS[i]);
                    if h < *m {
                        *m = h;
                    }
                }
            }
            MinHashSketch::from_parts(mins, fnv1a(text.as_bytes()), set.is_empty())
        }
    }

    /// Runs of ASCII letters and digits in both cases, punctuation and
    /// whitespace, and multi-byte UTF-8 (2-, 3- and 4-byte characters,
    /// including letters that are alphanumeric outside ASCII).
    const MIXED_TEXT: &str =
        "([a-zA-Z0-9]{1,7}|[ .,;:!?<>/=&#_\t\n-]{1,3}|[éÉßñΩж漢字€😀]{1,2}){0,40}";
    /// The same alphabet in at most four pieces, so empty and
    /// fewer-than-`k`-token inputs come up often.
    const SHORT_TEXT: &str =
        "([a-zA-Z0-9]{1,7}|[ .,;:!?<>/=&#_\t\n-]{1,3}|[éÉßñΩж漢字€😀]{1,2}){0,4}";

    proptest! {
        #[test]
        fn kernel_matches_the_string_and_set_oracle(
            text in prop_oneof![MIXED_TEXT, SHORT_TEXT],
            k in 1usize..=6,
        ) {
            prop_assert_eq!(shingles(&text, k), reference::shingles(&text, k));
            let want = reference::sketch_of(&text, k);
            // `of` takes the AVX-512 copy where the CPU has it, so check the
            // portable body on its own too
            prop_assert_eq!(sketch_body(&text, k), want);
            prop_assert_eq!(MinHashSketch::of(&text, k), want);
        }
    }

    #[test]
    fn oracle_agrees_on_edge_inputs() {
        for text in [
            "",
            "   ",
            "...!!",
            "one",
            "One TWO",
            "ünïcödé wörds",
            "a😀b€c漢d",
            "trailing sep, ",
            "a b a b a b",
            "<html><head><title>T</title></head><body>x y z</body></html>",
        ] {
            for k in 1..=6 {
                let case = format!("{text:?} k={k}");
                assert_eq!(shingles(text, k), reference::shingles(text, k), "{case}");
                let want = reference::sketch_of(text, k);
                assert_eq!(sketch_body(text, k), want, "{case}");
                assert_eq!(MinHashSketch::of(text, k), want, "{case}");
            }
        }
    }
}
